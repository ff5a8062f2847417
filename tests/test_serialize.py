from dataclasses import replace
from fractions import Fraction

import pytest

from coneorder.cones import interval_cone, orthant, square_cone
from coneorder.errors import ParseError
from coneorder.iso import (
    IDENTITY_MAP,
    AffineMap,
    DiagonalIso,
    LinearIso,
    OddPowerMap,
    PiecewiseLinearMap,
    ProductLiftIso,
    compose_isos,
    eval_iso,
    identity_iso,
    make_affine_iso,
    make_diagonal_iso,
    make_product_lift,
)
from coneorder.linalg import MAX_RATIONAL_DIGITS, as_vec, frac
from coneorder.order import disengaged_split, eval_infsup, inf_expr, leaf, sup_expr
from coneorder.psd import SymMatrix
from coneorder.serialize import (
    MAX_DIM,
    MAX_ISO_DEPTH,
    MAX_ODD_POWER,
    bijection_to_json,
    canonical_dumps,
    cone_to_json,
    expr_to_json,
    fmt_rational,
    iso_to_json,
    matrix_to_json,
    parse_bijection,
    parse_cone,
    parse_expr,
    parse_iso,
    parse_matrix,
    parse_points,
    parse_rational,
    parse_vec,
)


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational(3) == 3
        assert parse_rational("3") == 3
        assert parse_rational("-7/2") == Fraction(-7, 2)

    def test_rejects_floats_and_junk(self):
        with pytest.raises(ParseError):
            parse_rational(0.5)
        with pytest.raises(ParseError):
            parse_rational("1.5e3x")
        with pytest.raises(ParseError):
            parse_rational(True)
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_decimal_and_exponent_forms(self):
        assert parse_rational("1.5e-3") == Fraction(3, 2000)
        assert parse_rational(" -2.5 ") == Fraction(-5, 2)
        assert parse_rational("1e400") == 10 ** 400

    @pytest.mark.parametrize("text", [f"1e{MAX_RATIONAL_DIGITS + 1}",
                                      f"-3E-{MAX_RATIONAL_DIGITS + 1}",
                                      "1/" + "3" * (MAX_RATIONAL_DIGITS - 1)],
                             ids=["exponent", "negative-exponent", "length"])
    def test_string_length_and_exponent_are_bounded(self, text):
        # one reader for the CLI and the library: both name the limit
        for read in (parse_rational, frac, lambda t: as_vec([t])):
            with pytest.raises(ParseError, match=f"at most {MAX_RATIONAL_DIGITS} characters"):
                read(text)

    def test_strings_at_the_limit_are_read(self):
        assert parse_rational(f"1e-{MAX_RATIONAL_DIGITS}") == Fraction(1, 10 ** MAX_RATIONAL_DIGITS)
        assert parse_rational("1/" + "3" * (MAX_RATIONAL_DIGITS - 2)).numerator == 1

    def test_format(self):
        assert fmt_rational(Fraction(4, 2)) == "2"
        assert fmt_rational(Fraction(-3, 7)) == "-3/7"


class TestConeFiles:
    def test_generator_and_facet_forms(self):
        c1 = parse_cone({"dim": 3, "generators": [["1", "1", "1"], ["-1", "1", "1"],
                                                  ["1", "-1", "1"], ["-1", "-1", "1"]]})
        assert c1 == square_cone()
        c2 = parse_cone({"dim": 3, "facets": [["1", "0", "1"], ["-1", "0", "1"],
                                              ["0", "1", "1"], ["0", "-1", "1"]]})
        assert c2 == square_cone()

    def test_roundtrip(self):
        for cone in (orthant(3), square_cone(), interval_cone()):
            assert parse_cone(cone_to_json(cone)) == cone

    def test_validation(self):
        with pytest.raises(ParseError):
            parse_cone({"dim": 2})
        with pytest.raises(ParseError):
            parse_cone({"dim": 2, "generators": [["1", "0"]], "facets": [["1", "0"]]})
        with pytest.raises(ParseError):
            parse_cone({"dim": 2, "generators": [["1", "0"]], "extra": 1})
        with pytest.raises(ParseError):
            parse_cone({"dim": 0, "generators": []})


def test_cone_dim_is_bounded():
    assert parse_cone({"dim": MAX_DIM, "facets": []}).dim == MAX_DIM
    with pytest.raises(ParseError, match=f"cone dim {MAX_DIM + 1} exceeds the limit {MAX_DIM}"):
        parse_cone({"dim": MAX_DIM + 1, "facets": []})


def test_iso_depth_counts_every_nesting_kind():
    o1 = {"dim": 1, "generators": [["1"]]}
    spec = {"linear": {"matrix": [["1"]], "source": o1, "target": o1}}
    wrappers = [lambda s: {"compose": [s]},
                lambda s: {"affine": {"linear": s, "source_base": ["0"], "target_base": ["0"]}}]
    for k in range(MAX_ISO_DEPTH - 2):
        spec = wrappers[k % 2](spec)
    spec = {"product_lift": {"cone": {"dim": 2, "generators": [["1", "1"], ["-1", "1"]]},
                             "ray_index": 1, "ray_map": {"affine": {"slope": "2"}}, "sub": spec}}
    assert parse_iso(spec).source_cone.dim == 2
    with pytest.raises(ParseError, match=f"nests more than {MAX_ISO_DEPTH} specs deep"):
        parse_iso({"compose": [spec]})


class TestExprFiles:
    def test_roundtrip_and_eval(self):
        e = inf_expr(sup_expr(leaf(as_vec((1, 0))), leaf(as_vec((0, 1)))),
                     sup_expr(leaf(as_vec((2, 0))), leaf(as_vec((0, 2)))))
        j = expr_to_json(e)
        assert j == {"inf": [{"sup": [{"leaf": ["1", "0"]}, {"leaf": ["0", "1"]}]},
                             {"sup": [{"leaf": ["2", "0"]}, {"leaf": ["0", "2"]}]}]}
        assert eval_infsup(orthant(2), parse_expr(j)) == as_vec((1, 1))

    def test_validation(self):
        with pytest.raises(ParseError):
            parse_expr({"sup": []})
        with pytest.raises(ParseError):
            parse_expr({"max": [{"leaf": ["1"]}]})
        with pytest.raises(ParseError):
            parse_expr({"sup": [], "inf": []})


class TestBijectionFiles:
    def test_roundtrips(self):
        for m in (IDENTITY_MAP, OddPowerMap(5),
                  PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))):
            again = parse_bijection(bijection_to_json(m))
            assert again == m

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_bijection({"cubic": 3})

    def test_odd_power_exponent_is_bounded(self):
        assert parse_bijection({"odd_power": MAX_ODD_POWER}) == OddPowerMap(MAX_ODD_POWER)
        for exponent in (MAX_ODD_POWER + 2, 1000001):
            with pytest.raises(ParseError, match=f"exceeds the limit {MAX_ODD_POWER}"):
                parse_bijection({"odd_power": exponent})

    @pytest.mark.parametrize("obj", [
        {"affine": {}},
        {"affine": 3},
        {"piecewise": {}},
        {"piecewise": {"breakpoints": [["0", "0"], ["1"]]}},
        {"piecewise": {"breakpoints": 2}},
        {"odd_power": True},
    ])
    def test_malformed_fields_are_parse_errors(self, obj):
        with pytest.raises(ParseError):
            parse_bijection(obj)


class TestIsoFiles:
    def test_all_kinds_roundtrip_through_json(self):
        o2 = orthant(2)
        ic = interval_cone()
        pwl = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        specs = [
            identity_iso(o2),
            make_diagonal_iso(o2, [(0, 1), (1, 0)], [IDENTITY_MAP, OddPowerMap(3)]),
            make_product_lift(ic, 1, pwl, identity_iso(orthant(1))),
            make_affine_iso(identity_iso(o2), (1, 1), (0, 2)),
            compose_isos(identity_iso(o2), identity_iso(o2)),
        ]
        for spec in specs:
            again = parse_iso(iso_to_json(spec))
            assert type(again) is type(spec)
            x = spec.source_base
            probe = as_vec(tuple(c + 1 for c in spec.source_cone.generators[0]))
            from coneorder.linalg import vec_add

            p = vec_add(x, probe) if spec.source_cone.contains(probe) else x
            assert eval_iso(again, p) == eval_iso(spec, p)

    def test_parse_validates_constructions(self):
        # diagonal over a non-simplicial source must fail at parse time
        sq = cone_to_json(square_cone())
        bad = {"diagonal": {"source": sq,
                            "target_frame": [["1", "0", "0"], ["0", "1", "0"],
                                             ["0", "0", "1"], ["1", "1", "1"]],
                            "maps": [{"odd_power": 1}] * 4}}
        from coneorder.errors import NotSimplicial

        with pytest.raises(NotSimplicial):
            parse_iso(bad)

    def test_a_permuted_source_frame_is_refused(self):
        # The file keeps the maps but no source frame, and parse_iso takes
        # the generators (0, 1), (1, 0) as the frame: written out, this
        # certified spec would read back as (1, 2) -> (4, 1).
        o2 = orthant(2)
        e = [(1, 0), (0, 1)]
        spec = DiagonalIso(o2, e, [AffineMap(2), OddPowerMap(3)], e, o2)
        assert spec._certified() and spec.eval((1, 2)) == (2, 8)
        with pytest.raises(ValueError, match="source frame is not its source cone's generators"):
            iso_to_json(spec)

    @pytest.mark.parametrize("kind", ["forged_inverse", "shear", "partial_frame"])
    def test_an_uncertified_linear_or_diagonal_spec_is_refused(self, kind):
        # A forged inverse would be written as the matrix alone and read back
        # as a different, certified spec; the shear and the partial frame
        # would be written as files that parse_iso refuses.
        sq, o2 = square_cone(), orthant(2)
        eye = [as_vec(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        spec = {
            "forged_inverse": lambda: LinearIso(eye, sq, sq, inverse=[[2 * c for c in r]
                                                                      for r in eye]),
            "shear": lambda: LinearIso([(1, 1), (0, 1)], o2, o2),
            "partial_frame": lambda: DiagonalIso(sq, sq.generators[:3], [IDENTITY_MAP] * 3,
                                                 sq.generators[:3], sq),
        }[kind]()
        assert not spec._certified()
        with pytest.raises(ValueError, match="is not certified"):
            iso_to_json(spec)
        # wrapped in the other kinds, it is refused the same way
        with pytest.raises(ValueError, match="is not certified"):
            iso_to_json(compose_isos(identity_iso(spec.source_cone), spec))


    def test_an_uncertified_product_lift_is_refused(self):
        # The file keeps the cone, ray index, ray map and sub, and
        # make_product_lift recomputes the split: written out, this lift over
        # a split whose projection is doubled would read back as the
        # certified map (1, 2) -> (1, 3).
        o2 = orthant(2)
        split = disengaged_split(o2, 0)
        doubled = replace(split, projection=tuple(tuple(2 * c for c in row)
                                                  for row in split.projection))
        pwl = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        spec = ProductLiftIso(o2, 0, pwl, identity_iso(split.subcone), doubled, o2)
        assert not spec._certified() and spec.eval((1, 2)) == (2, 5)
        with pytest.raises(ValueError, match="ProductLiftIso is not certified"):
            iso_to_json(spec)
        # the lift over the split make_product_lift computes is written
        honest = make_product_lift(o2, 0, pwl, identity_iso(split.subcone))
        assert parse_iso(iso_to_json(honest)).eval((1, 2)) == honest.eval((1, 2)) == (1, 3)


class TestMatrixFiles:
    def test_roundtrip(self):
        m = SymMatrix([[1.0, 0.25], [0.25, 2.0]])
        assert parse_matrix(matrix_to_json(m)).array.tolist() == m.array.tolist()

    def test_validation(self):
        with pytest.raises(ParseError):
            parse_matrix({"n": 2, "rows": [[1.0, 0.0]]})
        with pytest.raises(ParseError):
            parse_matrix({"rows": [[1.0]]})


def test_points_file():
    pts = parse_points({"points": [["1", "2"], ["-1/2", "0"]]})
    assert pts == [as_vec((1, 2)), as_vec((Fraction(-1, 2), 0))]
    with pytest.raises(ParseError):
        parse_points({"pts": []})


def test_canonical_dumps_is_sorted_and_newline_terminated():
    s = canonical_dumps({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'
