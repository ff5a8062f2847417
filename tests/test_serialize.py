from fractions import Fraction

import pytest

from coneorder.cones import interval_cone, orthant, square_cone
from coneorder.errors import ParseError
from coneorder.iso import (
    IDENTITY_MAP,
    OddPowerMap,
    PiecewiseLinearMap,
    compose_isos,
    eval_iso,
    identity_iso,
    make_affine_iso,
    make_diagonal_iso,
    make_product_lift,
)
from coneorder.linalg import as_vec
from coneorder.order import eval_infsup, inf_expr, leaf, sup_expr
from coneorder.psd import SymMatrix
from coneorder.serialize import (
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
