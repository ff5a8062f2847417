from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import coneorder.iso as iso_mod
from coneorder.cones import (
    PolyhedralCone,
    cone_from_generators,
    interval_cone,
    orthant,
    square_cone,
)
from coneorder.errors import (
    ConeOrderError,
    DegenerateSpan,
    DimensionMismatch,
    NotColinear,
    NotConeMap,
    NotExtreme,
    NotSimplicial,
    MapCountMismatch,
    OutOfDomain,
    RayIsEngaged,
    SameRay,
)
from coneorder.iso import (
    AffineFit,
    AffineMap,
    DiagonalIso,
    IDENTITY_MAP,
    IsoReport,
    IsoSpec,
    LinearIso,
    MonotoneBijection,
    OddPowerMap,
    PiecewiseLinearMap,
    ProductLiftIso,
    check_additivity,
    check_affine_on,
    check_order_iso_sampled,
    check_parallelogram,
    check_positively_homogeneous,
    compose_isos,
    eval_iso,
    extract_g_r,
    halfline_image_check,
    identity_iso,
    invert_iso,
    make_affine_iso,
    make_diagonal_iso,
    make_linear_iso,
    make_product_lift,
    _FrameCoords,
    _IntMatrix,
    _signed_extreme,
)
from coneorder.linalg import (
    as_vec,
    independent_subset,
    invert_matrix,
    mat_vec,
    scaled_ints,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)
from coneorder.order import (
    classify_engaged,
    disengaged_split,
    extreme_halfline_check,
    infimum,
    interval_sample,
    is_totally_ordered,
    order_unit_norm,
    supremum,
)
from coneorder.sampling import (
    cone_point,
    incomparable_pair,
    incomparable_pair_ints,
    random_pointed_cone,
    rng_for,
    unimodular_matrix,
)

from oracles import (
    battery_reference,
    check_additivity_reference,
    check_affine_on_reference,
    check_positively_homogeneous_reference,
    eval_reference,
    extract_g_r_reference,
    halfline_image_check_reference,
    invert_reference,
    normalize_ray,
    parallelogram_reference,
    signed_extreme_reference,
    solve_reference,
)


def V(*xs):
    return as_vec(xs)


class Doubling(MonotoneBijection):
    """A strictly increasing bijection fixing 0, but not one of the three
    kinds the certificates know, so no accepted spec could hold it."""

    def _eval_ints(self, n, d):
        return 2 * n, d

    def _invert_ints(self, n, d):
        return n, 2 * d


class HalflineKink(IsoSpec):
    """The identity of a cone, except on one half-line p + lam*r: the point
    at lam = ``at`` goes to p + at*r + shift, and from lam = 2 on the spec is
    undefined.  An identity that stops at its first failure meets the kink
    and never the undefined points behind it."""

    def __init__(self, cone, p, r, at, shift):
        super().__init__(cone, cone, True)
        self.p, self.r, self.at, self.shift = as_vec(p), as_vec(r), Fraction(at), as_vec(shift)

    def _forward(self, x):
        v = tuple(Fraction(c, x[1]) for c in x[0])
        d = vec_sub(v, self.p)
        lam = next(a / b for a, b in zip(d, self.r) if b)
        if lam >= 0 and d == vec_scale(lam, self.r):
            if lam >= 2:
                raise OutOfDomain("undefined from lam = 2 on")
            if lam == self.at:
                return scaled_ints(vec_add(v, self.shift))
        return x

    def _backward(self, y):
        return y


def cube_iso():
    # orthant(2).generators is sorted: ((0,1),(1,0)); cube the (1,0) coordinate
    return make_diagonal_iso(orthant(2), [V(0, 1), V(1, 0)],
                             [IDENTITY_MAP, OddPowerMap(3)])


def cube_iso_3d():
    o3 = orthant(3)
    return make_diagonal_iso(o3, list(o3.generators), [OddPowerMap(3)] * 3)


class TestMonotoneBijections:
    def test_affine_map(self):
        m = AffineMap(Fraction(2), Fraction(1))
        assert m(Fraction(3)) == 7
        assert m.invert(Fraction(7)) == 3
        assert m.exact
        with pytest.raises(ValueError):
            AffineMap(Fraction(0))

    def test_piecewise_linear_evaluation_and_extension(self):
        m = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        assert m(Fraction(1, 2)) == 1
        assert m(Fraction(2)) == 3      # slope 1 beyond the last breakpoint
        assert m(Fraction(-1)) == -1    # slope 1 before the first breakpoint
        assert m.invert(Fraction(3)) == 2
        assert m.invert(Fraction(1)) == Fraction(1, 2)
        assert m.fixes_zero()
        # strictly increasing everywhere sampled
        grid = [Fraction(k, 4) for k in range(-8, 12)]
        vals = [m(t) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap(((Fraction(0), Fraction(0)),))
        with pytest.raises(ValueError):
            PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))

    def test_odd_power(self):
        m = OddPowerMap(3)
        assert m(Fraction(-2)) == -8
        assert m.invert(Fraction(27)) == 3          # exact at perfect cubes
        assert m.invert(Fraction(-8, 27)) == Fraction(-2, 3)
        approx = m.invert(Fraction(2))
        assert abs(float(approx) ** 3 - 2) < 1e-9   # flagged approximate
        assert not m.exact
        assert OddPowerMap(1).exact
        # the exponent 1 takes the general path, which reduces n/d first
        assert OddPowerMap(1)._invert_ints(-6, 4) == (-3, 2)
        assert OddPowerMap(1).invert(Fraction(5, 7)) == Fraction(5, 7)
        with pytest.raises(ValueError):
            OddPowerMap(2)
        with pytest.raises(ValueError):
            OddPowerMap(-3)


scalars = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestBijectionProperties:
    @given(scalars, scalars)
    def test_affine_map_roundtrip_and_monotone(self, a, b):
        m = AffineMap(Fraction(5, 3), Fraction(-2, 7))
        assert m.invert(m(a)) == a
        if a < b:
            assert m(a) < m(b)

    @given(scalars, scalars)
    def test_piecewise_roundtrip_and_monotone(self, a, b):
        m = PiecewiseLinearMap(((Fraction(-1), Fraction(-3)), (Fraction(0), Fraction(0)),
                                (Fraction(2), Fraction(1))))
        assert m.invert(m(a)) == a
        if a < b:
            assert m(a) < m(b)

    @given(scalars)
    def test_odd_power_forward_exact_and_inverse_at_powers(self, a):
        m = OddPowerMap(3)
        assert m(a) == a ** 3
        assert m.invert(a ** 3) == a


class TestLinearIso:
    def test_identity_and_swap(self):
        o2 = orthant(2)
        assert eval_iso(identity_iso(o2), V(2, 5)) == V(2, 5)
        swap = make_linear_iso([[0, 1], [1, 0]], o2, o2)
        assert eval_iso(swap, V(2, 5)) == V(5, 2)
        assert invert_iso(swap, V(5, 2)) == V(2, 5)

    def test_shear_rejected_by_inverse_generator_test(self):
        with pytest.raises(NotConeMap):
            make_linear_iso([[1, 1], [0, 1]], orthant(2), orthant(2))

    def test_singular_rejected(self):
        with pytest.raises(NotConeMap):
            make_linear_iso([[1, 1], [1, 1]], orthant(2), orthant(2))

    def test_rejection_names_the_side_that_fails(self):
        # both sides fail: the forward side is named
        with pytest.raises(NotConeMap, match="^image of a source generator leaves the target cone$"):
            make_linear_iso([[1, 0], [0, -1]], orthant(2), orthant(2))
        with pytest.raises(NotConeMap, match="^preimage of a target generator leaves the source cone$"):
            make_linear_iso([[1, 1], [0, 1]], orthant(2), orthant(2))

    def test_made_spec_is_already_certified(self, monkeypatch):
        # make_linear_iso validates through the certificate, so the battery
        # reads the cached result and never certifies the spec again
        sq = square_cone()
        spec = make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], sq, sq)
        monkeypatch.setattr(LinearIso, "_certify", lambda self: pytest.fail("certified twice"))
        assert spec._certified()

    def test_cross_cone_map(self):
        src = orthant(2)
        m = [[1, 1], [-1, 1]]
        tgt = cone_from_generators(2, [V(1, -1), V(1, 1)])
        spec = make_linear_iso(m, src, tgt)
        assert spec.target_cone == tgt
        assert eval_iso(spec, V(1, 0)) == V(1, -1)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            eval_iso(identity_iso(orthant(2)), V(-1, 0))


class TestDiagonalIso:
    def test_identity_frame(self):
        o2 = orthant(2)
        spec = make_diagonal_iso(o2, list(o2.generators), [IDENTITY_MAP, IDENTITY_MAP])
        assert eval_iso(spec, V(3, 4)) == V(3, 4)

    def test_cube_map_values(self):
        spec = cube_iso()
        assert eval_iso(spec, V(2, 1)) == V(8, 1)
        assert invert_iso(spec, V(8, 1)) == V(2, 1)

    def test_square_cone_not_simplicial(self):
        with pytest.raises(NotSimplicial):
            make_diagonal_iso(square_cone(), list(square_cone().generators),
                              [IDENTITY_MAP] * 4)

    def test_map_count_mismatch(self):
        with pytest.raises(MapCountMismatch):
            make_diagonal_iso(orthant(2), [V(1, 0), V(0, 1)], [IDENTITY_MAP])

    def test_maps_must_fix_zero(self):
        with pytest.raises(ValueError):
            make_diagonal_iso(orthant(2), [V(1, 0), V(0, 1)],
                              [AffineMap(Fraction(1), Fraction(1)), IDENTITY_MAP])

    def test_dependent_frame_rejected(self):
        with pytest.raises(NotSimplicial):
            make_diagonal_iso(orthant(2), [V(1, 1), V(2, 2)], [IDENTITY_MAP] * 2)

    def test_ragged_frame_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_diagonal_iso(orthant(2), [V(1), V(0, 1)], [IDENTITY_MAP] * 2)

    def test_custom_scalar_kind_is_refused(self):
        assert Doubling().fixes_zero()
        with pytest.raises(ValueError, match="odd-power, affine or piecewise-linear"):
            make_diagonal_iso(orthant(2), [V(1, 0), V(0, 1)], [Doubling(), IDENTITY_MAP])

    def test_counts_and_maps_are_checked_before_independence(self):
        with pytest.raises(MapCountMismatch):
            make_diagonal_iso(square_cone(), [V(1, 0, 0)], [IDENTITY_MAP])
        with pytest.raises(ValueError):
            make_diagonal_iso(orthant(2), [V(1, 1), V(2, 2)],
                              [AffineMap(Fraction(1), Fraction(1)), IDENTITY_MAP])

    @pytest.mark.xfail(strict=True, reason="the inverse-side order test of an inexact "
                       "spec uses a float slack that ignores the size of the facet normals")
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_large_generators_give_no_false_inverse_violation(self, k):
        # An order-isomorphism over a cone whose primitive generators have
        # entries near 2^40, so its facet normals have entries near 2^80.
        t = 2**40
        source = cone_from_generators(3, [(t + 1, 1, 0), (0, t + 3, -1), (1, 0, t - 1)])
        spec = make_diagonal_iso(source, [V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)],
                                 [OddPowerMap(k)] * 3)
        assert spec._certified() and not spec.exact
        report = check_order_iso_sampled(spec, 300, 0)
        assert report.order_preserving_violations == ()
        assert report.inverse_violations == ()

    @settings(max_examples=60, deadline=None)
    @given(spec_seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5))
    def test_every_accepted_spec_is_certified(self, spec_seed, dim):
        # Full-dimensional simplicial sources, and random cones with at
        # most dim generators, which make_diagonal_iso refuses unless they
        # are independent; target frames of dim or dim + 1 coordinates.
        rng = rng_for(spec_seed, "diag-cert")
        if rng.random() < 0.5:
            source = _simplicial(rng, dim)
        else:
            source = random_pointed_cone(rng, dim, rng.randint(1, dim))
        n, tdim = len(source.generators), dim + rng.randint(0, 1)
        frame = [[_rational(rng) for _ in range(tdim)] for _ in range(n)]
        maps = [_scalar_map(rng, rng.choice(["affine", "pwl", "odd"]), rng.random() < 0.9)
                for _ in range(n)]
        try:
            spec = make_diagonal_iso(source, frame, maps)
        except (NotSimplicial, ValueError):  # a dependent frame, a map moving 0
            return
        assert spec._certified()


@st.composite
def frames(draw):
    """(frame, dim): dim in 1-5, independent vectors, partial or of full
    rank, with repeated vectors and integer combinations of earlier ones
    (the zero vector among them) inserted anywhere."""
    dim = draw(st.integers(1, 5))
    coord = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    vec = st.lists(coord, min_size=dim, max_size=dim).map(as_vec)
    frame = draw(st.lists(vec, max_size=dim))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["repeat", "dependent", "fresh"]))
        if kind == "repeat" and frame:
            v = draw(st.sampled_from(frame))
        elif kind == "dependent" and frame:
            a, b = draw(st.sampled_from(frame)), draw(st.sampled_from(frame))
            p, q = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            v = vec_add(vec_scale(p, a), vec_scale(q, b))
        else:
            v = draw(vec)
        frame.insert(draw(st.integers(0, len(frame))), v)
    return frame, dim


def _check_frame_coords(frame, dim, points):
    """solve(x) over coords.den is the Fraction solve of sum lam_k frame[k]
    = x, and OutOfDomain exactly where that solve has no solution."""
    coords = _FrameCoords(frame, dim)
    for xi in points:
        expected = solve_reference(transpose(frame), xi)
        if expected is None:
            with pytest.raises(OutOfDomain):
                coords.solve(xi)
        else:
            lam = coords.solve(xi)
            assert tuple(Fraction(a, coords.coords.den) for a in lam) == expected


def _in_span(frame, dim, coeffs):
    """The integer point on the ray of sum coeffs[k] * frame[k]."""
    x = [sum((c * v[i] for c, v in zip(coeffs, frame)), Fraction(0)) for i in range(dim)]
    return scaled_ints(x)[0]


class TestFrameCoords:
    @settings(max_examples=300, deadline=None)
    @given(frames(), st.data())
    def test_solve_matches_the_fraction_solve(self, frame_dim, data):
        frame, dim = frame_dim
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(frame),
                                    max_size=len(frame)))
        off = data.draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
        _check_frame_coords(frame, dim, [_in_span(frame, dim, coeffs), off])

    @pytest.mark.parametrize("frame, dim", [
        ([], 2),
        ([V(1, 0, 0)], 3),
        ([V(1, 2), V(1, 2)], 2),
        ([V(0, 0), V(1, 1)], 2),
        ([V(1, 0, 1), V(0, 1, 1), V(1, 1, 2), V(0, 0, 1)], 3),
        ([V(2, 0, 0), V(0, Fraction(1, 3), 0), V(0, 0, 5)], 3),
        ([V(1, -1, 0, 0, 0), V(0, 0, 0, 0, 1), V(2, -2, 0, 0, 0), V(0, 1, 1, 0, 0)], 5),
    ], ids=["empty", "partial", "repeated", "zero", "dependent", "full", "dim5"])
    def test_hand_picked_frames(self, frame, dim):
        rng = rng_for(7, "frame-coords")
        points = [_in_span(frame, dim, [rng.randint(-3, 3) for _ in frame])
                  for _ in range(5)]
        points += [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(5)]
        points += [[0] * dim, [1] + [0] * (dim - 1)]
        _check_frame_coords(frame, dim, points)


class TestWrapperBindings:
    # The library's kinds: tests/test_tooling.py, which also reads the tracer.
    def test_a_subclass_gets_both_wrappers(self):
        assert vars(HalflineKink)["eval"] is IsoSpec.eval
        assert vars(HalflineKink)["invert"] is IsoSpec.invert

    def test_a_kind_keeps_its_own_wrapper_and_passes_it_on(self):
        class OwnEval(HalflineKink):
            def eval(self, x):
                return "own"

        class Heir(OwnEval):
            pass

        for cls in (OwnEval, Heir):
            assert vars(cls)["eval"] is vars(OwnEval)["eval"]
            assert vars(cls)["invert"] is IsoSpec.invert
        spec = Heir(orthant(2), V(0, 0), V(1, 0), 1, V(0, 0))
        assert spec.eval(V(1, 1)) == "own"
        assert spec.invert(V(1, 1)) == V(1, 1)


class TestIntMatrix:
    M = [V(1, Fraction(1, 2)), V(0, 3)]

    def test_rows_over_the_common_denominator(self):
        m = _IntMatrix(self.M)
        assert (m.rows, m.den, m.cols) == ([(2, 1), (0, 6)], 2, 2)
        assert m.apply([2, 4]) == [8, 24]

    @pytest.mark.parametrize("xi", [[], [1], [1, 2, 3]], ids=["empty", "short", "long"])
    def test_vector_of_the_wrong_length_refused(self, xi):
        with pytest.raises(DimensionMismatch, match=f"length {len(xi)} for 2 columns"):
            _IntMatrix(self.M).apply(xi)


class TestProductLift:
    def test_orthant_lift_nonlinear(self):
        spec = make_product_lift(orthant(3), 0, OddPowerMap(3), identity_iso(orthant(2)))
        report = check_order_iso_sampled(spec, 400, seed=0)
        assert report.verdict == "PassedSampling"
        pts = [vec_add(cone_point(orthant(3), rng_for(1, "plaff", t)), V(0, 0, 0))
               for t in range(20)]
        fit = check_affine_on(spec, pts)
        assert not fit.affine

    def test_interval_cone_piecewise_lift_exact(self):
        ic = interval_cone()
        pwl = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        spec = make_product_lift(ic, 1, pwl, identity_iso(orthant(1)))
        assert spec.exact
        report = check_order_iso_sampled(spec, 500, seed=0)
        assert report.verdict == "PassedSampling"
        # in split coordinates the ray coordinate doubles below the breakpoint
        t2 = vec_scale(Fraction(1, 2), V(1, 1))
        image = eval_iso(spec, t2)
        assert image == V(1, 1)

    @pytest.mark.parametrize("ray_map", [Doubling(), AffineMap(Fraction(1), Fraction(1))])
    def test_ray_map_refused_as_in_diagonal_iso(self, ray_map):
        # One fixes-0 rule for both constructors: a custom kind, which the
        # lift's certificate never proves, or a map moving 0.
        with pytest.raises(ValueError, match="odd-power, affine or piecewise-linear"):
            make_product_lift(orthant(2), 0, ray_map, identity_iso(orthant(1)))

    def test_engaged_ray_refused(self):
        with pytest.raises(RayIsEngaged):
            make_product_lift(square_cone(), 0, OddPowerMap(3), identity_iso(orthant(2)))

    def test_sub_iso_domain_mismatch(self):
        with pytest.raises(NotConeMap):
            make_product_lift(orthant(3), 0, OddPowerMap(3), identity_iso(orthant(1)))

    def test_sub_iso_into_the_wrong_dimension_refused(self):
        o3 = orthant(3)
        sub = make_diagonal_iso(disengaged_split(o3, 0).subcone, [V(1, 0, 0), V(0, 1, 0)],
                                [IDENTITY_MAP] * 2)
        with pytest.raises(DimensionMismatch, match="target has dimension 3, expected 2$"):
            make_product_lift(o3, 0, OddPowerMap(3), sub)

    def test_dimension_one_refused(self):
        with pytest.raises(DimensionMismatch, match="dimension >= 2, got 1$"):
            make_product_lift(orthant(1), 0, OddPowerMap(3), identity_iso(orthant(1)))

    def test_direct_lift_with_a_sub_of_the_wrong_dimension_refuses_to_evaluate(self):
        # Past make_product_lift's checks: orthant(3) splits into a ray and
        # two sub coordinates, which a sub on orthant(1) cannot take.  The
        # certificate's dimension tests fail first; eval refuses the
        # shape instead of truncating the sub coordinates.
        o3 = orthant(3)
        pwl = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        spec = ProductLiftIso(o3, 0, pwl, identity_iso(orthant(1)), disengaged_split(o3, 0), o3)
        assert not spec._certified()
        with pytest.raises(DimensionMismatch):
            spec.eval(V(1, 2, 3))


class TestComposeAndAffine:
    def test_compose_roundtrip(self):
        o2 = orthant(2)
        swap = make_linear_iso([[0, 1], [1, 0]], o2, o2)
        chain = compose_isos(swap, cube_iso())
        x = V(2, 3)
        assert eval_iso(chain, x) == eval_iso(cube_iso(), eval_iso(swap, x))

    def test_compose_mismatch(self):
        with pytest.raises(NotConeMap):
            compose_isos(identity_iso(orthant(2)), identity_iso(orthant(3)))

    def test_affine_translate(self):
        o2 = orthant(2)
        spec = make_affine_iso(identity_iso(o2), V(1, 1), V(-2, 0))
        assert eval_iso(spec, V(2, 3)) == V(-1, 2)
        assert invert_iso(spec, V(-1, 2)) == V(2, 3)
        with pytest.raises(OutOfDomain):
            eval_iso(spec, V(0, 0))

    def test_domain_is_tested_once_and_refuses_points_off_it(self, monkeypatch):
        """IsoSpec decides the domain: an apexed eval or invert makes one cone
        test, not one for the translate and one for its inner spec, and
        every kind refuses a point one step below its apex (inside the cone
        itself for the apexed kinds) both ways."""
        calls = []
        in_cone = PolyhedralCone._in_cone

        def counted(cone, zi):
            calls.append(zi)
            return in_cone(cone, zi)

        monkeypatch.setattr(PolyhedralCone, "_in_cone", counted)
        for inner in (identity_iso(orthant(2)), cube_iso()):
            spec = make_affine_iso(inner, V(1, 2), V(3, 1))
            for call, p in ((spec.eval, V(2, 3)), (spec.invert, V(4, 2))):
                calls.clear()
                call(p)
                assert len(calls) == 1, (type(inner).__name__, call.__name__)

        o2 = orthant(2)
        swap = make_linear_iso([[0, 1], [1, 0]], o2, o2)
        specs = [identity_iso(o2), cube_iso(),
                 make_product_lift(o2, 0, OddPowerMap(3), identity_iso(orthant(1))),
                 compose_isos(swap, cube_iso()),
                 make_affine_iso(identity_iso(o2), V(1, 2), V(3, 1)),
                 make_affine_iso(compose_isos(swap, cube_iso()), V(1, 2), V(3, 1))]
        for spec in specs:
            x = vec_add(spec.source_base, V(-1, 0))
            y = vec_add(spec.target_base, V(-1, 0))
            assert not spec.in_source(x) and not spec.in_target(y)
            with pytest.raises(OutOfDomain):
                spec.eval(x)
            with pytest.raises(OutOfDomain):
                spec.invert(y)

    def test_nested_product_lift(self):
        # lift over e1 of orthant(3) with a sub iso that is itself a lift
        inner = make_product_lift(orthant(2), 0, OddPowerMap(3), identity_iso(orthant(1)))
        outer = make_product_lift(orthant(3), 0,
                                  PiecewiseLinearMap(((Fraction(0), Fraction(0)),
                                                      (Fraction(1), Fraction(2)))),
                                  inner)
        rep = check_order_iso_sampled(outer, 300, seed=0)
        assert rep.verdict == "PassedSampling"

    def test_affine_translate_passes_battery(self):
        spec = make_affine_iso(cube_iso(), V(1, 2), V(-3, 0))
        rep = check_order_iso_sampled(spec, 300, seed=0)
        assert rep.verdict == "PassedSampling"

    def test_diagonal_on_non_generating_simplicial_cone(self):
        plane = cone_from_generators(3, [(1, 0, 0), (0, 1, 1)])
        spec = make_diagonal_iso(plane, list(plane.generators),
                                 [OddPowerMap(3), IDENTITY_MAP])
        assert check_order_iso_sampled(spec, 200, seed=0).verdict == "PassedSampling"

    def test_roundtrip_identity_on_samples(self):
        rng = rng_for(2, "roundtrip")
        ic = interval_cone()
        pwl = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        specs = [identity_iso(orthant(3)), cube_iso(),
                 make_product_lift(ic, 1, pwl, identity_iso(orthant(1)))]
        for spec in specs:
            for _ in range(50):
                x = cone_point(spec.source_cone, rng)
                y = eval_iso(spec, x)
                back = invert_iso(spec, y)
                if spec.exact:
                    assert back == x
                else:
                    assert max(abs(float(a - b)) for a, b in zip(back, x)) < 1e-9


class TestSampledBattery:
    def test_valid_specs_pass(self):
        for spec in (identity_iso(orthant(2)), cube_iso(), cube_iso_3d()):
            assert check_order_iso_sampled(spec, 300, seed=0).verdict == "PassedSampling"

    def test_corrupted_matrix_detected_with_witness(self):
        forged = LinearIso([[1, 1], [0, 1]], orthant(2), orthant(2))
        report = check_order_iso_sampled(forged, 500, seed=0)
        assert report.verdict == "Violation"
        assert report.order_preserving_violations or report.inverse_violations
        # witnesses re-verify exactly
        o2 = orthant(2)
        for y1, y2 in report.inverse_violations[:3]:
            r1, r2 = forged.invert(y1), forged.invert(y2)
            assert o2.leq(y1, y2) and not o2.leq(r1, r2)


def _linear_candidate(rng, cone, kind):
    """A LinearIso on cone: the identity, a unimodular map onto the image
    cone, or a rational matrix near the identity mapping cone to itself,
    which in general is no order-isomorphism.  ``rational_bad_inverse``
    pairs that matrix with a wrong inverse, so the round trip fails and
    the battery records images with denominators."""
    d = cone.dim
    if kind == "identity":
        return identity_iso(cone)
    if kind == "unimodular":
        u = unimodular_matrix(rng, d)
        image = cone_from_generators(d, [mat_vec(u, g) for g in cone.generators])
        return make_linear_iso(u, cone, image)
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) + (i == j) for j in range(d)]
             for i in range(d)]
        if invert_matrix(m) is None:
            continue
        if kind == "rational":
            return LinearIso(m, cone, cone)
        inv = invert_matrix(m)
        wrong = [[c * Fraction(rng.randint(2, 5), 3) for c in row] for row in inv]
        return LinearIso(m, cone, cone, inverse=wrong)


def _rational(rng, bound=3):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def _scalar_map(rng, kind, fix_zero=True):
    """An AffineMap, a PiecewiseLinearMap or an OddPowerMap with rational
    data; fix_zero=False allows maps that move 0."""
    if kind == "affine":
        return AffineMap(Fraction(rng.randint(1, 6), rng.randint(1, 4)),
                         0 if fix_zero else _rational(rng))
    if kind == "pwl":
        xs = sorted({_rational(rng) for _ in range(rng.randint(2, 4))} | {Fraction(0)})
        if len(xs) < 2:
            xs.append(xs[-1] + 1)
        ys, y = [], Fraction(0)
        for _ in xs:
            ys.append(y)
            y += Fraction(rng.randint(1, 5), rng.randint(1, 3))
        shift = ys[xs.index(0)] if fix_zero else _rational(rng)
        return PiecewiseLinearMap(tuple(zip(xs, [v - shift for v in ys])))
    return OddPowerMap(rng.choice([3, 3, 5]))


def _simplicial(rng, dim):
    while True:
        frame = [tuple(Fraction(rng.randint(-2, 3)) for _ in range(dim)) for _ in range(dim)]
        if invert_matrix(frame) is not None:
            return cone_from_generators(dim, frame)


def _lift_cone(rng, dim):
    """A pointed cone with a disengaged ray: a random cone of dimension
    dim - 1 times a ray, moved by a unimodular map."""
    sub = random_pointed_cone(rng, dim - 1, rng.randint(dim - 1, dim + 2),
                              require_generating=True)
    gens = [g + (Fraction(0),) for g in sub.generators]
    gens.append((Fraction(0),) * (dim - 1) + (Fraction(1),))
    u = unimodular_matrix(rng, dim)
    return cone_from_generators(dim, [mat_vec(u, g) for g in gens])


ISO_KINDS = ["affine_rational", "diag_affine", "diag_affine_moved", "diag_pwl", "diag_odd",
             "forged_partial", "forged_full", "lift", "compose"]


def _iso_of_kind(rng, kind):
    """A spec of the given kind with rational data.  The ``_moved`` and
    ``forged`` kinds, and ``affine_rational`` around a rational matrix, are
    no order-isomorphisms, so their batteries reach violations."""
    dim = rng.randint(2, 4)
    if kind == "affine_rational":
        cone = random_pointed_cone(rng, dim, rng.randint(1, dim + 2))
        inner = _linear_candidate(rng, cone, rng.choice(["identity", "unimodular", "rational"]))
        return make_affine_iso(inner, [_rational(rng) for _ in range(dim)],
                               [_rational(rng) for _ in range(dim)])
    if kind.startswith("diag"):
        src, tgt = _simplicial(rng, dim), _simplicial(rng, dim)
        scale = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(dim)]
        frame = [vec_scale(c, g) for c, g in zip(scale, tgt.generators)]
        map_kind = {"diag_affine": "affine", "diag_affine_moved": "affine",
                    "diag_pwl": "pwl", "diag_odd": "odd"}[kind]
        moved = kind.endswith("moved")
        maps = [_scalar_map(rng, map_kind if rng.random() < 0.7 else "affine", not moved)
                for _ in range(dim)]
        return DiagonalIso(src, src.generators, maps, frame, cone_from_generators(dim, frame))
    if kind.startswith("forged"):
        cone = random_pointed_cone(rng, dim, rng.randint(dim, dim + 3), require_generating=True)
        gens = list(cone.generators)
        rng.shuffle(gens)
        frame = [gens[i] for i in independent_subset(gens)]
        if kind == "forged_partial":
            frame = frame[:rng.randint(1, dim - 1)]
        maps = [_scalar_map(rng, rng.choice(["pwl", "odd", "affine"])) for _ in frame]
        return DiagonalIso(cone, frame, maps, frame, cone)
    if kind == "lift":
        cone = _lift_cone(rng, dim)
        ray = next(r.ray_index for r in classify_engaged(cone) if not r.engaged)
        split = disengaged_split(cone, ray)
        sub = identity_iso(split.subcone)
        if len(split.subcone.generators) == split.subcone.dim:
            sub = make_diagonal_iso(split.subcone, list(split.subcone.generators),
                                    [_scalar_map(rng, rng.choice(["pwl", "odd", "affine"]))
                                     for _ in split.subcone.generators])
        return make_product_lift(cone, ray, _scalar_map(rng, rng.choice(["pwl", "odd", "affine"])),
                                 sub)
    inner = _iso_of_kind(rng, rng.choice(ISO_KINDS[:-1]))
    b = inner.target_base
    # The identity on the apexed target domain, so the parts chain.
    after = make_affine_iso(identity_iso(inner.target_cone), b, b)
    return compose_isos(compose_isos(inner, after), after)


def _all_fractions(report):
    pairs = report.order_preserving_violations + report.inverse_violations
    return all(type(c) is Fraction for pair in pairs for v in pair for c in v)


def _spec(spec_seed, kind):
    rng = rng_for(spec_seed, "iso-kind")
    if kind in ISO_KINDS:
        return _iso_of_kind(rng, kind)
    dim = rng.randint(1, 6)
    cone = random_pointed_cone(rng, dim, rng.randint(1, dim + 3))
    return _linear_candidate(rng, cone, kind)


LINEAR_KINDS = ["identity", "unimodular", "rational", "rational_bad_inverse"]


class TestSampledBatteryIntegerPath:
    """Every spec kind runs the battery on scaled integers.  The Fraction
    battery of tests/oracles.py, through the per-kind Fraction formulas,
    is the reference; the reports must be equal."""

    @settings(max_examples=60, deadline=None)
    @given(cone_seed=st.integers(0, 2**32 - 1),
           dim=st.integers(1, 6),
           kind=st.sampled_from(LINEAR_KINDS),
           n=st.integers(1, 700).filter(lambda k: k % 256),
           seed=st.integers(0, 2**20))
    def test_matches_fraction_path(self, cone_seed, dim, kind, n, seed):
        rng = rng_for(cone_seed, "int-battery")
        cone = random_pointed_cone(rng, dim, rng.randint(1, dim + 3))
        spec = _linear_candidate(rng, cone, kind)
        fast = check_order_iso_sampled(spec, n, seed)
        assert fast == battery_reference(spec, n, seed)
        assert _all_fractions(fast)

    @settings(max_examples=27, deadline=None)
    @given(spec_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(ISO_KINDS),
           n=st.integers(1, 700).filter(lambda k: k % 256),
           seed=st.integers(0, 2**20))
    def test_every_iso_kind_matches_fraction_path(self, spec_seed, kind, n, seed):
        spec = _spec(spec_seed, kind)
        fast = check_order_iso_sampled(spec, n, seed)
        assert fast == battery_reference(spec, n, seed)
        assert _all_fractions(fast)

    @settings(max_examples=20, deadline=None)
    @given(spec_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(ISO_KINDS + LINEAR_KINDS),
           n=st.integers(1, 700),
           seed=st.integers(0, 2**20))
    def test_limit_keeps_verdict_and_first_pairs(self, spec_seed, kind, n, seed):
        spec = _spec(spec_seed, kind)
        got = check_order_iso_sampled(spec, n, seed, limit=5)
        want = battery_reference(spec, n, seed)
        assert got.samples_run == n and got.verdict == want.verdict
        assert got.order_preserving_violations == want.order_preserving_violations[:5]
        assert got.inverse_violations == want.inverse_violations[:5]

    def test_limit_stops_drawing_once_both_lists_are_full(self, monkeypatch):
        # A shear of the square cone claimed onto the square cone itself:
        # images leave the target and preimages break the order, so both
        # lists fill within the first chunk of samples.
        sq = square_cone()
        spec = LinearIso([V(1, 1, 0), V(0, 1, 0), V(0, 0, 1)], sq, sq)
        chunks = []

        def counted(*key):
            chunks.append(key)
            return rng_for(*key)

        monkeypatch.setattr("coneorder.iso.rng_for", counted)
        got = check_order_iso_sampled(spec, 40 * 256, 1, limit=5)
        assert len(chunks) == 1
        full = check_order_iso_sampled(spec, 40 * 256, 1)
        assert len(chunks) == 41
        assert got == IsoReport(full.order_preserving_violations[:5],
                                full.inverse_violations[:5], 40 * 256, "Violation")

    def test_a_full_forward_list_skips_the_samples_it_cannot_use(self, monkeypatch):
        # A diagonal map over three of the square's four generators breaks
        # the order on 88 of 600 samples, and its round trips fail on one:
        # the forward list fills first and the inverse list never does, so
        # drawing runs to the end.  Past the fifth forward pair, incomparable
        # pairs are still drawn but no longer mapped.
        sq = square_cone()
        frame = [sq.generators[i] for i in (0, 1, 3)]
        doubling = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        spec = DiagonalIso(sq, frame, [doubling, OddPowerMap(3), doubling], frame, sq)
        want = battery_reference(spec, 600, 0)
        assert len(want.order_preserving_violations) > 5 > len(want.inverse_violations) > 0
        calls = []

        def counted(self, x):
            calls.append(x)
            return IsoSpec._eval_ints(self, x)

        monkeypatch.setattr(DiagonalIso, "_eval_ints", counted)
        got = check_order_iso_sampled(spec, 600, 0, limit=5)
        skipping = len(calls)
        calls.clear()
        assert check_order_iso_sampled(spec, 600, 0) == want
        assert skipping < 0.75 * len(calls)
        assert got == IsoReport(want.order_preserving_violations[:5], want.inverse_violations,
                                600, "Violation")
        # every limit keeps the first pairs, those found after a skip began too
        for limit in range(1, 7):
            got = check_order_iso_sampled(spec, 600, 0, limit=limit)
            assert got.order_preserving_violations == want.order_preserving_violations[:limit]
            assert got.inverse_violations == want.inverse_violations[:limit]

    def test_a_mode_0_preimage_outside_the_source_is_an_inverse_violation(self, monkeypatch):
        # The identity claimed with the inverse diag(3, 1, 1): the preimage
        # of a mode-0 image y2 can leave the square cone, and the chain's
        # first part then refuses it with OutOfDomain, an inverse violation
        # of the sample.  Mode 0 inverts right after its forward
        # evaluations, mode 2 right after its draws.
        sq = square_cone()
        eye = [V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]
        spec = compose_isos(identity_iso(sq), LinearIso(eye, sq, sq, inverse=[
            V(3, 0, 0), V(0, 1, 0), V(0, 0, 1)]))
        events = []

        def logged(kind, real):
            def call(*args):
                try:
                    out = real(*args)
                except OutOfDomain:
                    events.append((kind, True))
                    raise
                events.append((kind, False))
                return out
            return call

        monkeypatch.setattr("coneorder.iso.cone_point_ints",
                            logged("draw", iso_mod.cone_point_ints))
        spec._eval_ints = logged("eval", spec._eval_ints)
        spec._invert_ints = logged("invert", spec._invert_ints)
        got = check_order_iso_sampled(spec, 300, 0)
        assert got.verdict == "Violation" and not got.order_preserving_violations
        assert sum(1 for (k0, _), (k1, refused) in zip(events, events[1:])
                   if (k0, k1, refused) == ("eval", "invert", True)) == 16
        assert got == battery_reference(spec, 300, 0)

    def test_limit_below_one_is_refused(self):
        # The shear above violates within a few samples.  A limit of 0 would
        # stop after the first sample, often before any violation, and read
        # PassedSampling; a negative one would keep no pair.
        sq = square_cone()
        spec = LinearIso([V(1, 1, 0), V(0, 1, 0), V(0, 0, 1)], sq, sq)
        for seed in range(6):
            assert check_order_iso_sampled(spec, 3000, seed, limit=1).verdict == "Violation"
            for limit in (0, -1):
                with pytest.raises(ValueError, match="limit must be at least 1"):
                    check_order_iso_sampled(spec, 3000, seed, limit=limit)

    def test_every_kind_reaches_both_verdicts_and_both_regimes(self):
        seen = set()
        for kind in ISO_KINDS:
            for spec_seed in range(2):
                spec = _spec(spec_seed, kind)
                fast = check_order_iso_sampled(spec, 100, spec_seed)
                assert fast == battery_reference(spec, 100, spec_seed)
                seen.add((spec.exact, fast.verdict))
                if fast.verdict == "Violation":
                    seen.add((kind, "Violation"))
        assert seen >= {(True, "Violation"), (True, "PassedSampling"),
                        (False, "Violation"), (False, "PassedSampling"),
                        ("forged_partial", "Violation"), ("forged_full", "Violation"),
                        ("diag_affine_moved", "Violation"), ("compose", "Violation")}

    def test_rational_violations_match(self):
        # The map scales t by 3/2 but is given the inverse that scales it by
        # 2/3 and leaves a, b alone, so round trips fail and the inverse
        # violations are images with denominators.
        sq = square_cone()
        m = [V(1, Fraction(1, 3), 0), V(Fraction(-1, 5), 1, 0), V(0, 0, Fraction(3, 2))]
        wrong = [V(1, 0, 0), V(0, 1, 0), V(0, 0, Fraction(2, 3))]
        spec = LinearIso(m, sq, sq, inverse=wrong)
        fast = check_order_iso_sampled(spec, 600, 3)
        assert fast == battery_reference(spec, 600, 3)
        assert fast.verdict == "Violation" and _all_fractions(fast)
        assert any(c.denominator != 1 for pair in fast.inverse_violations
                   for v in pair for c in v)

    @pytest.mark.parametrize("cone", [orthant(1), cone_from_generators(3, [(1, 2, -1)])],
                             ids=["orthant1", "ray_in_R3"])
    def test_totally_ordered_sources_match_reference(self, cone):
        # Mode 1 finds no incomparable pair on a ray, so its tries are
        # skipped; the draws they make keep the later samples in step.
        g = cone.generators[0]
        spec = DiagonalIso(cone, [g], [AffineMap(1, Fraction(-1, 2))], [g], cone)
        fast = check_order_iso_sampled(spec, 700, 5)
        assert fast == battery_reference(spec, 700, 5)
        assert fast.verdict == "Violation"

    def test_pair_search_on_a_ray_makes_the_reference_draws(self):
        for cone in (orthant(1), cone_from_generators(3, [(1, 2, -1)]),
                     cone_from_generators(2, [])):
            fast, ref = rng_for(7, "pair"), rng_for(7, "pair")
            assert incomparable_pair_ints(cone, fast) is None
            assert incomparable_pair(cone, ref) is None
            assert fast.getstate() == ref.getstate()

    def test_odd_power_inverse_reduces_before_the_root(self):
        m = OddPowerMap(3)
        assert m._invert_ints(54, 2) == (3, 1)
        assert m._invert_ints(-16, 54) == (-2, 3)
        # Frame coordinates over (0, 2), (2, 0) carry the denominator 2, so
        # 27 reaches the inverse as 54/2.
        o2 = orthant(2)
        spec = make_diagonal_iso(o2, [V(0, 2), V(2, 0)], [OddPowerMap(3), OddPowerMap(3)])
        assert invert_iso(spec, V(54, 2)) == V(3, 1) == invert_reference(spec, V(54, 2))


def _outcome(fn, p):
    try:
        return fn(p)
    except OutOfDomain:
        return "OutOfDomain"


class TestEvalInvertAgainstFractionFormulas:
    @settings(max_examples=150, deadline=None)
    @given(spec_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(LINEAR_KINDS + ISO_KINDS),
           point_seed=st.integers(0, 2**20))
    def test_public_eval_and_invert(self, spec_seed, kind, point_seed):
        spec = _spec(spec_seed, kind)
        rng = rng_for(point_seed, "points")
        for _ in range(4):
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 5))
            x = vec_add(spec.source_base, vec_scale(scale, cone_point(spec.source_cone, rng)))
            y = vec_add(spec.target_base, vec_scale(scale, cone_point(spec.target_cone, rng)))
            wild_x = tuple(_rational(rng, 4) for _ in x)
            wild_y = tuple(_rational(rng, 4) for _ in y)
            for p in (x, wild_x):
                assert _outcome(spec.eval, p) == _outcome(lambda q: eval_reference(spec, q), p)
            for p in (y, wild_y):
                assert _outcome(spec.invert, p) == _outcome(lambda q: invert_reference(spec, q), p)


def _either(fn, *args):
    """fn's value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def _identity_configuration(spec, rng):
    """Arguments for every check-iso identity on spec: points in the source
    domain (sometimes outside it), positive multiples of distinct
    generators as directions (at times one negated, zeroed, plus a
    generator, or on another's ray), and rational scalars of both signs.
    Integral vectors come as int lists half the time, the way
    run_full_battery passes them, and any vector at times as strings."""
    src = spec.source_cone
    gens = src.generators

    def vec(v):
        if rng.random() < 0.05:
            return [str(c) for c in v]
        if rng.random() < 0.5 and all(c.denominator == 1 for c in v):
            return [int(c) for c in v]
        return tuple(v)

    def point(wild=0.1):
        if rng.random() < wild:
            return vec(tuple(_rational(rng, 6) for _ in range(src.dim)))
        scale = Fraction(rng.randint(1, 6), rng.choice([1, 1, 2, 3]))
        return vec(vec_add(spec.source_base, vec_scale(scale, cone_point(src, rng))))

    def directions(k):
        """Positive multiples of k distinct generators (as many as there
        are), one of them perturbed a third of the time."""
        out = [vec_scale(Fraction(rng.randint(1, 6), rng.choice([1, 1, 2, 3])), gens[i])
               for i in rng.sample(range(len(gens)), min(k, len(gens)))]
        if out and rng.random() < 0.35:
            i = rng.randrange(len(out))
            out[i] = rng.choice([
                vec_scale(-1, out[i]),
                vec_scale(0, out[i]),
                vec_add(out[i], gens[rng.randrange(len(gens))]),
                vec_scale(rng.randint(1, 3), out[rng.randrange(len(out))]),
            ])
        return [vec(v) for v in out]

    def scalars(k):
        return [rng.choice([0, 1, 2, 3, -1, Fraction(1, 2), Fraction(rng.randint(-5, 9),
                                                                     rng.randint(1, 4))])
                for _ in range(k)]

    x, (r, s), ss = point(), (directions(2) * 2)[:2], directions(rng.randint(0, 4))
    pts = [point(0.02) for _ in range(rng.randint(0, 4 * src.dim + 4))]
    if pts and rng.random() < 0.3:
        pts += pts[:rng.randint(1, len(pts))]
    # The fit has no tolerance; the draw stays so that later draws are unchanged.
    rng.choice([None, None, 0, Fraction(1, 10**6), Fraction(rng.randint(1, 40))])
    return {
        "halfline": (x, r, scalars(rng.randint(0, 5))),
        "parallelogram": (x, r, s),
        "additivity": (x, ss),
        "g_r": (r, [point() for _ in range(rng.randint(0, 3))], scalars(rng.randint(0, 5))),
        "homogeneous": ([point() for _ in range(rng.randint(0, 3))], scalars(rng.randint(0, 4))),
        "affine": (pts,),
        "extreme": directions(1)[0],
    }


def _fields_are_fractions(value):
    if isinstance(value, AffineFit):
        vecs = (value.base_point, value.base_image, *value.basis_points,
                *value.basis_images, *([value.witness] if value.witness else []))
        return (type(value.max_residual) is Fraction
                and all(type(c) is Fraction for v in vecs for c in v))
    if isinstance(value, list):
        return all(type(row.lam) is type(row.value) is Fraction
                   and all(type(c) is Fraction for c in row.basepoint) for row in value)
    return True


def _identity_outcomes(spec, cfg):
    """{identity: (library outcome, Fraction-formula outcome)} on one
    configuration."""
    src = spec.source_cone
    x, r, s = cfg["parallelogram"]
    v = as_vec(cfg["extreme"])
    return {
        "halfline": (_either(halfline_image_check, spec, *cfg["halfline"]),
                     _either(halfline_image_check_reference, spec, *cfg["halfline"])),
        "parallelogram": (_either(check_parallelogram, spec, x, r, s),
                          _either(check_additivity_reference, spec, x, [r, s])),
        "additivity": (_either(check_additivity, spec, *cfg["additivity"]),
                       _either(check_additivity_reference, spec, *cfg["additivity"])),
        "g_r": (_either(extract_g_r, spec, *cfg["g_r"]),
                _either(extract_g_r_reference, spec, *cfg["g_r"])),
        "homogeneous": (_either(check_positively_homogeneous, spec, *cfg["homogeneous"]),
                        _either(check_positively_homogeneous_reference, spec,
                                *cfg["homogeneous"])),
        "affine": (_either(check_affine_on, spec, *cfg["affine"]),
                   _either(check_affine_on_reference, spec, *cfg["affine"])),
        "extreme": (_either(lambda: _signed_extreme(src, scaled_ints(v)[0])),
                    _either(lambda: normalize_ray(signed_extreme_reference(src, v)))),
    }


IDENTITY_KINDS = LINEAR_KINDS + ISO_KINDS + ["forged_square"]


def _identity_spec(spec_seed, kind):
    """``_spec``, plus a forged diagonal over three of the four generators
    of the square cone, whose parallelogram and g_r identities fail."""
    if kind != "forged_square":
        return _spec(spec_seed, kind)
    rng = rng_for(spec_seed, "forged-square")
    sq = square_cone()
    frame = sq.generators[:3]
    maps = [_scalar_map(rng, rng.choice(["pwl", "odd"])) for _ in frame]
    return DiagonalIso(sq, frame, maps, frame, sq)


class TestIdentitiesAgainstFractionFormulas:
    """The scaled-integer identities against the Fraction formulas they
    replaced (tests/oracles.py): the same bool, GRow list, AffineFit
    fields (max_residual and witness included) and exception type, on
    every spec kind: linear, AffineIso with fractional bases, diagonal
    (inexact odd powers and forged partial frames included), product
    lift and ComposeIso."""

    @settings(max_examples=300, deadline=None)
    @given(spec_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(IDENTITY_KINDS),
           config_seed=st.integers(0, 2**20))
    def test_identities_match(self, spec_seed, kind, config_seed):
        spec = _identity_spec(spec_seed, kind)
        cfg = _identity_configuration(spec, rng_for(config_seed, "identities"))
        for name, (got, want) in _identity_outcomes(spec, cfg).items():
            assert got == want, name
            assert _fields_are_fractions(got), name

    def test_every_outcome_is_reached(self):
        seen = set()
        for kind in IDENTITY_KINDS:
            for spec_seed in range(3):
                spec = _identity_spec(spec_seed, kind)
                for config_seed in range(12):
                    cfg = _identity_configuration(spec, rng_for(config_seed, "identities"))
                    for name, (got, want) in _identity_outcomes(spec, cfg).items():
                        assert got == want, (kind, spec_seed, config_seed, name)
                        if isinstance(got, AffineFit):
                            got = ("fit", got.affine, got.witness is not None)
                        elif isinstance(got, list):
                            got = "rows" if got else "no rows"
                        seen.add((name, got))
        for name in ("halfline", "parallelogram", "additivity", "homogeneous"):
            assert {(name, True), (name, False), (name, OutOfDomain)} <= seen, name
        assert {("halfline", NotExtreme), ("parallelogram", SameRay),
                ("additivity", SameRay), ("additivity", NotExtreme),
                ("g_r", "rows"), ("g_r", NotColinear), ("g_r", OutOfDomain),
                ("g_r", NotExtreme), ("affine", ("fit", True, False)),
                ("affine", ("fit", False, True)), ("affine", DegenerateSpan),
                ("affine", OutOfDomain), ("extreme", NotExtreme)} <= seen


class TestLemmaIdentities:
    def test_parallelogram_identity_and_examples(self):
        ident = identity_iso(orthant(2))
        assert check_parallelogram(ident, V(1, 2), V(1, 0), V(0, 1))
        # cube maps: f(2,2)-f(1,2) = (7,0) = f(2,1)-f(1,1)
        spec = cube_iso()
        assert eval_iso(spec, V(2, 2)) == V(8, 2)
        assert eval_iso(spec, V(1, 2)) == V(1, 2)
        assert eval_iso(spec, V(2, 1)) == V(8, 1)
        assert eval_iso(spec, V(1, 1)) == V(1, 1)
        assert check_parallelogram(spec, V(1, 1), V(1, 0), V(0, 1))

    def test_parallelogram_product_lift(self):
        ic = interval_cone()
        pwl = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        spec = make_product_lift(ic, 1, pwl, identity_iso(orthant(1)))
        assert check_parallelogram(spec, V(0, 2), V(1, 1), V(-1, 1))

    def test_parallelogram_errors(self):
        spec = identity_iso(orthant(2))
        with pytest.raises(NotExtreme):
            check_parallelogram(spec, V(0, 0), V(1, 1), V(0, 1))
        with pytest.raises(SameRay):
            check_parallelogram(spec, V(0, 0), V(1, 0), V(2, 0))
        with pytest.raises(OutOfDomain):
            check_parallelogram(spec, V(-5, -5), V(1, 0), V(0, 1))

    def test_same_ray_names_the_first_pair(self):
        # s_0 ~ s_3 and s_1 ~ s_2: the (i, j) loop reaches (0, 3) first
        spec = identity_iso(orthant(3))
        e1, e2 = V(1, 0, 0), V(0, 1, 0)
        with pytest.raises(SameRay, match="s_0 and s_3 lie on the same ray"):
            check_additivity(spec, V(0, 0, 0), [e1, e2, vec_scale(2, e2), vec_scale(3, e1)])
        with pytest.raises(SameRay, match="s_0 and s_1 lie on the same ray"):
            check_parallelogram(spec, V(0, 0, 0), e2, vec_scale(Fraction(1, 2), e2))

    def test_not_extreme_wins_over_same_ray(self):
        spec = identity_iso(orthant(3))
        e1 = V(1, 0, 0)
        with pytest.raises(NotExtreme):
            check_additivity(spec, V(0, 0, 0), [e1, e1, V(1, 1, 0)])
        with pytest.raises(NotExtreme):
            check_parallelogram(spec, V(0, 0, 0), e1, V(0, 1, 1))

    @pytest.mark.parametrize("make_spec, base", [
        (lambda: identity_iso(orthant(2)), V(0, 0)),
        (cube_iso, V(0, 0)),
        (lambda: make_affine_iso(identity_iso(orthant(2)), V(1, -2), V(0, 3)), V(1, -2)),
        (lambda: make_product_lift(orthant(2), 0, OddPowerMap(3), identity_iso(orthant(1))),
         V(0, 0)),
    ])
    @pytest.mark.parametrize("identity", [
        # each configuration starts inside the domain and leaves it later
        lambda spec, b: check_additivity(spec, b, [V(-1, 0), V(0, 1)]),
        lambda spec, b: extract_g_r(spec, V(1, 0), [vec_add(b, V(0, 1))], [2, -2]),
        lambda spec, b: halfline_image_check(spec, b, V(1, 0), [1, -1]),
        lambda spec, b: check_positively_homogeneous(spec, [vec_add(b, V(1, 1))], [-1]),
    ], ids=["additivity", "extract_g_r", "halfline", "homogeneous"])
    def test_identities_refuse_points_off_the_domain(self, make_spec, base, identity):
        with pytest.raises(OutOfDomain):
            identity(make_spec(), base)

    def test_parallelogram_against_four_corner_formula(self):
        # check_parallelogram goes through two-vector additivity; the reference
        # evaluates the four corners directly.  Lift, odd-power and linear
        # specs; extreme, negated, non-extreme and same-ray directions; points
        # in and out of the domain.
        ic, o2, o3, sq = interval_cone(), orthant(2), orthant(3), square_cone()
        pwl = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        m = unimodular_matrix(rng_for(4, "par-diff"), 3)
        specs = [
            make_product_lift(ic, 1, pwl, identity_iso(orthant(1))),
            make_product_lift(o3, 0, OddPowerMap(3), identity_iso(o2)),
            cube_iso(),
            cube_iso_3d(),
            make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], sq, sq),
            # a forged odd-power map over three of the square's four rays: no
            # order-isomorphism, so the identity fails on some configurations
            DiagonalIso(sq, sq.generators[:3], [OddPowerMap(3)] * 3, sq.generators[:3], sq),
            make_linear_iso(m, o3, cone_from_generators(3, [mat_vec(m, g) for g in o3.generators])),
        ]
        rng = rng_for(31, "par-diff")
        outcomes = set()
        for trial in range(400):
            spec = specs[trial % len(specs)]
            src = spec.source_cone
            gens = src.generators
            x = vec_add(spec.source_base, cone_point(src, rng))
            if rng.random() < 0.2:
                x = vec_scale(-3, x)

            def direction():
                g = gens[rng.randrange(len(gens))]
                pick = rng.random()
                if pick < 0.15:
                    return vec_add(g, gens[rng.randrange(len(gens))])
                sign = -1 if pick < 0.3 else 1
                return vec_scale(sign * Fraction(rng.randint(1, 6), rng.randint(1, 3)), g)

            r, s = direction(), direction()
            try:
                want = parallelogram_reference(spec, x, r, s)
            except ConeOrderError as exc:
                want = type(exc)
            try:
                got = check_parallelogram(spec, x, r, s)
            except ConeOrderError as exc:
                got = type(exc)
            assert got == want, (trial, x, r, s)
            outcomes.add(want)
        assert {True, False, SameRay, NotExtreme, OutOfDomain} <= outcomes

    def test_parallelogram_with_negative_extremes(self):
        spec = cube_iso()
        assert check_parallelogram(spec, V(3, 3), V(-1, 0), V(0, -1))

    def test_additivity_examples(self):
        assert check_additivity(identity_iso(orthant(3)), V(0, 0, 0),
                                [V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)])
        assert check_additivity(cube_iso_3d(), V(0, 0, 0),
                                [V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)])
        # square cone with a valid linear iso, mixed extreme directions
        sq = square_cone()
        rot = make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], sq, sq)
        assert check_additivity(rot, V(0, 0, 3), [V(1, 1, 1), V(-1, 1, 1)])

    def test_additivity_over_1000_random_configurations(self):
        rng = rng_for(19, "addmany")
        sq = square_cone()
        rot = make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], sq, sq)
        gens = sq.generators
        for trial in range(250):
            x = vec_add(cone_point(sq, rng), V(0, 0, rng.randint(0, 2)))
            idx = rng.sample(range(4), rng.randint(2, 4))
            ss = [vec_scale(rng.randint(1, 3), gens[i]) for i in idx]
            assert check_additivity(rot, x, ss)
            assert check_parallelogram(rot, x, ss[0], ss[1])


class TestGrExtraction:
    def test_linear_gives_identity(self):
        rows = extract_g_r(identity_iso(orthant(2)), V(1, 0),
                           [V(0, 0), V(1, 3)], [Fraction(0), Fraction(1, 2), Fraction(2)])
        assert all(r.value == r.lam for r in rows)
        # negative scalars stay in the domain from a big enough basepoint
        rows = extract_g_r(identity_iso(orthant(2)), V(1, 0), [V(3, 3)], [Fraction(-2)])
        assert rows[0].value == -2

    def test_cube_map_gives_power(self):
        rows = extract_g_r(cube_iso(), V(1, 0), [V(0, 0)], [Fraction(2)])
        assert rows[0].value == 8

    def test_engaged_ray_basepoint_independence(self):
        sq = square_cone()
        rot = make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], sq, sq)
        rng = rng_for(4, "gr")
        basepoints = [cone_point(sq, rng) for _ in range(4)]
        lams = [Fraction(1, 2), Fraction(2), Fraction(3)]
        rows = extract_g_r(rot, V(1, 1, 1), basepoints, lams)
        by_lam = {}
        for row in rows:
            by_lam.setdefault(row.lam, set()).add(row.value)
        assert all(len(vals) == 1 for vals in by_lam.values())
        assert all(next(iter(vals)) == lam for lam, vals in by_lam.items())

    def test_g_additivity_on_engaged_rays(self):
        sq = square_cone()
        rot = make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], sq, sq)
        base = [V(0, 0, 4)]
        lams = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)]
        rows = {r.lam: r.value for r in extract_g_r(rot, V(-1, 1, 1), base, lams)}
        assert rows[Fraction(1, 3)] + rows[Fraction(1, 2)] == rows[Fraction(5, 6)]

    def test_not_colinear_flags_non_isomorphism(self):
        forged = LinearIso([[1, 1], [0, 1]], orthant(2), orthant(2))
        # forged map is linear, so colinearity still holds; corrupt harder:
        bad = DiagonalIso(square_cone(), square_cone().generators[:3],
                          (OddPowerMap(3), IDENTITY_MAP, IDENTITY_MAP),
                          square_cone().generators[:3], square_cone())
        with pytest.raises(NotColinear):
            extract_g_r(bad, V(1, 1, 1), [V(0, 0, 2), V(1, 1, 3)],
                        [Fraction(1, 2), Fraction(2)])


class TestAffineAndHomogeneity:
    def test_linear_is_affine_with_zero_residual(self):
        rng = rng_for(6, "aff")
        o3 = orthant(3)
        spec = make_linear_iso([[1, 1, 0], [0, 1, 0], [0, 0, 2]], o3,
                               cone_from_generators(3, [(1, 0, 0), (1, 1, 0), (0, 0, 2)]))
        pts = [cone_point(o3, rng) for _ in range(20)]
        fit = check_affine_on(spec, pts)
        assert fit.affine and fit.max_residual == 0

    def test_cube_points_on_an_axis_are_not_affine(self):
        spec = cube_iso()
        fit = check_affine_on(spec, [V(1, 0), V(2, 0), V(3, 0), V(1, 1), V(2, 1)])
        assert not fit.affine
        assert fit.max_residual > 0
        assert fit.witness is not None

    def test_degenerate_span(self):
        from coneorder.errors import DegenerateSpan

        # two distinct points span affine dimension 1 and leave nothing to
        # cross-validate: need at least k + 2 points
        with pytest.raises(DegenerateSpan):
            check_affine_on(identity_iso(orthant(2)), [V(1, 0), V(2, 0)])
        with pytest.raises(DegenerateSpan):
            check_affine_on(identity_iso(orthant(2)), [V(1, 0)])

    def test_low_dimensional_point_sets_are_fit_in_their_hull(self):
        # all points on one ray: affine dimension 1, three points suffice
        spec = identity_iso(orthant(3))
        fit = check_affine_on(spec, [V(1, 1, 0), V(2, 2, 0), V(3, 3, 0)])
        assert fit.affine

    def test_homogeneity(self):
        assert check_positively_homogeneous(identity_iso(orthant(2)),
                                            [V(1, 0), V(2, 3)], [Fraction(2), Fraction(1, 2)])
        assert not check_positively_homogeneous(cube_iso(), [V(1, 0)], [Fraction(2)])
        scaled = make_diagonal_iso(orthant(2), [V(0, 1), V(1, 0)],
                                   [AffineMap(Fraction(2)), AffineMap(Fraction(3))])
        assert check_positively_homogeneous(scaled, [V(1, 1), V(2, 5)],
                                            [Fraction(3), Fraction(1, 7)])

    def test_homogeneous_passing_specs_are_linear_through_origin(self):
        # positively homogeneous specs that pass the sampled battery fit an
        # affine map with zero intercept on cone samples including the apex
        sq = square_cone()
        rot = make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], sq, sq)
        scaled = make_diagonal_iso(orthant(2), [V(0, 1), V(1, 0)],
                                   [AffineMap(Fraction(2)), AffineMap(Fraction(5, 3))])
        for spec in (rot, scaled, identity_iso(orthant(3))):
            rng = rng_for(8, "thm53", spec.source_cone.dim)
            samples = [cone_point(spec.source_cone, rng) for _ in range(6)]
            scalars = [Fraction(2), Fraction(1, 2), Fraction(7, 5)]
            assert check_order_iso_sampled(spec, 300, seed=0).verdict == "PassedSampling"
            assert check_positively_homogeneous(spec, samples, scalars)
            zero = V(*([0] * spec.source_cone.dim))
            pts = [zero] + [cone_point(spec.source_cone, rng) for _ in range(15)]
            fit = check_affine_on(spec, pts)
            assert fit.affine and fit.max_residual == 0
            assert fit.base_point == zero and fit.base_image == V(*([0] * spec.target_cone.dim))


class TestHalflineImages:
    def test_examples(self):
        lams = [Fraction(0), Fraction(1), Fraction(2), Fraction(5)]
        assert halfline_image_check(identity_iso(orthant(2)), V(0, 0), V(1, 0), lams)
        assert halfline_image_check(cube_iso(), V(0, 0), V(0, 1), lams)
        assert halfline_image_check(cube_iso(), V(0, 0), V(1, 0), lams)

    def test_corrupted_map_fails(self):
        forged = LinearIso([[1, 1], [0, 1]], orthant(2), orthant(2))
        # images of the e2 half-line from a generic apex stay a half-line for
        # a linear map, so corrupt with a genuinely non-affine forged spec
        bad = DiagonalIso(square_cone(), square_cone().generators[:3],
                          (OddPowerMap(3), IDENTITY_MAP, IDENTITY_MAP),
                          square_cone().generators[:3], square_cone())
        lams = [Fraction(0), Fraction(1), Fraction(2)]
        assert not halfline_image_check(bad, V(0, 0, 2), V(1, 1, 1), lams)

    def test_not_extreme_error(self):
        with pytest.raises(NotExtreme):
            halfline_image_check(identity_iso(orthant(2)), V(0, 0), V(1, 1), [Fraction(1)])


class TestStoppingOrder:
    """An identity stops at its first failure, so a later point where the
    spec is undefined is never evaluated: run_full_battery notes the first
    exception a check raises, so this order is part of its report."""

    P, R = V(1, 1), V(1, 0)

    @pytest.mark.parametrize("shift", [V(0, 1), V(Fraction(-1, 2), 0)], ids=["bend", "stall"])
    @pytest.mark.parametrize("lams", [[0, Fraction(1, 2), 1, 2], [0, 1, Fraction(1, 2), 2]])
    def test_halfline_fails_before_an_undefined_point(self, shift, lams):
        # the image of P + R/2 leaves the half-line, off its ray or back to
        # f(P); the spec is undefined at P + 2R
        spec = HalflineKink(orthant(2), self.P, self.R, Fraction(1, 2), shift)
        with pytest.raises(OutOfDomain):
            spec.eval(vec_add(self.P, vec_scale(2, self.R)))
        assert halfline_image_check(spec, self.P, self.R, [0, 1]) is True
        assert halfline_image_check(spec, self.P, self.R, [Fraction(l) for l in lams]) is False

    def test_not_colinear_wins_over_a_later_undefined_point(self):
        # f(P + R) = f(P): NotColinear, raised before any lam is evaluated
        spec = HalflineKink(orthant(2), self.P, self.R, 1, vec_scale(-1, self.R))
        with pytest.raises(NotColinear, match=r"^f\(x \+ r\) equals f\(x\)"):
            extract_g_r(spec, self.R, [self.P], [Fraction(2)])



def _vector_entries():
    """Every public entry that takes a caller's vector, as a function of the
    vector v put into one of its vector arguments, over orthant(3)."""
    c = orthant(3)
    f = identity_iso(c)
    apexed = make_affine_iso(identity_iso(c), (1, 1, 1), (2, 2, 2))
    g, e1, e2, u = V(1, 2, 3), V(1, 0, 0), V(0, 1, 0), V(1, 1, 1)
    lams = [Fraction(1), Fraction(2)]
    return {
        "contains": lambda v: c.contains(v),
        "leq-x": lambda v: c.leq(v, g),
        "leq-y": lambda v: c.leq(g, v),
        "tight_facets": lambda v: c.tight_facets(v),
        "is_extreme_vector": lambda v: c.is_extreme_vector(v),
        "caratheodory_decompose": lambda v: c.caratheodory_decompose(v),
        "interval_sample-x": lambda v: interval_sample(c, v, g, 2),
        "interval_sample-y": lambda v: interval_sample(c, g, v, 2),
        "is_totally_ordered": lambda v: is_totally_ordered(c, [g, v]),
        "extreme_halfline_check-apex": lambda v: extreme_halfline_check(c, v, e1),
        "extreme_halfline_check-direction": lambda v: extreme_halfline_check(c, g, v),
        "order_unit_norm-u": lambda v: order_unit_norm(c, v, g),
        "order_unit_norm-x": lambda v: order_unit_norm(c, u, v),
        "supremum": lambda v: supremum(c, [g, v]),
        "infimum": lambda v: infimum(c, [g, v]),
        "in_source": lambda v: f.in_source(v),
        "in_target": lambda v: f.in_target(v),
        "eval": lambda v: f.eval(v),
        "invert": lambda v: f.invert(v),
        "apexed-in_source": lambda v: apexed.in_source(v),
        "apexed-in_target": lambda v: apexed.in_target(v),
        "apexed-eval": lambda v: apexed.eval(v),
        "apexed-invert": lambda v: apexed.invert(v),
        "halfline-apex": lambda v: halfline_image_check(f, v, e1, lams),
        "halfline-r": lambda v: halfline_image_check(f, g, v, lams),
        "parallelogram-x": lambda v: check_parallelogram(f, v, e1, e2),
        "parallelogram-s": lambda v: check_parallelogram(f, g, e1, v),
        "additivity-x": lambda v: check_additivity(f, v, [e1]),
        "additivity-s": lambda v: check_additivity(f, g, [e1, v]),
        "g_r-r": lambda v: extract_g_r(f, v, [g], lams),
        "g_r-basepoint": lambda v: extract_g_r(f, e1, [v], lams),
        "homogeneity": lambda v: check_positively_homogeneous(f, [v], lams),
        "affine_fit": lambda v: check_affine_on(f, [g, e1, e2, u, V(0, 0, 1), v]),
    }


_VECTOR_ENTRIES = _vector_entries()


class TestWrongLengthVectors:
    """PolyhedralCone._in_cone zips each facet row with its vector unchecked,
    so every public entry that takes a caller's vector refuses a wrong
    length itself, in each of its vector arguments."""

    @pytest.mark.parametrize("name", list(_VECTOR_ENTRIES))
    @pytest.mark.parametrize("v", [V(1, 2), V(1, 2, 3, 4)], ids=["short", "long"])
    def test_refused(self, name, v):
        with pytest.raises(DimensionMismatch):
            _VECTOR_ENTRIES[name](v)

    @pytest.mark.parametrize("name", list(_VECTOR_ENTRIES))
    def test_right_length_gets_past_the_check(self, name):
        # the entry is well formed: a vector of length 3 meets no
        # DimensionMismatch, though it may be refused for what it is
        try:
            _VECTOR_ENTRIES[name](V(1, 1, 2))
        except DimensionMismatch:
            pytest.fail(f"{name} refused a vector of the right length")
        except ConeOrderError:
            pass
