from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coneorder.cones import cone_from_generators, interval_cone, orthant, square_cone
from coneorder.errors import (
    ConeOrderError,
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
    AffineMap,
    DiagonalIso,
    IDENTITY_MAP,
    LinearIso,
    OddPowerMap,
    PiecewiseLinearMap,
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
)
from coneorder.linalg import (
    as_vec,
    independent_subset,
    invert_matrix,
    mat_vec,
    vec_add,
    vec_scale,
)
from coneorder.order import classify_engaged, disengaged_split
from coneorder.sampling import (
    cone_point,
    incomparable_pair,
    incomparable_pair_ints,
    random_pointed_cone,
    rng_for,
    unimodular_matrix,
)

from oracles import battery_reference, eval_reference, invert_reference, parallelogram_reference


def V(*xs):
    return as_vec(xs)


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


class TestProductLift:
    def test_orthant_lift_nonlinear(self):
        spec = make_product_lift(orthant(3), 0, OddPowerMap(3), identity_iso(orthant(2)))
        report = check_order_iso_sampled(spec, 400, seed=0)
        assert report.verdict == "PassedSampling"
        pts = [vec_add(cone_point(orthant(3), rng_for(1, "plaff", t)), V(0, 0, 0))
               for t in range(20)]
        fit = check_affine_on(spec, pts, tolerance=Fraction(1, 10**9))
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

    def test_engaged_ray_refused(self):
        with pytest.raises(RayIsEngaged):
            make_product_lift(square_cone(), 0, OddPowerMap(3), identity_iso(orthant(2)))

    def test_sub_iso_domain_mismatch(self):
        with pytest.raises(NotConeMap):
            make_product_lift(orthant(3), 0, OddPowerMap(3), identity_iso(orthant(1)))

    def test_dimension_one_refused(self):
        with pytest.raises(DimensionMismatch, match="dimension >= 2, got 1$"):
            make_product_lift(orthant(1), 0, OddPowerMap(3), identity_iso(orthant(1)))


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
           seed=st.integers(0, 2**20),
           stop_early=st.booleans())
    def test_matches_fraction_path(self, cone_seed, dim, kind, n, seed, stop_early):
        rng = rng_for(cone_seed, "int-battery")
        cone = random_pointed_cone(rng, dim, rng.randint(1, dim + 3))
        spec = _linear_candidate(rng, cone, kind)
        fast = check_order_iso_sampled(spec, n, seed, stop_early=stop_early)
        assert fast == battery_reference(spec, n, seed, stop_early)
        assert _all_fractions(fast)

    @settings(max_examples=27, deadline=None)
    @given(spec_seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(ISO_KINDS),
           n=st.integers(1, 700).filter(lambda k: k % 256),
           seed=st.integers(0, 2**20),
           stop_early=st.booleans())
    def test_every_iso_kind_matches_fraction_path(self, spec_seed, kind, n, seed, stop_early):
        spec = _spec(spec_seed, kind)
        fast = check_order_iso_sampled(spec, n, seed, stop_early=stop_early)
        assert fast == battery_reference(spec, n, seed, stop_early)
        assert _all_fractions(fast)

    def test_every_kind_reaches_both_verdicts_and_both_regimes(self):
        seen = set()
        for kind in ISO_KINDS:
            for spec_seed in range(2):
                spec = _spec(spec_seed, kind)
                for stop_early in (False, True):
                    fast = check_order_iso_sampled(spec, 100, spec_seed, stop_early=stop_early)
                    assert fast == battery_reference(spec, 100, spec_seed, stop_early)
                    seen.add((spec.exact, fast.verdict))
                    if fast.verdict == "Violation" and not stop_early:
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
        for stop_early in (False, True):
            fast = check_order_iso_sampled(spec, 600, 3, stop_early=stop_early)
            assert fast == battery_reference(spec, 600, 3, stop_early)
            assert fast.verdict == "Violation" and _all_fractions(fast)
            if not stop_early:
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
            assert fit.predict(zero) == V(*([0] * spec.target_cone.dim))


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
