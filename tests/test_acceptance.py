"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Counts, tolerances, and time budgets are pinned here and
are not calibration knobs.
"""
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from coneorder.cli import main
from coneorder.cones import (
    cone_from_facets,
    cone_from_generators,
    interval_cone,
    orthant,
    square_cone,
)
from coneorder.errors import NotSimplicial, RayIsEngaged
from coneorder.iso import (
    AffineMap,
    DiagonalIso,
    IDENTITY_MAP,
    OddPowerMap,
    PiecewiseLinearMap,
    check_additivity,
    check_affine_on,
    check_order_iso_sampled,
    check_parallelogram,
    compose_isos,
    eval_iso,
    extract_g_r,
    identity_iso,
    invert_iso,
    make_diagonal_iso,
    make_linear_iso,
    make_product_lift,
)
from coneorder.linalg import (
    as_vec,
    independent_subset,
    mat_vec,
    vec_add,
    vec_scale,
)
from coneorder.order import (
    classify_engaged,
    hypothesis_check,
    infimum,
    supremum,
)
from coneorder.psd import (
    CONSISTENT,
    INCONSISTENT,
    NOT_UPPER_BOUND,
    conjugation_iso,
    engagement_witness,
    identity_sup_check,
    infsup_approx,
    psd_leq,
)
from coneorder.sampling import cone_point, rng_for, unimodular_matrix

from oracles import bound_vertices_bruteforce, eigh_oracle, normalize_ray, random_pointed_cone

PWL_DOUBLING = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))


def V(*xs):
    return as_vec(xs)


def polygon_cone(ts):
    """Cone over an inscribed polygon with rational vertices, via the
    tangent half-angle parametrization of the circle."""
    gens = []
    for t in ts:
        t = Fraction(t)
        d = 1 + t * t
        gens.append(((1 - t * t) / d, 2 * t / d, Fraction(1)))
    return cone_from_generators(3, gens)


POLYGON_PARAMS = {
    4: (0, 1, -1, 3),
    5: (0, 1, -1, 3, -3),
    6: (0, 1, -1, 3, -3, Fraction(1, 3)),
    7: (0, 1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3)),
    8: (0, 1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3), 7),
}


def product_cone(a, b):
    gens = [tuple(g) + (Fraction(0),) * b.dim for g in a.generators]
    gens += [(Fraction(0),) * a.dim + tuple(g) for g in b.generators]
    return cone_from_generators(a.dim + b.dim, gens)


def cone_automorphism_candidates(cone, rng):
    """A couple of verified linear isos out of the cone (identity plus a
    unimodular image), used as the 'passing' family."""
    specs = [identity_iso(cone)]
    u = unimodular_matrix(rng, cone.dim)
    image = cone_from_generators(cone.dim, [mat_vec(u, g) for g in cone.generators])
    specs.append(make_linear_iso(u, cone, image))
    return specs


def forged_nonlinear(cone, rng):
    """Counterfeit nonlinear spec on an all-engaged cone: a diagonal map over
    an independent generator subset, which is an order-iso of the simplicial
    subcone but not of the full cone."""
    idx = independent_subset(cone.generators)
    frame = tuple(cone.generators[i] for i in idx)
    maps = []
    for k in range(len(frame)):
        maps.append(PWL_DOUBLING if k % 2 == 0 else OddPowerMap(3))
    return DiagonalIso(cone, frame, tuple(maps), frame, cone)


def engaged_span_points(cone, base, n, seed):
    engaged_gens = [r.generator for r in classify_engaged(cone) if r.engaged]
    rng = rng_for(seed, "span")
    pts = []
    for _ in range(n):
        p = list(base)
        for g in engaged_gens:
            c = rng.randrange(5)
            if c:
                for i, gi in enumerate(g):
                    p[i] += c * gi
        pts.append(tuple(p))
    return pts


def report(name, elapsed, detail=""):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_engagement_classification():
    t0 = time.time()
    sq = square_cone()
    assert [r.engaged for r in classify_engaged(sq)] == [True] * 4
    assert hypothesis_check(sq).holds
    for n in range(2, 7):
        reports = classify_engaged(orthant(n))
        assert [r.engaged for r in reports] == [False] * n
    assert [r.engaged for r in classify_engaged(interval_cone())] == [False, False]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("1 engagement classification", elapsed,
           "square engaged, orthants 2..6 and |a|<=t disengaged")


def _criterion_2_iso_family():
    rng = rng_for(0, "c2cones")
    cones = [random_pointed_cone(rng, rng.randint(2, 5), rng.randint(2, 6))
             for _ in range(10)]
    specs = []
    for cone in cones:
        crng = rng_for(0, "c2specs", len(specs))
        linear = cone_automorphism_candidates(cone, crng)
        specs.extend(linear)
        specs.append(compose_isos(linear[0], linear[1]))
        gens = cone.generators
        if cone.pointed and len(gens) == cone.dim and len(gens) >= 1:
            maps = []
            for k in range(len(gens)):
                maps.append([OddPowerMap(3), PWL_DOUBLING, AffineMap(Fraction(2))][k % 3])
            specs.append(make_diagonal_iso(cone, list(gens), maps))
        if cone.generating:
            dis = [r.ray_index for r in classify_engaged(cone) if not r.engaged]
            if dis:
                from coneorder.order import disengaged_split

                split = disengaged_split(cone, dis[0])
                specs.append(make_product_lift(cone, dis[0], PWL_DOUBLING,
                                               identity_iso(split.subcone)))
    return specs[:50] if len(specs) >= 50 else specs


def test_criterion_2_theorem_affine_on_engaged_span():
    t0 = time.time()
    specs = _criterion_2_iso_family()
    # top up with compositions if the random draw came in under 50
    i = 0
    while len(specs) < 50:
        base = specs[i % len(specs)]
        specs.append(compose_isos(identity_iso(base.source_cone), base))
        i += 1
    kinds = {type(s).__name__ for s in specs}
    assert {"LinearIso", "DiagonalIso", "ProductLiftIso", "ComposeIso"} <= kinds
    checked = 0
    for k, spec in enumerate(specs):
        pts = engaged_span_points(spec.source_cone, spec.source_base, 1000, seed=k)
        fit = check_affine_on(spec, pts)
        assert fit.affine, f"spec {k} not affine on the engaged span"
        if spec.exact:
            assert fit.max_residual == 0
        else:
            assert fit.max_residual <= Fraction(1, 10**9)
        checked += 1
    elapsed = time.time() - t0
    assert checked == 50
    assert elapsed < 20.0
    report("2 affine on engaged span", elapsed, f"{checked} isos x 1000 points")


def _criterion_3_cones():
    cones = [square_cone()]
    for m in range(4, 9):
        cones.append(polygon_cone(POLYGON_PARAMS[m]))
    cones.append(product_cone(square_cone(), polygon_cone(POLYGON_PARAMS[4])))
    cones.append(product_cone(polygon_cone(POLYGON_PARAMS[5]), square_cone()))
    cones.append(product_cone(square_cone(), square_cone()))
    cones.append(product_cone(polygon_cone(POLYGON_PARAMS[6]),
                              polygon_cone(POLYGON_PARAMS[4])))
    return cones[:10]


def test_criterion_3_linearity_theorem_desk_test():
    t0 = time.time()
    cones = _criterion_3_cones()
    assert len(cones) == 10
    passed_affine = 0
    nonlinear_refuted = 0
    refused_constructions = 0
    for ci, cone in enumerate(cones):
        assert hypothesis_check(cone).holds, f"cone {ci} must satisfy the hypothesis"
        rng = rng_for(0, "c3", ci)
        candidates = cone_automorphism_candidates(cone, rng)
        forged = [forged_nonlinear(cone, rng)]
        with pytest.raises(NotSimplicial):
            make_diagonal_iso(cone, list(cone.generators),
                              [IDENTITY_MAP] * len(cone.generators))
        with pytest.raises(RayIsEngaged):
            make_product_lift(cone, 0, OddPowerMap(3), identity_iso(orthant(cone.dim - 1)))
        refused_constructions += 2
        for spec in candidates:
            rep = check_order_iso_sampled(spec, 10000, seed=ci)
            assert rep.verdict == "PassedSampling"
            pts = []
            prng = rng_for(1, "c3aff", ci)
            while len(pts) < 3 * cone.dim + 10:
                p = cone_point(cone, prng)
                if p not in pts:
                    pts.append(p)
            fit = check_affine_on(spec, pts)
            assert fit.affine and fit.max_residual == 0
            passed_affine += 1
        for spec in forged:
            rep = check_order_iso_sampled(spec, 10000, seed=ci, limit=1)
            assert rep.verdict == "Violation", f"forged spec on cone {ci} escaped"
            assert rep.order_preserving_violations or rep.inverse_violations
            nonlinear_refuted += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("3 linearity desk test", elapsed,
           f"{passed_affine} passing specs affine, {nonlinear_refuted} forged refuted, "
           f"{refused_constructions} nonlinear constructions refused")


def test_criterion_4_counterexample_on_disengaged_cones():
    t0 = time.time()
    test_set = [orthant(2), orthant(3), interval_cone()]
    built = 0
    for cone in test_set:
        dis = [r.ray_index for r in classify_engaged(cone) if not r.engaged]
        assert dis, "test set cones must have a disengaged ray"
        from coneorder.order import disengaged_split

        split = disengaged_split(cone, dis[0])
        spec = make_product_lift(cone, dis[0], PWL_DOUBLING, identity_iso(split.subcone))
        assert spec.exact
        rep = check_order_iso_sampled(spec, 10000, seed=0)
        assert rep.verdict == "PassedSampling"
        assert not rep.order_preserving_violations and not rep.inverse_violations
        prng = rng_for(2, "c4")
        pts = []
        while len(pts) < 3 * cone.dim + 10:
            p = cone_point(cone, prng, coeff_max=3)
            if p not in pts:
                pts.append(p)
        fit = check_affine_on(spec, pts)
        assert not fit.affine and fit.max_residual > 0
        built += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("4 counterexample existence", elapsed,
           f"{built} nonlinear product lifts pass 10^4-pair battery, NotAffine")


def test_criterion_5_parallelogram_additivity_identities():
    t0 = time.time()
    sq = square_cone()
    rot = make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], sq, sq)
    cube3 = make_diagonal_iso(orthant(3), list(orthant(3).generators), [OddPowerMap(3)] * 3)
    lift = make_product_lift(interval_cone(), 1, PWL_DOUBLING, identity_iso(orthant(1)))
    iso_family = [rot, cube3, lift]
    for si, spec in enumerate(iso_family):
        src = spec.source_cone
        gens = src.generators
        rng = rng_for(3, "c5", si)
        for _ in range(1000):
            x = cone_point(src, rng)
            i, j = rng.sample(range(len(gens)), 2)
            r = vec_scale(rng.randint(1, 3), gens[i])
            s = vec_scale(rng.randint(1, 3), gens[j])
            assert check_parallelogram(spec, x, r, s)
            count = rng.randint(2, min(4, len(gens)))
            ss = [vec_scale(rng.randint(1, 3), gens[k])
                  for k in rng.sample(range(len(gens)), count)]
            assert check_additivity(spec, x, ss)
    # g(lam) = lam exactly for linear isos, any ray
    lams = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)]
    rng = rng_for(4, "c5lin")
    for r in sq.generators:
        basepoints = [cone_point(sq, rng) for _ in range(5)]
        for row in extract_g_r(rot, r, basepoints, lams):
            assert row.value == row.lam
    # basepoint independence on engaged rays of every passing iso with them
    for r in sq.generators:
        rows = extract_g_r(rot, r, [cone_point(sq, rng) for _ in range(6)], lams)
        by_lam = {}
        for row in rows:
            by_lam.setdefault(row.lam, set()).add(row.value)
        assert all(len(v) == 1 for v in by_lam.values())
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("5 parallelogram/additivity/scalar identities", elapsed,
           "1000 parallelogram+additivity configs per iso, g_r pinned")


def test_criterion_6_lattice_oracle():
    t0 = time.time()
    rng = rng_for(5, "c6")
    agree = 0
    for trial in range(500):
        dim = rng.randint(2, 3)
        cone = random_pointed_cone(rng, dim, rng.randint(2, 5))
        pts = [cone_point(cone, rng) for _ in range(rng.randint(1, 3))]
        up = rng.random() < 0.5
        verts = bound_vertices_bruteforce(cone, pts, upper=up)
        res = supremum(cone, pts) if up else infimum(cone, pts)
        if len(verts) == 1:
            assert res.exists and res.value == verts[0]
        elif not verts:
            assert res.outcome == "no_upper_bound"
        else:
            assert res.outcome == "no_least_upper_bound"
            assert list(res.witnesses) == verts[:2]
        agree += 1
    sq = square_cone()
    assert supremum(sq, [V(1, 1, 1), V(-1, -1, 1)]).value == V(0, 0, 2)
    res = supremum(sq, [V(1, 0, 1), V(-1, 0, 1)])
    assert res.outcome == "no_least_upper_bound"
    assert set(res.witnesses) == {V(0, 1, 2), V(0, -1, 2)}
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("6 lattice oracle", elapsed, f"{agree} random instances match brute force")


def test_criterion_7_psd_suite():
    t0 = time.time()
    rng = np.random.default_rng(0)
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        assert engagement_witness(x).residual <= 1e-10
    inconsistent = 0
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n))
        b = np.eye(n) + g @ g.T
        v = identity_sup_check(n, b, m=40, seed=trial)
        if v.verdict == INCONSISTENT:
            inconsistent += 1
        assert v.verdict == CONSISTENT
    assert inconsistent == 0
    flagged = identity_sup_check(2, np.diag([1.0, 0.5]), m=200, seed=0)
    assert flagged.verdict == NOT_UPPER_BOUND and flagged.witness is not None
    t_conj = conjugation_iso(np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [0.0, 0.25, 1.0]]))
    mismatches = 0
    for trial in range(10000):
        a = rng.normal(size=(3, 3))
        a = (a + a.T) / 2
        b = rng.normal(size=(3, 3))
        b = (b + b.T) / 2
        lam = float(eigh_oracle(b - a)[0][0])
        if abs(lam) < 1e-6:
            continue  # stay off the tolerance boundary
        direct = lam >= 0
        conjugated = psd_leq(t_conj.apply(a), t_conj.apply(b), 1e-9)
        if direct != conjugated:
            mismatches += 1
    assert mismatches == 0
    for trial in range(10):
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n))
        rows = infsup_approx(g @ g.T, k_max=12, seed=trial)
        ds = [r.d_k for r in rows]
        es = [r.e_k for r in rows]
        assert all(x >= y - 1e-9 for x, y in zip(ds, ds[1:]))
        assert all(x >= y - 1e-9 for x, y in zip(es, es[1:]))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("7 psd suite", elapsed,
           "10^3 witnesses, 10^3 supchecks, 10^4 conjugation pairs, monotone tables")


def test_criterion_8_exactness_and_roundtrips(tmp_path, capsys):
    t0 = time.time()
    rng = rng_for(6, "c8")
    for trial in range(200):
        dim = rng.randint(2, 5)
        cone = random_pointed_cone(rng, dim, rng.randint(2, 10))
        again = cone_from_facets(dim, cone.facets)
        assert again.generators == cone.generators and again.facets == cone.facets
        back = cone_from_generators(dim, cone.generators)
        assert back == cone
    exact_isos = [
        identity_iso(square_cone()),
        make_linear_iso([[0, -1, 0], [1, 0, 0], [0, 0, 1]], square_cone(), square_cone()),
        make_product_lift(interval_cone(), 1, PWL_DOUBLING, identity_iso(orthant(1))),
        make_diagonal_iso(orthant(2), [(0, 1), (1, 0)],
                          [AffineMap(Fraction(3)), PWL_DOUBLING]),
    ]
    for si, spec in enumerate(exact_isos):
        assert spec.exact
        prng = rng_for(7, "c8iso", si)
        for _ in range(1000):
            x = cone_point(spec.source_cone, prng)
            assert invert_iso(spec, eval_iso(spec, x)) == x
    cone_file = tmp_path / "square.json"
    cone_file.write_text(json.dumps(
        {"dim": 3, "generators": [["1", "1", "1"], ["-1", "1", "1"],
                                  ["1", "-1", "1"], ["-1", "-1", "1"]]}))
    iso_file = tmp_path / "rot.json"
    iso_file.write_text(json.dumps(
        {"linear": {"matrix": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
                    "source": {"dim": 3, "generators": [["1", "1", "1"], ["-1", "1", "1"],
                                                        ["1", "-1", "1"], ["-1", "-1", "1"]]},
                    "target": {"dim": 3, "generators": [["1", "1", "1"], ["-1", "1", "1"],
                                                        ["1", "-1", "1"], ["-1", "-1", "1"]]}}}))
    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        code = main(["check-iso", str(cone_file), str(iso_file),
                     "--samples", "500", "--seed", "11", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    elapsed = time.time() - t0
    assert elapsed < 20.0
    report("8 exactness and roundtrips", elapsed,
           "200 cone roundtrips, 4x1000 invert-eval identities, byte-identical reports")
