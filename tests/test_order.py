import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import coneorder.linalg as linalg_mod
import coneorder.order as order_mod
from coneorder.cli import main
from coneorder.cones import (
    PolyhedralCone,
    cone_from_generators,
    interval_cone,
    orthant,
    square_cone,
)
from coneorder.errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotComparable,
    NotGenerating,
    NotOrderUnit,
    NotPointed,
    RayIsEngaged,
    UndefinedLattice,
)
from coneorder.linalg import (
    as_vec,
    independent_subset,
    mat_vec,
    unit_vec,
    vec_add,
    vec_dot,
    vec_neg,
    vec_scale,
    zero_vec,
)
from coneorder.iso import IDENTITY_MAP, identity_iso, make_product_lift
from coneorder.lp import OPTIMAL, solve_lp
from coneorder.order import (
    CombinationCertificate,
    SeparatingFunctional,
    classify_engaged,
    combine_infsup,
    disengaged_split,
    eval_infsup,
    extreme_halfline_check,
    hypothesis_check,
    inf_expr,
    infimum,
    infsup_linearity_check,
    interval_sample,
    is_totally_ordered,
    leaf,
    order_unit_norm,
    sup_expr,
    supremum,
)
from coneorder.sampling import (
    cone_point,
    rng_for,
    unimodular_matrix,
)

from oracles import (
    bound_certificate,
    bound_vertices_bruteforce,
    classify_engaged_reference,
    disengaged_split_reference,
    double_description_reference,
    eval_infsup_certificate,
    independent_subset_greedy,
    is_bound_vertex,
    is_totally_ordered_reference,
    normalize_ray,
    rand_int_vec,
    random_pointed_cone,
    vec_sub,
)


def V(*xs):
    return as_vec(xs)


def bound_rows(cone, pts, den: int, upper: bool):
    """One homogenized row per facet h for the upper bounds z of the integer
    points pts / den, <h, z> >= max <h, p> (lower bounds: <h, z> <= min
    <h, p>), as interval_sample writes them for x and y."""
    _, bounds = order_mod._bound_table(cone, pts, upper)
    return [order_mod._bound_row(h, den, b, upper) for h, b in zip(cone._facet_ints, bounds)]


class TestSupremumInfimum:
    def test_orthant_componentwise_max(self):
        res = supremum(orthant(2), [V(1, 0), V(0, 1)])
        assert res.exists and res.value == V(1, 1)

    def test_square_cone_unique_vertex(self):
        res = supremum(square_cone(), [V(1, 1, 1), V(-1, -1, 1)])
        assert res.exists and res.value == V(0, 0, 2)

    def test_square_cone_no_least_upper_bound(self):
        res = supremum(square_cone(), [V(1, 0, 1), V(-1, 0, 1)])
        assert res.outcome == "no_least_upper_bound"
        assert set(res.witnesses) == {V(0, 1, 2), V(0, -1, 2)}
        # witnesses re-verify: both are minimal upper bounds, incomparable
        sq = square_cone()
        for w in res.witnesses:
            assert sq.leq(V(1, 0, 1), w) and sq.leq(V(-1, 0, 1), w)
        w1, w2 = res.witnesses
        assert not sq.leq(w1, w2) and not sq.leq(w2, w1)

    def test_infimum_examples(self):
        assert infimum(orthant(2), [V(1, 0), V(0, 1)]).value == V(0, 0)
        assert infimum(square_cone(), [V(1, 1, 1), V(-1, -1, 1)]).value == V(0, 0, 0)
        assert infimum(orthant(2), [V(5, 7)]).value == V(5, 7)

    def test_not_pointed_refused(self):
        half = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(NotPointed, match="^suprema are computed for pointed cones only$"):
            supremum(half, [V(0, 0)])
        with pytest.raises(NotPointed, match="^infima are computed for pointed cones only$"):
            infimum(half, [V(0, 0)])

    def test_empty_point_set_refused(self):
        with pytest.raises(ValueError, match="^supremum needs at least one point$"):
            supremum(orthant(2), [])
        with pytest.raises(ValueError, match="^infimum needs at least one point$"):
            infimum(orthant(2), [])

    def test_no_upper_bound_for_non_generating_cone(self):
        ray = cone_from_generators(2, [(1, 0)])
        res = supremum(ray, [V(0, 0), V(0, 1)])
        assert res.outcome == "no_upper_bound"

    def test_agrees_with_bruteforce_oracle_on_random_instances(self):
        rng = rng_for(23, "suporacle")
        for trial in range(100):
            dim = rng.randint(2, 3)
            cone = random_pointed_cone(rng, dim, rng.randint(2, 5))
            pts = [cone_point(cone, rng) for _ in range(rng.randint(1, 3))]
            verts = bound_vertices_bruteforce(cone, pts, upper=True)
            res = supremum(cone, pts)
            if len(verts) == 1:
                assert res.exists and res.value == verts[0]
            elif len(verts) == 0:
                assert res.outcome == "no_upper_bound"
            else:
                assert res.outcome == "no_least_upper_bound"
                assert list(res.witnesses) == verts[:2]

    def test_translation_equivariance(self):
        rng = rng_for(29, "suptrans")
        for trial in range(30):
            cone = random_pointed_cone(rng, rng.randint(2, 3), rng.randint(2, 5))
            pts = [cone_point(cone, rng) for _ in range(2)]
            t = as_vec([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(cone.dim)])
            res = supremum(cone, pts)
            shifted = supremum(cone, [vec_add(p, t) for p in pts])
            assert res.outcome == shifted.outcome
            if res.exists:
                assert shifted.value == vec_add(res.value, t)

    def test_bound_vertices_equal_the_cold_run(self):
        # _bound_vertices continues the DD from the translate of one point;
        # its vertex count and two smallest vertices must equal those the
        # cold run of _vertices reads off all rows, for upper and lower
        # bounds.  Cases: generating and non-generating pointed cones (the
        # latter mostly with empty U), the trivial cone in dims 1-3, dim 1,
        # single and repeated points, rational coordinates and coordinates
        # near 1e20 and near 10^400, past the float range, where a float
        # anywhere in the row schedule raises OverflowError.
        seen = dict.fromkeys(("generating", "non_generating", "trivial", "dim1", "single",
                              "repeated", "huge", "past_float", "empty", "exists",
                              "no_least"), 0)
        for i in range(360):
            rng = rng_for(i, "bound-vertices-warm")
            kind = ("generating", "non_generating", "trivial")[i % 3]
            if kind == "trivial":
                dim = 1 + i // 3 % 3
                cone = cone_from_generators(dim, [])
            else:
                dim = 1 + i // 3 % 6 if kind == "generating" else 2 + i // 3 % 5
                cone = random_pointed_cone(rng, dim, rng.randint(1, dim + 3), bound=2,
                                           require_generating=kind == "generating")
                if kind == "non_generating" and cone.generating:
                    cone = cone_from_generators(dim, cone.generators[:1])
            shift = as_vec(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            pts = [vec_add(shift, cone_point(cone, rng, coeff_max=2)) if cone.generators
                   else shift]
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.25:
                    pts.append(rng.choice(pts))
                elif rng.random() < 0.5:
                    pts.append(vec_add(shift, cone_point(cone, rng, coeff_max=2)))
                else:
                    pts.append(as_vec(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                                      for _ in range(dim)))
            if i % 7 == 0:
                pts = [vec_scale(10 ** 20 + rng.randint(0, 9), p) for p in pts]
                seen["huge"] += 1
            elif i % 7 == 1:
                pts = [vec_scale(10 ** 400 + rng.randint(0, 9), p) for p in pts]
                seen["past_float"] += 1
            assert cone.pointed and (kind == "generating") == cone.generating
            seen[kind] += 1
            seen["dim1"] += dim == 1
            seen["single"] += len(pts) == 1
            seen["repeated"] += len(set(pts)) < len(pts)
            ints, den = cone._scaled(pts)
            for upper in (True, False):
                verts, lin, _ = order_mod._vertices(dim, bound_rows(cone, ints, den, upper))
                assert not lin
                count, smallest = order_mod._bound_vertices(cone, ints, den, upper)
                assert (count, smallest) == (len(verts), verts[:2])
                assert all(type(c) is Fraction for v in smallest for c in v)
                seen[("empty", "exists")[count] if count < 2 else "no_least"] += 1
        assert min(seen.values()) >= 15, seen

    def test_bound_rows_reach_the_dd_deepest_first(self, monkeypatch):
        # _bound_vertices gives the DD the rows the start point p* (the
        # first point attaining the bound on the most facets) does not
        # attain, deepest first: by p*'s max-norm distance |b - <h, p*>| /
        # |h|_1 to the row's hyperplane, ties in facet order.  The DD's
        # output does not depend on that order, so only its input shows it.
        calls = []

        def recording(dim, rows, start=None, _dd=order_mod.double_description):
            calls.append(list(rows))
            return _dd(dim, rows, start)

        def schedule(cone, pts, upper):
            """The facet indices in the order the DD must get their rows,
            and each one's depth, from the points as Fractions."""
            vals = [[vec_dot(h, p) for h in cone.facets] for p in pts]
            bounds = [(max if upper else min)(col) for col in zip(*vals)]
            attained = [sum(v == b for v, b in zip(row, bounds)) for row in vals]
            star = vals[attained.index(max(attained))]
            depth = {j: abs(b - v) / sum(map(abs, h))
                     for j, (h, v, b) in enumerate(zip(cone.facets, star, bounds)) if v != b}
            return sorted(depth, key=lambda j: -depth[j]), depth

        def check(cone, pts, upper):
            order, depth = schedule(cone, pts, upper)
            rows = bound_rows(cone, *cone._scaled(pts), upper)
            calls.clear()
            (supremum if upper else infimum)(cone, pts)
            assert calls == [[rows[j] for j in order]]
            return order, depth

        monkeypatch.setattr(order_mod, "double_description", recording)
        # A hexagon cone whose facet normals have l1 norms 7 and 3.  Upper
        # bounds: rows 0 and 3 tie at depth 7/7 = 3/3 = 1 below row 1 at
        # 13/7; lower bounds: rows 2 and 5 tie below row 4.
        hexagon = cone_from_generators(3, [(2, 0, 1), (1, 2, 1), (-1, 2, 1),
                                           (-2, 0, 1), (-1, -2, 1), (1, -2, 1)])
        assert [sum(map(abs, h)) for h in hexagon._facet_ints] == [7, 7, 3, 3, 7, 7]
        pts = [V(3, -2, 2), V(-2, 1, 2)]
        assert check(hexagon, pts, True)[0] == [1, 0, 3]
        assert check(hexagon, pts, False)[0] == [4, 2, 5]
        # Then random cones and points, and on every fourth case those two
        # points scaled and translated, which keeps both ties.
        seen = dict.fromkeys(("upper", "lower", "reordered", "tie", "tie_unequal_norms"), 0)
        for i in range(160):
            rng = rng_for(i, "bound-row-schedule")
            if i % 4 == 1:
                cone, lam = hexagon, Fraction(rng.randint(1, 9), rng.randint(1, 9))
                shift = as_vec(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
                case = [vec_add(vec_scale(lam, p), shift) for p in pts]
            else:
                dim = 2 + i % 4
                cone = random_pointed_cone(rng, dim, rng.randint(dim, dim + 4), bound=2,
                                           require_generating=True)
                case = [as_vec(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
                               for _ in range(dim)) for _ in range(rng.randint(2, 4))]
            for upper in (True, False):
                order, depth = check(cone, case, upper)
                seen["upper" if upper else "lower"] += len(order) > 1
                seen["reordered"] += order != sorted(order)
                ties = [(j, k) for j, k in combinations(order, 2) if depth[j] == depth[k]]
                seen["tie"] += bool(ties)
                seen["tie_unequal_norms"] += any(
                    sum(map(abs, cone._facet_ints[j])) != sum(map(abs, cone._facet_ints[k]))
                    for j, k in ties)
        assert min(seen.values()) >= 10, seen


class TestIntervalSampling:
    def test_unit_square(self):
        pts = interval_sample(orthant(2), V(0, 0), V(1, 1), 4, seed=0)
        assert len(pts) == 4
        for p in pts:
            assert all(0 <= c <= 1 for c in p)

    def test_singleton(self):
        pts = interval_sample(square_cone(), V(1, 2, 3), V(1, 2, 3), 3, seed=0)
        assert pts == [V(1, 2, 3)] * 3

    def test_extreme_ray_interval_is_segment(self):
        # [0, r] on an extreme ray contains only multiples of r
        pts = interval_sample(square_cone(), V(0, 0, 0), V(1, 1, 1), 10, seed=1)
        assert len(pts) == 10
        for p in pts:
            assert p[0] == p[1] == p[2]
            assert 0 <= p[0] <= 1

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            interval_sample(orthant(2), V(1, 0), V(0, 1), 1)

    def test_samples_are_deterministic(self):
        a = interval_sample(orthant(3), V(0, 0, 0), V(2, 1, 1), 6, seed=5)
        b = interval_sample(orthant(3), V(0, 0, 0), V(2, 1, 1), 6, seed=5)
        assert a == b

    def test_non_pointed_interval_is_sampled_along_lineality(self):
        half = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        pts = interval_sample(half, V(0, 0), V(0, 2), 8, seed=4)
        assert len(pts) == 8
        assert all(0 <= p[1] <= 2 for p in pts)
        assert len({p[0] for p in pts}) > 1  # the free direction is exercised

    def test_thin_full_dimensional_interval(self):
        # A thin interval of full dimension: drawing from a bounding box of
        # the interval and rejecting misses gave up on this one.
        cone = cone_from_generators(4, [(0, -2, 3, -3), (0, -1, 3, -3), (0, 0, -1, 0),
                                        (1, 2, 3, -2), (3, -2, 1, -1), (3, 2, 3, 2)])
        x, y = V(18, -2, 25, -14), V(37, -10, 63, -45)
        pts = interval_sample(cone, x, y, 8, seed=144)
        assert len(pts) == 8
        assert all(cone.leq(x, z) and cone.leq(z, y) for z in pts)

    def test_samples_lie_in_the_interval_and_halfline_check_agrees(self):
        # Seeded property loop: pointed cones of dimensions 1-6 and
        # non-pointed cones of dimensions 2-5.  Every sample lies in [x, y],
        # and the sampled half-line battery agrees with the exact extremality
        # test for an extreme and (when there is one) a non-extreme direction.
        checked = {"pointed": 0, "non_pointed": 0, "non_extreme": 0}
        for i in range(260):
            rng = rng_for(i, "interval-property")
            if i % 5 == 4:
                dim = 2 + i % 4
                gens = [rand_int_vec(rng, dim, 2) for _ in range(dim + 1)]
                gens = [g for g in gens if any(g)] or [unit_vec(dim, 0)]
                cone = cone_from_generators(dim, gens + [vec_neg(gens[0])])
                assert not cone.pointed
            else:
                dim = 1 + i % 6
                cone = random_pointed_cone(rng, dim, dim + 2, bound=2)
            x = rand_int_vec(rng, dim)
            y = vec_add(x, cone_point(cone, rng, coeff_max=2))
            n = rng.randint(1, 8)
            pts = interval_sample(cone, x, y, n, seed=i)
            assert len(pts) == n
            assert all(cone.leq(x, z) and cone.leq(z, y) for z in pts)
            if not cone.pointed:
                checked["non_pointed"] += 1
                continue
            checked["pointed"] += 1
            extreme = vec_scale(rng.randint(1, 3), rng.choice(cone.generators))
            assert extreme_halfline_check(cone, x, extreme, seed=i)
            d = vec_sub(y, x)
            if any(d) and not cone.is_extreme_vector(d):
                checked["non_extreme"] += 1
                assert not extreme_halfline_check(cone, x, d, seed=i)
        assert checked["pointed"] >= 200 and checked["non_pointed"] >= 50
        assert checked["non_extreme"] >= 100

    def test_vertices_equal_those_with_t_cut_last(self):
        # _vertices cuts the homogenization by t >= 0 first; read off the
        # reference DD with t >= 0 last, as before, its vertices, lineality
        # and recession directions must come out the same.  Rows: upper and
        # lower bounds of 1-4 points on pointed cones, and the interleaved
        # interval rows of interval_sample on pointed and non-pointed cones.
        # interval_sample writes x's and y's rows over their one
        # denominator; rows over each point's own denominator are positive
        # multiples of those, and give the same output.
        checked = {"bounds": 0, "pointed": 0, "non_pointed": 0, "recession": 0}
        for i in range(240):
            rng = rng_for(i, "vertices-order")
            kind = ("bounds", "pointed", "non_pointed")[i % 3]
            dim = 2 + i % 4
            if kind == "non_pointed":
                gens = [rand_int_vec(rng, dim, 2) for _ in range(dim + 1)]
                gens = [g for g in gens if any(g)] or [unit_vec(dim, 0)]
                cone = cone_from_generators(dim, gens + [vec_neg(gens[0])])
            else:
                cone = random_pointed_cone(rng, dim, rng.randint(dim, dim + 2), bound=2)
            shift = as_vec(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            if kind == "bounds":
                pts = [vec_add(shift, cone_point(cone, rng, coeff_max=2))
                       for _ in range(rng.randint(1, 4))]
                rows = bound_rows(cone, *cone._scaled(pts), rng.random() < 0.5)
            else:
                y = vec_add(shift, cone_point(cone, rng, coeff_max=2))
                (xi, yi), den = cone._scaled([shift, y])
                pairs = zip(bound_rows(cone, [xi], den, True), bound_rows(cone, [yi], den, False))
                rows = [row for pair in pairs for row in pair]
                pairs = zip(bound_rows(cone, *cone._scaled([shift]), True),
                            bound_rows(cone, *cone._scaled([y]), False))
                own = [row for pair in pairs for row in pair]
                assert order_mod._vertices(dim, own) == order_mod._vertices(dim, rows)
            verts, lin, recession = order_mod._vertices(dim, rows)
            lin_r, rays_r = double_description_reference(dim + 1, rows + [unit_vec(dim + 1, dim)])
            assert verts == sorted(tuple(c / r[dim] for c in r[:dim]) for r in rays_r if r[dim])
            assert lin == [l[:dim] for l in lin_r]
            expected = [r[:dim] for r in rays_r if not r[dim]]
            assert len(recession) == len(expected) and set(recession) == set(expected)
            assert all(type(c) is Fraction for v in verts + lin + recession for c in v)
            assert (kind == "non_pointed") == bool(lin)
            checked[kind] += 1
            checked["recession"] += bool(recession)
        assert min(checked.values()) >= 20

    def test_totally_ordered_helper(self):
        o2 = orthant(2)
        assert is_totally_ordered(o2, [V(0, 0), V(1, 1), V(2, 2)])
        assert not is_totally_ordered(o2, [V(1, 0), V(0, 1)])
        assert is_totally_ordered(
            square_cone(),
            interval_sample(square_cone(), V(0, 0, 0), V(1, 1, 1), 6, seed=2),
        )

    def test_totally_ordered_matches_pairwise_fraction_leq(self):
        # Pointed cones of dimensions 1-5 and non-pointed cones of 2-5, with
        # points that have denominators: chains x + t*c, interval samples
        # and unrelated points, shuffled.
        seen = {True: 0, False: 0, "non_pointed": 0}
        for i in range(180):
            rng = rng_for(i, "total-order")
            dim = 1 + i % 5
            if i % 4 == 3 and dim > 1:
                gens = [rand_int_vec(rng, dim, 2) for _ in range(dim + 1)]
                gens = [g for g in gens if any(g)] or [unit_vec(dim, 0)]
                cone = cone_from_generators(dim, gens + [vec_neg(gens[0])])
                seen["non_pointed"] += 1
            else:
                cone = random_pointed_cone(rng, dim, dim + 2, bound=2)

            def point():
                return as_vec(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                              for _ in range(dim))
            x, k = point(), rng.randint(0, 5)
            if i % 3 == 0:
                c = cone_point(cone, rng, coeff_max=2)
                pts = [vec_add(x, vec_scale(Fraction(rng.randint(0, 12), rng.randint(1, 5)), c))
                       for _ in range(k)]
            elif i % 3 == 1:
                y = vec_add(x, cone_point(cone, rng, coeff_max=2))
                pts = interval_sample(cone, x, y, k, seed=i)
            else:
                pts = [point() for _ in range(k)]
            rng.shuffle(pts)
            ordered = is_totally_ordered(cone, pts)
            assert ordered == is_totally_ordered_reference(cone, pts)
            seen[ordered] += 1
        assert min(seen.values()) >= 30, seen

    def test_totally_ordered_rejects_bad_points(self):
        o2 = orthant(2)
        with pytest.raises(DimensionMismatch):
            is_totally_ordered(o2, [V(0, 0), V(1, 1, 1)])
        with pytest.raises(TypeError):
            is_totally_ordered(o2, [V(0, 0), (0.5, 1)])


class TestExtremeHalfline:
    def test_examples(self):
        assert extreme_halfline_check(square_cone(), V(0, 0, 0), V(1, 1, 1))
        assert not extreme_halfline_check(orthant(2), V(1, 2), V(1, 1))
        assert extreme_halfline_check(orthant(2), V(0, 0), V(0, 1))

    def test_incomparable_interval_samples_are_an_inconsistency(self, monkeypatch):
        # An extreme direction whose interval came back with an incomparable
        # pair: the battery says "not extreme", the exact test "extreme".
        monkeypatch.setattr(order_mod, "interval_sample",
                            lambda cone, x, y, n, seed=0: [V(1, 0), V(0, 1)])
        with pytest.raises(InternalInconsistency):
            extreme_halfline_check(orthant(2), V(0, 0), V(0, 1))

    def test_one_term_decomposition_is_an_inconsistency(self, monkeypatch):
        # A non-extreme direction decomposed into one term passes the
        # Caratheodory stage.  The interval stage still finds an incomparable
        # pair; once it draws a chain as well, the battery says "extreme"
        # against the exact test.
        monkeypatch.setattr(PolyhedralCone, "caratheodory_decompose",
                            lambda self, x: [(Fraction(1), self._check_dim(x))])
        assert not extreme_halfline_check(orthant(2), V(1, 2), V(1, 1))
        monkeypatch.setattr(order_mod, "interval_sample",
                            lambda cone, x, y, n, seed=0: [x, y])
        with pytest.raises(InternalInconsistency):
            extreme_halfline_check(orthant(2), V(1, 2), V(1, 1))

    def test_scaled_direction_and_translated_apex(self):
        assert extreme_halfline_check(square_cone(), V(2, 0, 5), V(2, 2, 2), seed=3)

    def test_benchmark_cone_families(self):
        # Cones over cyclic polytopes (points on the moment curve), over
        # lattice points of a box, and simplicial cones given with redundant
        # generators; an extreme direction g[0] and a non-extreme g[0] + g[-1].
        rng = rng_for(5, "halfline-families")
        cones = [cone_from_generators(d, [[t ** k for k in range(1, d)] + [1]
                                          for t in range(-3, d + 1)])
                 for d in range(3, 8)]
        box = [[rng.randint(-3, 3) for _ in range(4)] + [2] for _ in range(7)]
        cones.append(cone_from_generators(5, box))
        simplex = [(1, 0, 0, 1), (0, 1, -1, 2), (-1, 2, 0, 1), (2, -1, 1, 3)]
        redundant = [vec_add(simplex[0], vec_scale(2, simplex[3])),
                     vec_add(simplex[1], simplex[2])]
        cones.append(cone_from_generators(4, simplex + redundant))
        assert len(cones[-1].generators) == 4
        for i, cone in enumerate(cones):
            g = cone.generators
            apex = cone_point(cone, rng)
            assert extreme_halfline_check(cone, apex, g[0], seed=i)
            assert not extreme_halfline_check(cone, apex, vec_add(g[0], g[-1]), seed=i)


def _cyclic_cone(rng, dim: int, n: int):
    """Cone over a cyclic polytope: n points (t, ..., t^(dim-1), 1) of the
    moment curve; dim 6 with n = 10 has 42 facets."""
    ts = sorted(rng.sample(range(-6, 7), n))
    return cone_from_generators(dim, [[t ** k for k in range(1, dim)] + [1] for t in ts])


class TestSupremumCertificate:
    """The bound oracle above enumerates every d-subset of facets, so it only
    reaches dim 3.  The one-solve certificate of tests/oracles.py checks
    supremum, infimum and eval_infsup on pointed generating cones of any
    dimension: the value where a bound exists, the vertex test on both
    witnesses where it does not."""

    @settings(max_examples=60, deadline=None)
    @given(cone_seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 7),
           cyclic=st.booleans(), k=st.integers(1, 4))
    @example(cone_seed=0, dim=6, cyclic=True, k=3)
    @example(cone_seed=1, dim=6, cyclic=True, k=2)
    def test_matches_library(self, cone_seed, dim, cyclic, k):
        rng = rng_for(cone_seed, "supcert")
        if cyclic and dim == 6:
            cone = _cyclic_cone(rng, 6, 10)
            assert len(cone.facets) == 42
        elif cyclic:
            cone = _cyclic_cone(rng, dim, rng.randint(dim, dim + 3))
        else:
            cone = random_pointed_cone(rng, dim, rng.randint(dim, dim + 3),
                                       require_generating=True)
        pts = [as_vec([Fraction(c, rng.randint(1, 3)) for c in rand_int_vec(rng, dim, 4)])
               for _ in range(k)]
        for upper, bound in ((True, supremum), (False, infimum)):
            want, res = bound_certificate(cone, pts, upper), bound(cone, pts)
            if want is not None:
                assert res.exists and res.value == want
            else:
                assert res.outcome == "no_least_upper_bound"
                w1, w2 = res.witnesses
                assert w1 < w2
                assert is_bound_vertex(cone, pts, w1, upper)
                assert is_bound_vertex(cone, pts, w2, upper)
        outer, inner = (sup_expr, inf_expr) if cone_seed % 2 else (inf_expr, sup_expr)
        expr = outer(leaf(pts[0]), inner(*[leaf(p) for p in pts[1:] or pts]))
        want = eval_infsup_certificate(cone, expr)
        if want is None:
            with pytest.raises(UndefinedLattice):
                eval_infsup(cone, expr)
        else:
            assert eval_infsup(cone, expr) == want


class TestInfSupExpressions:
    def test_eval_examples(self):
        o2 = orthant(2)
        e = inf_expr(sup_expr(leaf(V(1, 0)), leaf(V(0, 1))),
                     sup_expr(leaf(V(2, 0)), leaf(V(0, 2))))
        assert eval_infsup(o2, e) == V(1, 1)
        assert eval_infsup(o2, leaf(V(3, 4))) == V(3, 4)

    def test_undefined_lattice_carries_path_and_witnesses(self):
        sq = square_cone()
        expr = inf_expr(leaf(V(5, 5, 9)),
                        sup_expr(leaf(V(1, 0, 1)), leaf(V(-1, 0, 1))))
        with pytest.raises(UndefinedLattice) as exc:
            eval_infsup(sq, expr)
        assert exc.value.path == (1,)
        assert set(exc.value.witnesses) == {V(0, 1, 2), V(0, -1, 2)}

    def test_linearity_check_examples(self):
        o2 = orthant(2)
        ex = sup_expr(leaf(V(1, 0)), leaf(V(0, 1)))
        ey = sup_expr(leaf(V(2, 0)), leaf(V(0, 2)))
        assert infsup_linearity_check(o2, ex, ey, 1, 1)
        assert infsup_linearity_check(o2, ex, ey, 0, 1)
        assert infsup_linearity_check(o2, leaf(V(1, 2)), leaf(V(3, 1)), 2, 3)

    def test_linearity_on_square_cone_nested(self):
        sq = square_cone()
        ex = sup_expr(leaf(V(1, 1, 1)), leaf(V(-1, -1, 1)))
        ey = inf_expr(leaf(V(0, 0, 3)), leaf(V(1, 1, 3)))
        assert infsup_linearity_check(sq, ex, ey, Fraction(3, 2), Fraction(1, 3))

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            infsup_linearity_check(orthant(2), leaf(V(1, 0)), leaf(V(0, 1)), -1, 0)

    def test_float_coefficients_refused(self):
        # like vec_scale, a combination takes exact rationals only: 0.1 is
        # not silently read as 3602879701896397/36028797018963968
        o2, x, y = orthant(2), leaf(V(1, 0)), leaf(V(0, 1))
        for lam, mu in ((0.1, 1), (1, 0.1), (1.0, 1)):
            with pytest.raises(TypeError, match="^exact rational expected, got float$"):
                combine_infsup(x, y, lam, mu)
            with pytest.raises(TypeError, match="^exact rational expected, got float$"):
                infsup_linearity_check(o2, x, y, lam, mu)
        assert combine_infsup(x, y, 2, "3/2") == leaf(V(2, Fraction(3, 2)))
        assert infsup_linearity_check(o2, x, y, "3/2", 2)


class TestClassification:
    def test_square_cone_all_engaged(self):
        reports = classify_engaged(square_cone())
        assert [r.engaged for r in reports] == [True] * 4
        for r in reports:
            assert isinstance(r.certificate, CombinationCertificate)
            total = V(0, 0, 0)
            gens = square_cone().generators
            for j, c in r.certificate.coefficients:
                total = vec_add(total, vec_scale(c, gens[j]))
            assert total == r.generator

    def test_interval_cone_two_disengaged(self):
        reports = classify_engaged(interval_cone())
        assert [r.engaged for r in reports] == [False, False]
        gens = interval_cone().generators
        for r in reports:
            assert isinstance(r.certificate, SeparatingFunctional)
            phi = r.certificate.functional
            assert vec_dot(phi, r.generator) != 0
            for j, g in enumerate(gens):
                if j != r.ray_index:
                    assert vec_dot(phi, g) == 0

    def test_orthant_all_disengaged(self):
        assert [r.engaged for r in classify_engaged(orthant(3))] == [False] * 3

    def test_engagement_is_basis_invariant(self):
        rng = rng_for(31, "basis")
        for trial in range(15):
            cone = random_pointed_cone(rng, rng.randint(2, 4), rng.randint(2, 6))
            u = unimodular_matrix(rng, cone.dim)
            image = cone_from_generators(cone.dim, [mat_vec(u, g) for g in cone.generators])
            pattern = {g: r.engaged for g, r in zip(cone.generators, classify_engaged(cone))}
            image_pattern = {g: r.engaged
                             for g, r in zip(image.generators, classify_engaged(image))}
            for g, engaged in pattern.items():
                assert image_pattern[normalize_ray(mat_vec(u, g))] == engaged

    def test_hypothesis_examples(self):
        assert hypothesis_check(square_cone()).holds
        v = hypothesis_check(orthant(4))
        assert not v.holds and v.disengaged_witness == 0
        assert not hypothesis_check(interval_cone()).holds
        half = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        assert not hypothesis_check(half).holds

    def test_hypothesis_matches_classification(self):
        rng = rng_for(37, "hypo")
        for trial in range(20):
            cone = random_pointed_cone(rng, rng.randint(2, 4), rng.randint(2, 6))
            verdict = hypothesis_check(cone)
            reports = classify_engaged(cone)
            assert verdict.all_extreme_rays_engaged == all(r.engaged for r in reports)
            assert verdict.holds == (cone.generating and cone.pointed
                                     and verdict.all_extreme_rays_engaged)
            assert (verdict.disengaged_witness is None) == verdict.all_extreme_rays_engaged

    def test_classification_is_computed_once_per_cone(self, monkeypatch, tmp_path, capsys):
        calls = []
        real = linalg_mod.rref

        def counting(rows):
            calls.append(1)
            return real(rows)

        monkeypatch.setattr(linalg_mod, "rref", counting)
        cone = cone_from_generators(3, [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])
        classify_engaged(cone).clear()  # each call returns a fresh list
        assert hypothesis_check(cone).holds
        assert [r.engaged for r in classify_engaged(cone)] == [True] * 4
        assert len(calls) == 1
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"dim": 2, "generators": [["1", "0"], ["0", "1"]]}))
        calls.clear()
        assert main(["classify", str(path)]) == 1
        assert len(calls) == 1
        # splits and product lifts read the classified cone's elimination
        o3, sub = orthant(3), identity_iso(orthant(2))
        assert [r.engaged for r in classify_engaged(o3)] == [False] * 3
        calls.clear()
        for ray in range(3):
            split = disengaged_split(o3, ray)
            assert make_product_lift(o3, ray, IDENTITY_MAP, sub).split == split
        assert calls == []


def _direct_sum(a, b):
    gens = [tuple(g) + zero_vec(b.dim) for g in a.generators]
    gens += [zero_vec(a.dim) + tuple(g) for g in b.generators]
    return cone_from_generators(a.dim + b.dim, gens)


def _random_cone(data, max_dim, min_dim=1, generating=False):
    dim = data.draw(st.integers(min_dim, max_dim))
    rng = rng_for(data.draw(st.integers(0, 2**32)), "classify")
    return random_pointed_cone(rng, dim, data.draw(st.integers(1, 2 * dim + 2)),
                               require_generating=generating)


def _flat_cone(data):
    """A cone whose span is not the whole space: a random cone padded with
    zero coordinates and moved by a unimodular map, or the trivial cone."""
    if data.draw(st.integers(0, 3)) == 0:
        return cone_from_generators(data.draw(st.integers(1, 3)), [])
    base = _random_cone(data, 4)
    dim = base.dim + data.draw(st.integers(1, 2))
    u = unimodular_matrix(rng_for(data.draw(st.integers(0, 2**32)), "flat"), dim)
    pad = zero_vec(dim - base.dim)
    return cone_from_generators(dim, [mat_vec(u, g + pad) for g in base.generators])


CLASSIFY_CONES = [orthant(3), interval_cone(), square_cone(),
                  _direct_sum(square_cone(), interval_cone())]


@settings(max_examples=120)
@given(st.data())
def test_classification_matches_per_ray_solve(data):
    """One row reduction per cone gives the per-ray reference's verdicts and
    certificates, and hypothesis_check names its first disengaged ray.
    Direct sums of random cones mix engaged and disengaged rays; flat cones
    take the separating functionals of a cone that is not generating."""
    kind = data.draw(st.sampled_from(["fixed", "random", "sum", "flat"]))
    if kind == "fixed":
        cone = data.draw(st.sampled_from(CLASSIFY_CONES))
    elif kind == "random":
        cone = _random_cone(data, 6)
    elif kind == "sum":
        cone = _direct_sum(_random_cone(data, 3), _random_cone(data, 3))
    else:
        cone = _flat_cone(data)
    reports = classify_engaged(cone)
    assert reports == classify_engaged_reference(cone)
    first = next((r.ray_index for r in reports if not r.engaged), None)
    assert hypothesis_check(cone).disengaged_witness == first


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_split_matches_per_split_eliminations(data):
    """Every split read off the cone's one elimination equals the split of
    a greedy basis and an inverse per ray, for every disengaged ray of a
    random generating cone or a direct sum of two."""
    if data.draw(st.booleans()):
        cone = _random_cone(data, 6, min_dim=2, generating=True)
    else:
        cone = _direct_sum(_random_cone(data, 3, generating=True),
                           _random_cone(data, 3, generating=True))
    for ray in (r.ray_index for r in classify_engaged(cone) if not r.engaged):
        assert disengaged_split(cone, ray) == disengaged_split_reference(cone, ray)


@given(st.data())
def test_independent_subset_matches_greedy_rank_loop(data):
    dim = data.draw(st.integers(1, 4))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vectors = []
    for _ in range(data.draw(st.integers(0, 7))):
        kind = data.draw(st.sampled_from(["new", "zero", "repeat"]))
        if kind == "zero":
            vectors.append(zero_vec(dim))
        elif kind == "repeat" and vectors:
            scale = data.draw(entries)
            vectors.append(vec_scale(scale, data.draw(st.sampled_from(vectors))))
        else:
            vectors.append(tuple(data.draw(entries) for _ in range(dim)))
    assert independent_subset(vectors) == independent_subset_greedy(vectors)


class TestDisengagedSplit:
    def test_orthant_split(self):
        split = disengaged_split(orthant(3), 0)
        assert split.subcone == orthant(2)
        assert mat_vec(split.projection, split.ray) == V(1, 0, 0)

    def test_interval_cone_split(self):
        ic = interval_cone()
        split = disengaged_split(ic, 1)  # ray (1, 1)
        assert split.ray == V(1, 1)
        assert split.subcone.generators == (V(1),)
        assert split.basis == (V(1, 1), V(-1, 1))

    def test_square_cone_ray_is_engaged(self):
        with pytest.raises(RayIsEngaged):
            disengaged_split(square_cone(), 0)

    def test_non_generating_refused(self):
        ray = cone_from_generators(2, [(1, 0)])
        with pytest.raises(NotGenerating):
            disengaged_split(ray, 0)

    def test_dimension_one_refused_up_front(self):
        # orthant(1)'s only ray is disengaged, but the complement would be a
        # cone in dimension 0, which does not exist.
        with pytest.raises(DimensionMismatch, match="dimension >= 2, got 1$"):
            disengaged_split(orthant(1), 0)

    def test_split_is_exact_order_isomorphism_onto_product(self):
        # the coordinate map must preserve and reflect the order against the
        # product order on 10^4 random pairs in total
        rng = rng_for(41, "split")
        pairs = 0
        while pairs < 10000:
            cone = random_pointed_cone(rng, rng.randint(2, 4), rng.randint(2, 5),
                                       require_generating=True)
            reports = classify_engaged(cone)
            dis = [r.ray_index for r in reports if not r.engaged]
            if not dis:
                continue
            split = disengaged_split(cone, dis[0])
            sub = split.subcone
            for _ in range(500):
                x = cone_point(cone, rng)
                y = cone_point(cone, rng)
                tx, wx = split.split(x)
                ty, wy = split.split(y)
                product_leq = (tx <= ty) and sub.leq(wx, wy)
                assert cone.leq(x, y) == product_leq
                assert split.unsplit(tx, wx) == x
                pairs += 1

    @pytest.mark.parametrize("w", [(1,), (1, 2, 3)], ids=["short", "long"])
    def test_unsplit_refuses_w_of_the_wrong_length(self, w):
        split = disengaged_split(orthant(3), 0)
        assert split.unsplit(*split.split(V(1, 2, 3))) == V(1, 2, 3)
        with pytest.raises(ValueError):
            split.unsplit(1, w)


class TestOrderUnitNorm:
    def test_examples(self):
        assert order_unit_norm(orthant(2), V(1, 1), V(1, -2)) == 2
        assert order_unit_norm(square_cone(), V(0, 0, 1), V(1, 0, 0)) == 1
        assert order_unit_norm(square_cone(), V(0, 0, 1), V(0, 0, 0)) == 0

    def test_not_order_unit(self):
        with pytest.raises(NotOrderUnit):
            order_unit_norm(orthant(2), V(1, 0), V(1, 1))

    def test_norm_axioms_on_samples(self):
        rng = rng_for(43, "norm")
        for trial in range(20):
            cone = random_pointed_cone(rng, rng.randint(2, 4), rng.randint(2, 5),
                                       require_generating=True)
            u = cone_point(cone, rng)
            if any(vec_dot(h, u) <= 0 for h in cone.facets):
                continue
            x = as_vec([rng.randint(-4, 4) for _ in range(cone.dim)])
            y = as_vec([rng.randint(-4, 4) for _ in range(cone.dim)])
            lam = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            nx = order_unit_norm(cone, u, x)
            assert order_unit_norm(cone, u, vec_scale(lam, x)) == abs(lam) * nx
            assert (order_unit_norm(cone, u, vec_add(x, y))
                    <= nx + order_unit_norm(cone, u, y))
            assert order_unit_norm(cone, u, u) == 1

    def test_norm_value_is_the_lp_optimum(self):
        # independent route: solve min lam s.t. lam*u - x in C, lam*u + x in C
        rng = rng_for(47, "normlp")
        for trial in range(10):
            cone = random_pointed_cone(rng, rng.randint(2, 3), rng.randint(2, 4),
                                       require_generating=True)
            u = cone_point(cone, rng)
            if any(vec_dot(h, u) <= 0 for h in cone.facets):
                continue
            x = as_vec([rng.randint(-3, 3) for _ in range(cone.dim)])
            # variables: lam, one slack per inequality
            m = len(cone.facets)
            rows, rhs = [], []
            for k, h in enumerate(cone.facets):
                row = [vec_dot(h, u)] + [0] * (2 * m)
                row[1 + k] = -1
                rows.append(row)
                rhs.append(vec_dot(h, x))
                row = [vec_dot(h, u)] + [0] * (2 * m)
                row[1 + m + k] = -1
                rows.append(row)
                rhs.append(-vec_dot(h, x))
            res = solve_lp([1] + [0] * (2 * m), rows, rhs)
            assert res.status == OPTIMAL
            assert res.objective == order_unit_norm(cone, u, x)
