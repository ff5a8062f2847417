"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the production algorithms: extremality goes through
LP feasibility and the tight-facet rank instead of a lookup among the stored
generators, the parallelogram identity through its own four-corner formula
instead of two-vector additivity, ray/facet enumeration through
exhaustive subset solving instead of double description (and the double
description itself through its Fraction-lineality form), suprema through
exhaustive vertex enumeration, engagement through one linear solve per ray
instead of one row reduction per cone, eigendecompositions through
numpy's LAPACK instead of the in-repo Jacobi sweep, and iso specs and their
sampled battery through the per-kind Fraction formulas instead of the
integer cores.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np

from coneorder.errors import OutOfDomain, SameRay
from coneorder.iso import (
    AffineIso,
    AffineMap,
    ComposeIso,
    DiagonalIso,
    IsoReport,
    LinearIso,
    OddPowerMap,
    PiecewiseLinearMap,
    ProductLiftIso,
    _CHUNK,
    _int_nth_root,
    _leq_tol,
    _signed_extreme,
)
from coneorder.linalg import (
    ZERO,
    as_vec,
    identity_matrix,
    mat_rank,
    mat_vec,
    kernel_basis,
    normalize_ray,
    primitive,
    scaled_ints,
    solve,
    transpose,
    vec_add,
    vec_dot,
    vec_neg,
    vec_scale,
    vec_sub,
)
from coneorder.lp import positive_combination
from coneorder.order import CombinationCertificate, ExtremeRayReport, SeparatingFunctional
from coneorder.sampling import cone_point, incomparable_pair, rng_for


def is_extreme_among(gens, i) -> bool:
    """Generator i is extreme iff it is not a nonnegative combination of the others."""
    others = [g for j, g in enumerate(gens) if j != i]
    return positive_combination(others, gens[i]) is None


def is_extreme_lp(gens, v) -> bool:
    """v in a pointed cone(gens) spans an extreme ray iff it is not a
    nonnegative combination of the generators off its own ray."""
    ray = normalize_ray(v)
    others = [g for g in gens if normalize_ray(g) != ray]
    return positive_combination(others, v) is None


def is_extreme_tight_rank(cone, r) -> bool:
    """r in a pointed cone spans an extreme ray iff the facets tight at r
    have rank dim - 1."""
    return mat_rank([cone.facets[i] for i in cone.tight_facets(r)]) == cone.dim - 1


def _require_domain(spec, *points):
    for p in points:
        if not spec.in_source(p):
            raise OutOfDomain("configuration point outside the source domain")


def parallelogram_reference(spec, x, r, s) -> bool:
    """f(x+r+s) - f(x+s) == f(x+r) - f(x) for extreme r, s on distinct rays,
    with distinctness decided by a rank test."""
    x, r, s = as_vec(x), as_vec(r), as_vec(s)
    pr = _signed_extreme(spec.source_cone, r)
    ps = _signed_extreme(spec.source_cone, s)
    if mat_rank([pr, ps]) < 2:
        raise SameRay("r and s must span distinct rays")
    corners = (x, vec_add(x, r), vec_add(x, s), vec_add(vec_add(x, r), s))
    _require_domain(spec, *corners)
    f = [spec.eval(c) for c in corners]
    return vec_sub(f[3], f[2]) == vec_sub(f[1], f[0])


def minimal_generators(gens) -> list:
    """Normalized extreme members of a generating list, by the LP oracle."""
    rays = sorted({normalize_ray(g) for g in gens if any(c != 0 for c in g)})
    return sorted(r for i, r in enumerate(rays) if is_extreme_among(rays, i))


def rays_from_facets_bruteforce(dim, facets) -> list:
    """Extreme rays of {x : <h,x> >= 0} by solving all (dim-1)-subsets."""
    out = set()
    for subset in combinations(facets, dim - 1):
        if mat_rank(subset) != dim - 1:
            continue
        kern = kernel_basis(list(subset), dim)
        if len(kern) != 1:
            continue
        for cand in (kern[0], vec_neg(kern[0])):
            if all(vec_dot(h, cand) >= 0 for h in facets):
                out.add(normalize_ray(cand))
    return sorted(out)


def cone_bruteforce(dim, constraints) -> tuple[list, list]:
    """(lineality basis, extreme rays) of {x : <h,x> >= 0} for any system.

    The lineality space is the kernel of the constraint matrix.  The rays
    are those of the pointed part, the cone cut with the orthogonal
    complement of the lineality space, found by solving every subset of
    rank(A) - 1 distinct constraints together with <l, x> = 0.
    """
    rows = sorted({tuple(h) for h in constraints if any(c != 0 for c in h)})
    lin = kernel_basis(rows, dim)
    rank = dim - len(lin)
    out = set()
    for subset in combinations(rows, max(rank - 1, 0)):
        kern = kernel_basis(list(subset) + lin, dim)
        if len(kern) != 1:
            continue
        for cand in (kern[0], vec_neg(kern[0])):
            if all(vec_dot(h, cand) >= 0 for h in rows):
                out.add(normalize_ray(cand))
    return lin, sorted(out)


def double_description_reference(dim: int, constraints) -> tuple[list, list]:
    """The double description with its lineality basis reduced in Fraction
    and its rays fraction-free, the form the production DD had before the
    basis became integer; the production DD must return exactly the same
    two lists."""
    def combine(r, a, b, z):
        return primitive([a * x - b * y for x, y in zip(r, z)])

    lineality = list(identity_matrix(dim))
    rays = []
    tight = []

    for i, h in enumerate(constraints):
        hi = scaled_ints(h)[0]
        if len(hi) != dim:
            raise ValueError(f"constraint {i} has length {len(hi)}, expected {dim}")
        bit = 1 << i
        vals = [vec_dot(h, l) for l in lineality]
        k = next((j for j in range(len(lineality)) if vals[j] != 0), None)
        if k is not None:
            z = lineality[k] if vals[k] > 0 else vec_neg(lineality[k])
            c = abs(vals[k])
            new_lin = []
            for j, l in enumerate(lineality):
                if j != k:
                    new_lin.append(vec_sub(l, vec_scale(vals[j] / c, z)))
            lineality = new_lin
            zi = primitive(scaled_ints(z)[0])
            ci = sum(map(mul, hi, zi))
            rays = [combine(r, ci, sum(map(mul, hi, r)), zi) for r in rays]
            tight = [t | bit for t in tight]
            rays.append(zi)
            tight.append(bit - 1)
            continue

        vals = [sum(map(mul, hi, r)) for r in rays]
        pos = [j for j, v in enumerate(vals) if v > 0]
        zer = [j for j, v in enumerate(vals) if v == 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        if not neg:
            tight = [t | bit if v == 0 else t for v, t in zip(vals, tight)]
            continue
        need = dim - len(lineality) - 2
        new_rays = []
        new_tight = []
        for p in pos:
            for q in neg:
                common = tight[p] & tight[q]
                if common.bit_count() < need:
                    continue
                adjacent = True
                for o in range(len(rays)):
                    if o != p and o != q and (common & ~tight[o]) == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                new_rays.append(combine(rays[q], vals[p], vals[q], rays[p]))
                new_tight.append(common | bit)
        keep_rays = [rays[j] for j in pos] + [rays[j] for j in zer]
        keep_tight = [tight[j] for j in pos] + [tight[j] | bit for j in zer]
        seen = set()
        rays, tight = [], []
        for r, t in zip(keep_rays + new_rays, keep_tight + new_tight):
            if r not in seen:
                seen.add(r)
                rays.append(r)
                tight.append(t)

    return lineality, [tuple(map(Fraction, r)) for r in rays]


def facets_from_rays_bruteforce(dim, rays) -> list:
    """Facet normals of a full-dimensional cone(R): extreme rays of the dual."""
    return rays_from_facets_bruteforce(dim, rays)


def bound_vertices_bruteforce(cone, points, upper=True) -> list:
    """All vertices of the upper/lower bound polyhedron by subset solving."""
    rows, rhs = [], []
    for h in cone.facets:
        vals = [vec_dot(h, p) for p in points]
        if upper:
            rows.append(tuple(h))
            rhs.append(max(vals))
        else:
            rows.append(vec_neg(h))
            rhs.append(-min(vals))
    d = cone.dim
    verts = set()
    for idx in combinations(range(len(rows)), d):
        sub = [rows[i] for i in idx]
        if mat_rank(sub) != d:
            continue
        z = solve(sub, tuple(rhs[i] for i in idx))
        if z is None:
            continue
        if all(vec_dot(rows[i], z) >= rhs[i] for i in range(len(rows))):
            verts.add(z)
    return sorted(verts)


def classify_engaged_reference(cone) -> list:
    """Engagement by one solve per ray: g_i against the other generators.

    A ray is engaged iff the solve succeeds; its certificate is the solve's
    nonzero coefficients.  A disengaged ray gets the first kernel vector of
    the others that is nonzero on g_i, normalized.
    """
    gens = cone.generators
    reports = []
    for i, g in enumerate(gens):
        others = [gens[j] for j in range(len(gens)) if j != i]
        other_idx = [j for j in range(len(gens)) if j != i]
        coeffs = solve(transpose(others), g) if others else None
        if coeffs is not None:
            pairs = tuple((j, c) for j, c in zip(other_idx, coeffs) if c != 0)
            reports.append(ExtremeRayReport(i, g, True, CombinationCertificate(pairs)))
        else:
            phi = next(normalize_ray(cand) for cand in kernel_basis(others, cone.dim)
                       if vec_dot(cand, g) != 0)
            reports.append(ExtremeRayReport(i, g, False, SeparatingFunctional(phi)))
    return reports


def independent_subset_greedy(vectors) -> list:
    """Keep each vector that raises the rank of those kept before it."""
    chosen, rows = [], []
    for i, v in enumerate(vectors):
        if mat_rank(rows + [tuple(v)]) > len(rows):
            rows.append(tuple(v))
            chosen.append(i)
    return chosen


def eigh_oracle(a):
    return np.linalg.eigh(np.asarray(a, dtype=float))


def frac_vec(*xs):
    return tuple(Fraction(x) for x in xs)


# ---------------------------------------------------------------------------
# Iso specs on Fractions: the per-kind formulas and the sampled battery that
# the scaled-integer cores of coneorder.iso replaced.


def scalar_eval_reference(m, t):
    t = Fraction(t)
    if isinstance(m, AffineMap):
        return m.slope * t + m.intercept
    if isinstance(m, OddPowerMap):
        return t ** m.exponent
    bps = m.breakpoints
    if t <= bps[0][0]:
        return bps[0][1] + (t - bps[0][0])
    if t >= bps[-1][0]:
        return bps[-1][1] + (t - bps[-1][0])
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if x0 <= t <= x1:
            return y0 + (t - x0) * (y1 - y0) / (x1 - x0)
    raise AssertionError("unreachable")


def scalar_invert_reference(m, u):
    u = Fraction(u)
    if isinstance(m, AffineMap):
        return (u - m.intercept) / m.slope
    if isinstance(m, PiecewiseLinearMap):
        flipped = PiecewiseLinearMap(tuple((y, x) for x, y in m.breakpoints))
        return scalar_eval_reference(flipped, u)
    if m.exponent == 1:
        return u
    sign = -1 if u < 0 else 1
    rp = _int_nth_root(abs(u.numerator), m.exponent)
    rq = _int_nth_root(u.denominator, m.exponent)
    if rp is not None and rq is not None:
        return Fraction(sign * rp, rq)
    return Fraction(sign) * Fraction(float(abs(u)) ** (1.0 / m.exponent))


def _frame_sum(coeffs, frame, dim):
    out = [ZERO] * dim
    for c, v in zip(coeffs, frame):
        for i, vi in enumerate(v):
            out[i] += c * vi
    return tuple(out)


def _iso_reference(spec, x, forward: bool):
    x = as_vec(x)
    if isinstance(spec, ComposeIso):
        for p in (spec.parts if forward else reversed(spec.parts)):
            x = _iso_reference(p, x, forward)
        return x
    if not (spec.in_source(x) if forward else spec.in_target(x)):
        raise OutOfDomain("point outside the domain")
    scalar = scalar_eval_reference if forward else scalar_invert_reference
    if isinstance(spec, LinearIso):
        return mat_vec(spec.matrix if forward else spec.inverse, x)
    if isinstance(spec, AffineIso):
        a, b = (spec.source_base, spec.target_base)[::1 if forward else -1]
        return vec_add(b, _iso_reference(spec.inner, vec_sub(x, a), forward))
    if isinstance(spec, DiagonalIso):
        frames = (spec.source_frame, spec.target_frame)[::1 if forward else -1]
        lam = solve(transpose(frames[0]), x)
        if lam is None:
            raise OutOfDomain("point outside the span of the frame")
        dim = (spec.target_cone if forward else spec.source_cone).dim
        return _frame_sum([scalar(g, l) for g, l in zip(spec.maps, lam)], frames[1], dim)
    assert isinstance(spec, ProductLiftIso)
    t, w = spec.split.split(x)
    return spec.split.unsplit(scalar(spec.ray_map, t), _iso_reference(spec.sub, w, forward))


def eval_reference(spec, x):
    """spec.eval(x) by the Fraction formula of its kind."""
    return _iso_reference(spec, x, True)


def invert_reference(spec, y):
    """spec.invert(y) by the Fraction formula of its kind."""
    return _iso_reference(spec, y, False)


def battery_reference(spec, n, seed=0, stop_early=False) -> IsoReport:
    """check_order_iso_sampled on Fraction vectors through eval_reference
    and invert_reference, with the Fraction samplers and the plain
    rejection search for incomparable pairs."""
    src, tgt = spec.source_cone, spec.target_cone
    a, b = spec.source_base, spec.target_base

    def src_leq(x, y):
        return src.leq(x, y) if spec.exact else _leq_tol(src, x, y)

    fwd_violations, inv_violations = [], []
    for i in range(n):
        if i % _CHUNK == 0:
            rng = rng_for(seed, "battery", i // _CHUNK)
        mode = i % 3
        if mode == 0:
            x1 = vec_add(a, cone_point(src, rng))
            x2 = vec_add(x1, cone_point(src, rng))
            try:
                y1, y2 = eval_reference(spec, x1), eval_reference(spec, x2)
            except OutOfDomain:
                fwd_violations.append((x1, x2))
            else:
                if not spec.in_target(y1) or not tgt.leq(y1, y2):
                    fwd_violations.append((x1, x2))
                else:
                    try:
                        r2 = invert_reference(spec, y2)
                    except OutOfDomain:
                        inv_violations.append((y1, y2))
                    else:
                        if not (r2 == x2 if spec.exact else src_leq(x1, r2)):
                            inv_violations.append((y1, y2))
        elif mode == 1:
            pair = incomparable_pair(src, rng)
            if pair is not None:
                x1, x2 = vec_add(a, pair[0]), vec_add(a, pair[1])
                try:
                    y1, y2 = eval_reference(spec, x1), eval_reference(spec, x2)
                except OutOfDomain:
                    fwd_violations.append((x1, x2))
                else:
                    if tgt.leq(y1, y2) or tgt.leq(y2, y1):
                        fwd_violations.append((x1, x2))
        else:
            y1 = vec_add(b, cone_point(tgt, rng))
            y2 = vec_add(y1, cone_point(tgt, rng))
            try:
                r1, r2 = invert_reference(spec, y1), invert_reference(spec, y2)
            except OutOfDomain:
                inv_violations.append((y1, y2))
            else:
                if not src_leq(r1, r2):
                    inv_violations.append((y1, y2))
        if stop_early and (fwd_violations or inv_violations):
            break
    verdict = "Violation" if fwd_violations or inv_violations else "PassedSampling"
    return IsoReport(tuple(fwd_violations), tuple(inv_violations), n, verdict)
