"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the production algorithms: extremality goes through
LP feasibility and the tight-facet rank instead of a lookup among the stored
generators, the parallelogram identity through its own four-corner formula
instead of two-vector additivity, ray/facet enumeration through
exhaustive subset solving instead of double description (and the double
description itself through its Fraction-lineality form), canonical cones
through two DD passes instead of one pass and tight-set masks, suprema through
exhaustive vertex enumeration or, in any dimension, one linear solve of the
facet system with a tight-rank vertex test, Caratheodory decompositions through the
exact simplex instead of the facet walk, total order through the Fraction
cone.leq of each pair instead of one common denominator, engagement through one linear
solve per ray instead of one row reduction per cone, a disengaged split through a
greedy basis and one inverse per split instead of that same reduction, eigendecompositions
through numpy's LAPACK instead of the in-repo Jacobi sweep (and that sweep itself
through m[k][p] indexing instead of bound rows, for equal bytes), the Loewner
order's semidefinite Cholesky through numpy row operations instead of lists of
Python floats, the inf/sup table through every row up to k_max instead of
the rows up to n, the psd fast paths (norms, the shifted order test, the
engagement witness and the congruence image) through the numpy functions
they replaced, and iso specs
and their sampled battery through the per-kind Fraction formulas instead of
the integer cores (the float order test through float() of each Fraction
facet entry instead of the integer normals), and the check-iso identities
through spec.eval and Fraction differences instead of scaled integers and
cross-multiplication.  Every rank, solve and kernel
here goes through rref_reference, Gauss-Jordan on Fractions, instead of the
fraction-free linalg.rref, so no oracle shares an elimination with the code
it checks.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np

from coneorder.cones import PolyhedralCone, _dual, _validated, cone_from_generators
from coneorder.errors import (
    DegenerateSpan,
    DimensionMismatch,
    InternalInconsistency,
    NotColinear,
    NotExtreme,
    NotGenerating,
    NotInCone,
    NotPointed,
    OutOfDomain,
    RayIsEngaged,
    SameRay,
)
from coneorder.iso import (
    AffineFit,
    AffineIso,
    AffineMap,
    ComposeIso,
    DiagonalIso,
    GRow,
    IsoReport,
    LinearIso,
    OddPowerMap,
    PiecewiseLinearMap,
    ProductLiftIso,
    _CHUNK,
    _FLOAT_TOL,
    _int_nth_root,
)
from coneorder.linalg import (
    ONE,
    ZERO,
    as_vec,
    frac,
    identity_matrix,
    is_zero_vec,
    mat_vec,
    primitive,
    scaled_ints,
    transpose,
    unit_vec,
    vec_add,
    vec_dot,
    vec_neg,
    vec_scale,
    zero_vec,
)
from coneorder.lp import positive_combination
from coneorder.order import (
    CombinationCertificate,
    DisengagedSplit,
    ExtremeRayReport,
    SeparatingFunctional,
)
from coneorder.psd import (
    CONSISTENT,
    DEFAULT_TOL,
    INCONSISTENT,
    NOT_UPPER_BOUND,
    ConvergenceRow,
    EngagementWitness,
    SupCheckVerdict,
    SymMatrix,
    _MAX_SWEEPS,
    _PIVOT_TOL,
    _RESCALE_PEAK,
    _as_array,
    _check_unit,
    _leads_negative,
    _rescale_exponent,
    check_size,
    conjugation_iso,
    eigh_jacobi,
    lambda_max,
    psd_leq,
)
from coneorder.sampling import cone_point, incomparable_pair, rng_for


def vec_sub(u, v) -> tuple:
    """u - v entrywise, for vectors of one length."""
    return tuple(a - b for a, b in zip(u, v, strict=True))


def rand_int_vec(rng, dim: int, bound: int = 3) -> tuple:
    """A vector of dim Fractions, each an integer drawn from [-bound, bound]."""
    return as_vec(rng.randint(-bound, bound) for _ in range(dim))


def random_pointed_cone(rng, dim: int, n_gens: int, bound: int = 3,
                        require_generating: bool = False) -> PolyhedralCone:
    """Random pointed cone from integer generators, resampled until pointed
    (and generating, when asked), with at least one generator."""
    if require_generating:
        n_gens = max(n_gens, dim)
    while True:
        gens = [rand_int_vec(rng, dim, bound) for _ in range(n_gens)]
        if all(all(c == 0 for c in g) for g in gens):
            continue
        cone = cone_from_generators(dim, gens)
        if not cone.pointed or not cone._gen_ints:
            continue
        if require_generating and not cone.generating:
            continue
        return cone


def normalize_ray(v) -> tuple:
    """Canonical representative of the ray through v, as Fractions.

    Scales by a positive rational so coordinates are coprime integers.  The
    sign pattern is intrinsic to the ray and never flipped.
    """
    return tuple(Fraction(a) for a in primitive(scaled_ints(v)[0]))


def rref_reference(rows) -> tuple[list, list[int]]:
    """Reduced row echelon form by Gauss-Jordan on Fractions, dividing each
    pivot row by its pivot as it goes: the elimination linalg.rref replaced.
    Plain int rows come out as floats; the helpers below pass Fractions."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _rref(rows):
    return rref_reference([as_vec(r) for r in rows])


def rank_reference(rows) -> int:
    return len(_rref(rows)[1])


def solve_reference(a_rows, b):
    """One solution of A x = b, free variables 0, or None if inconsistent."""
    if not a_rows:
        return None if any(x != 0 for x in b) else ()
    ncols = len(a_rows[0])
    m, pivots = _rref([tuple(r) + (bb,) for r, bb in zip(a_rows, b, strict=True)])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[-1]
    return tuple(x)


def kernel_reference(a_rows, ncols: int) -> list:
    """Basis of {x : A x = 0}: one vector per free column, that column 1."""
    m, pivots = _rref(a_rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [ZERO] * ncols
        x[f] = ONE
        for row, c in zip(m, pivots):
            x[c] = -row[f]
        basis.append(tuple(x))
    return basis


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


def caratheodory_reference(cone, x) -> list:
    """x in a pointed cone as a basic feasible solution of the exact simplex
    over the generators: the positive terms (coefficient, generator)."""
    x = cone._check_dim(x)
    if not cone.pointed:
        raise NotPointed("decomposition needs a pointed cone")
    if not cone.contains(x):
        raise NotInCone("cannot decompose a point outside the cone")
    if all(c == 0 for c in x):
        return []
    coeffs = positive_combination(cone.generators, x)
    if coeffs is None:
        raise NotInCone("decomposition LP infeasible for a cone member")
    return [(c, g) for c, g in zip(coeffs, cone.generators) if c != 0]


def is_totally_ordered_reference(cone, points) -> bool:
    """Every pair of the points is comparable, by the Fraction cone.leq."""
    pts = [as_vec(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if not cone.leq(pts[i], pts[j]) and not cone.leq(pts[j], pts[i]):
                return False
    return True


def is_extreme_tight_rank(cone, r) -> bool:
    """r in a pointed cone spans an extreme ray iff the facets tight at r
    have rank dim - 1."""
    return rank_reference([cone.facets[i] for i in cone.tight_facets(r)]) == cone.dim - 1


def _require_domain(spec, *points):
    for p in points:
        if not spec.in_source(p):
            raise OutOfDomain("configuration point outside the source domain")


def parallelogram_reference(spec, x, r, s) -> bool:
    """f(x+r+s) - f(x+s) == f(x+r) - f(x) for extreme r, s on distinct rays,
    with distinctness decided by a rank test."""
    x, r, s = as_vec(x), as_vec(r), as_vec(s)
    pr = signed_extreme_reference(spec.source_cone, r)
    ps = signed_extreme_reference(spec.source_cone, s)
    if rank_reference([pr, ps]) < 2:
        raise SameRay("r and s must span distinct rays")
    corners = (x, vec_add(x, r), vec_add(x, s), vec_add(vec_add(x, r), s))
    _require_domain(spec, *corners)
    f = [spec.eval(c) for c in corners]
    return vec_sub(f[3], f[2]) == vec_sub(f[1], f[0])


# ---------------------------------------------------------------------------
# The check-iso identities on Fractions, through spec.eval: the formulas
# that the scaled-integer identities of coneorder.iso replaced.


def signed_extreme_reference(cone, v):
    """The positive representative of v's ray; NotExtreme if v is not a
    (possibly negated) extreme vector of the cone."""
    if is_zero_vec(v):
        raise NotExtreme("zero vector is not extreme")
    for cand in (v, vec_neg(v)):
        if cone.contains(cand):
            if cone.is_extreme_vector(cand):
                return cand
            raise NotExtreme("vector lies in the cone but is not extreme")
    raise NotExtreme("neither the vector nor its negative lies in the cone")


def check_additivity_reference(spec, x, s_list) -> bool:
    """Exact test of f(x + sum s_i) - f(x) == sum (f(x + s_i) - f(x)) for
    extreme vectors s_i on pairwise distinct rays."""
    x = as_vec(x)
    ss = [as_vec(s) for s in s_list]
    rays = [normalize_ray(signed_extreme_reference(spec.source_cone, s)) for s in ss]
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            if rays[i] == rays[j]:
                raise SameRay(f"s_{i} and s_{j} lie on the same ray")
    total = x
    for s in ss:
        total = vec_add(total, s)
    fx = spec.eval(x)
    lhs = vec_sub(spec.eval(total), fx)
    rhs = zero_vec(spec.target_cone.dim)
    for s in ss:
        rhs = vec_add(rhs, vec_sub(spec.eval(vec_add(x, s)), fx))
    return lhs == rhs


def extract_g_r_reference(spec, r, basepoints, lambdas):
    """Solve f(x + lam*r) - f(x) = g * (f(x+r) - f(x)) exactly per (x, lam).

    The two difference vectors must be colinear for an order-isomorphism
    (images of a half-line stay on a half-line); NotColinear therefore flags
    a non-isomorphism.
    """
    r = as_vec(r)
    signed_extreme_reference(spec.source_cone, r)
    rows = []
    for x in basepoints:
        x = as_vec(x)
        xr = vec_add(x, r)
        fx = spec.eval(x)
        d0 = vec_sub(spec.eval(xr), fx)
        j = next((k for k, c in enumerate(d0) if c != 0), None)
        if j is None:
            raise NotColinear("f(x + r) equals f(x); map cannot be injective")
        for lam in lambdas:
            lam = frac(lam)
            xl = vec_add(x, vec_scale(lam, r))
            d1 = vec_sub(spec.eval(xl), fx)
            g = d1[j] / d0[j]
            if any(c1 != g * c0 for c0, c1 in zip(d0, d1)):
                raise NotColinear("difference vectors are not parallel")
            rows.append(GRow(lam, x, g))
    return rows


def _image_at_reference(fit, t):
    """The fitted image of the point with coordinates t over the basis."""
    out = list(fit.base_image)
    for tj, img in zip(t, fit.basis_images):
        if tj:
            for i, c in enumerate(vec_sub(img, fit.base_image)):
                out[i] += tj * c
    return tuple(out)


def check_affine_on_reference(spec, points):
    """Fit the unique affine map through an affinely independent subset of the
    points and measure exact residuals at the rest.

    The fit lives in the affine hull of the supplied points, so restricting
    to a low-dimensional stratum (for example the engaged span) works
    without the points spanning the ambient space.  Needs at least k + 2
    points where k is the affine dimension of the point set, so at least
    one point cross-validates the fit.  Forward images are exact, so the
    residuals compare with 0.
    """
    pts = [as_vec(p) for p in points]
    if len(pts) < 2:
        raise DegenerateSpan("need at least two points")
    images = [spec.eval(p) for p in pts]
    p0 = pts[0]
    diffs = [vec_sub(p, p0) for p in pts[1:]]
    # One elimination: the pivots pick the basis, and column j of the
    # reduced matrix holds diffs[j]'s coordinates over it.
    red, sel = _rref(transpose(diffs))
    k = len(sel)
    if len(pts) < k + 2:
        raise DegenerateSpan(f"need at least {k + 2} points for affine dimension {k}")
    basis_pts = tuple(pts[i + 1] for i in sel)
    basis_imgs = tuple(images[i + 1] for i in sel)
    fit = AffineFit(True, ZERO, p0, basis_pts, images[0], basis_imgs)

    max_res = ZERO
    witness = None
    basis_set = {0} | {i + 1 for i in sel}
    for idx, (p, img) in enumerate(zip(pts, images)):
        if idx in basis_set:
            continue
        pred = _image_at_reference(fit, [row[idx - 1] for row in red[:k]])
        res = max(abs(c) for c in vec_sub(img, pred))
        if res > max_res:
            max_res, witness = res, p
    return AffineFit(max_res == 0, max_res, p0, basis_pts, images[0],
                     basis_imgs, witness)


def check_positively_homogeneous_reference(spec, samples, scalars) -> bool:
    """Exact test of f(lam * u) == lam * f(u) over all sample/scalar pairs."""
    for u in samples:
        u = as_vec(u)
        fu = spec.eval(u)
        for lam in scalars:
            lam = frac(lam)
            lu = vec_scale(lam, u)
            if spec.eval(lu) != vec_scale(lam, fu):
                return False
    return True


def halfline_image_check_reference(spec, apex, r, lambdas) -> bool:
    """True iff the images of apex + lam*r lie on one half-line from f(apex)
    whose direction is extreme in the target cone."""
    apex, r = as_vec(apex), as_vec(r)
    signed_extreme_reference(spec.source_cone, r)
    base = spec.eval(apex)
    direction = None
    for lam in lambdas:
        lam = frac(lam)
        p = vec_add(apex, vec_scale(lam, r))
        diff = vec_sub(spec.eval(p), base)
        if is_zero_vec(diff):
            if lam != 0:
                return False
            continue
        if direction is None:
            direction = diff
            continue
        j = next(k for k, c in enumerate(direction) if c != 0)
        c = diff[j] / direction[j]
        if c < 0 or any(d1 != c * d0 for d0, d1 in zip(direction, diff)):
            return False
    if direction is None:
        return True
    if not spec.target_cone.contains(direction):
        return False
    return spec.target_cone.is_extreme_vector(direction)


def minimal_generators(gens) -> list:
    """Normalized extreme members of a generating list, by the LP oracle."""
    rays = sorted({normalize_ray(g) for g in gens if any(c != 0 for c in g)})
    return sorted(r for i, r in enumerate(rays) if is_extreme_among(rays, i))


def rays_from_facets_bruteforce(dim, facets) -> list:
    """Extreme rays of {x : <h,x> >= 0} by solving all (dim-1)-subsets."""
    out = set()
    for subset in combinations(facets, dim - 1):
        if rank_reference(subset) != dim - 1:
            continue
        kern = kernel_reference(list(subset), dim)
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
    lin = kernel_reference(rows, dim)
    rank = dim - len(lin)
    out = set()
    for subset in combinations(rows, max(rank - 1, 0)):
        kern = kernel_reference(list(subset) + lin, dim)
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


def cone_from_generators_reference(dim: int, gens) -> PolyhedralCone:
    """cone_from_generators by two DD passes: the facets from the nonzero
    normalized generators, then the canonical generators from the facets,
    each pass saying whether its cone has lineality."""
    seen = sorted({normalize_ray(g) for g in _validated(dim, gens, "generator")
                   if any(c != 0 for c in g)})
    facets, generating = _dual(dim, seen)
    generators, pointed = _dual(dim, facets)
    return PolyhedralCone(dim, generators, facets, pointed, generating)


def cone_from_facets_reference(dim: int, facets) -> PolyhedralCone:
    """cone_from_facets by two DD passes, the mirror of
    cone_from_generators_reference."""
    system = sorted({normalize_ray(f) for f in _validated(dim, facets, "facet normal")
                     if any(c != 0 for c in f)})
    generators, pointed = _dual(dim, system)
    facets, generating = _dual(dim, generators)
    return PolyhedralCone(dim, generators, facets, pointed, generating)


def facets_from_rays_bruteforce(dim, rays) -> list:
    """Facet normals of a full-dimensional cone(R): extreme rays of the dual."""
    return rays_from_facets_bruteforce(dim, rays)


def _bound_system(cone, points, upper: bool) -> tuple[list, list]:
    """(rows, rhs): the upper (lower) bounds of the points are the z with
    <row_j, z> >= rhs_j, one row per facet normal h, negated for lower
    bounds: <h, z> >= max <h, p>, or <-h, z> >= -min <h, p>."""
    rows, rhs = [], []
    for h in cone.facets:
        vals = [vec_dot(h, p) for p in points]
        if upper:
            rows.append(tuple(h))
            rhs.append(max(vals))
        else:
            rows.append(vec_neg(h))
            rhs.append(-min(vals))
    return rows, rhs


def bound_vertices_bruteforce(cone, points, upper=True) -> list:
    """All vertices of the upper/lower bound polyhedron by subset solving."""
    rows, rhs = _bound_system(cone, points, upper)
    d = cone.dim
    verts = set()
    for idx in combinations(range(len(rows)), d):
        sub = [rows[i] for i in idx]
        if rank_reference(sub) != d:
            continue
        z = solve_reference(sub, tuple(rhs[i] for i in idx))
        if z is None:
            continue
        if all(vec_dot(rows[i], z) >= rhs[i] for i in range(len(rows))):
            verts.add(z)
    return sorted(verts)


def bound_certificate(cone, points, upper=True):
    """The supremum (infimum when upper=False) of the points in a pointed
    generating cone by one solve, or None when it does not exist.

    The upper bound set is U = {z : Hz >= b}, H the facet normals and
    b_j = max_i <h_j, x_i>.  Facet inequalities of a full-dimensional
    polyhedron are unique up to scaling (Schrijver 1986, ch. 8), so U is
    v + K exactly when Hv = b, and v is then the supremum; H has rank d
    because K is pointed, so v is unique.  Infima follow by the sign flip.
    """
    rows, rhs = _bound_system(cone, points, upper)
    return solve_reference(rows, rhs)


def is_bound_vertex(cone, points, w, upper=True) -> bool:
    """w is a vertex of the upper (lower) bound set of the points: it meets
    every bound inequality, and the normals tight at w have rank d."""
    rows, rhs = _bound_system(cone, points, upper)
    vals = [vec_dot(r, w) for r in rows]
    if any(v < b for v, b in zip(vals, rhs)):
        return False
    return rank_reference([r for r, v, b in zip(rows, vals, rhs) if v == b]) == cone.dim


def eval_infsup_certificate(cone, expr):
    """eval_infsup bottom-up through bound_certificate; None when some node
    has no supremum or infimum."""
    if expr.kind == "leaf":
        return tuple(expr.vec)
    vals = [eval_infsup_certificate(cone, c) for c in expr.children]
    if any(v is None for v in vals):
        return None
    return bound_certificate(cone, vals, upper=expr.kind == "sup")


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
        coeffs = solve_reference(transpose(others), g) if others else None
        if coeffs is not None:
            pairs = tuple((j, c) for j, c in zip(other_idx, coeffs) if c != 0)
            reports.append(ExtremeRayReport(i, g, True, CombinationCertificate(pairs)))
        else:
            phi = next(normalize_ray(cand) for cand in kernel_reference(others, cone.dim)
                       if vec_dot(cand, g) != 0)
            reports.append(ExtremeRayReport(i, g, False, SeparatingFunctional(phi)))
    return reports


def independent_subset_greedy(vectors) -> list:
    """Keep each vector that raises the rank of those kept before it."""
    chosen, rows = [], []
    for i, v in enumerate(vectors):
        if rank_reference(rows + [tuple(v)]) > len(rows):
            rows.append(tuple(v))
            chosen.append(i)
    return chosen


def inverse_reference(rows):
    """Inverse of a square matrix, one solve per column of the identity;
    None when some column has no solution, that is, when it is singular."""
    n = len(rows)
    cols = [solve_reference(rows, unit_vec(n, k)) for k in range(n)]
    return None if any(c is None for c in cols) else transpose(cols)


def disengaged_split_reference(cone, ray_index) -> DisengagedSplit:
    """disengaged_split by per-split eliminations: the greedy basis of W
    among the other generators, the inverse of [ray | basis], and every
    generator mapped through it.  This was the library's split before it
    read the cone's one elimination; its eliminations now run through the
    Fraction oracles."""
    if cone.dim < 2:
        raise DimensionMismatch(
            f"splitting along a ray needs a cone of dimension >= 2, got {cone.dim}")
    if not cone.pointed:
        raise NotPointed("splitting needs a pointed cone")
    if not cone.generating:
        raise NotGenerating("splitting needs a generating cone")
    gens = cone.generators
    if not 0 <= ray_index < len(gens):
        raise ValueError(f"ray index {ray_index} out of range")
    if classify_engaged_reference(cone)[ray_index].engaged:
        raise RayIsEngaged(f"ray {ray_index} lies in the span of the others")
    r = gens[ray_index]
    others = [gens[j] for j in range(len(gens)) if j != ray_index]
    cols = [r] + [others[j] for j in independent_subset_greedy(others)]
    if len(cols) != cone.dim:
        raise InternalInconsistency("split basis does not span the ambient space")
    proj = inverse_reference(transpose(cols))
    if proj is None:
        raise InternalInconsistency("split basis is singular")
    sub_gens = []
    for g in others:
        c = mat_vec(proj, g)
        if c[0] != 0:
            raise InternalInconsistency("generator outside W after split")
        sub_gens.append(c[1:])
    subcone = cone_from_generators(cone.dim - 1, sub_gens)
    if mat_vec(proj, r) != unit_vec(cone.dim, 0):
        raise InternalInconsistency("ray does not map to the first split axis")
    return DisengagedSplit(ray=r, subcone=subcone, projection=proj, basis=tuple(cols))


def eigh_oracle(a):
    return np.linalg.eigh(np.asarray(a, dtype=float))


def eigh_jacobi_reference(a) -> tuple[np.ndarray, np.ndarray]:
    """psd.eigh_jacobi with every entry read and written as m[k][p]: the
    same float operations in the same order, so the same bytes."""
    m = np.asarray(a.array if isinstance(a, SymMatrix) else a, dtype=float).tolist()
    n = len(m)
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    norm = math.hypot(*(x for row in m for x in row))
    e = _rescale_exponent(max(abs(x) for row in m for x in row)) if norm > _RESCALE_PEAK else 0
    if e:
        m = [[math.ldexp(x, -e) for x in row] for row in m]
        norm = math.hypot(*(x for row in m for x in row))
    norm = max(norm, 1e-300)
    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += m[i][j] * m[i][j]
        if math.sqrt(2.0 * off) < 1e-14 * norm:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = m[p][r]
                if apr == 0.0:
                    continue
                theta = (m[r][r] - m[p][p]) / (2.0 * apr)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    mkp, mkr = m[k][p], m[k][r]
                    m[k][p] = c * mkp - s * mkr
                    m[k][r] = s * mkp + c * mkr
                for k in range(n):
                    mpk, mrk = m[p][k], m[r][k]
                    m[p][k] = c * mpk - s * mrk
                    m[r][k] = s * mpk + c * mrk
                for k in range(n):
                    vkp, vkr = v[k][p], v[k][r]
                    v[k][p] = c * vkp - s * vkr
                    v[k][r] = s * vkp + c * vkr
    evals = np.array([m[i][i] * 2.0 ** e for i in range(n)])
    vecs = np.array(v)
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    vecs = vecs[:, order]
    for j in range(n):
        if _leads_negative(vecs[:, j]):
            vecs[:, j] = -vecs[:, j]
    return evals, vecs


def psd_cholesky_reference(m) -> bool:
    """psd._psd_cholesky on a numpy array, row operation by row operation:
    the pivot rule and the rescaling are the same, each step a numpy slice
    operation instead of a Python float loop."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    peak = float(np.max(np.abs(a)))
    e = _rescale_exponent(peak)
    if e:
        a = np.ldexp(a, -e)
        peak = math.ldexp(peak, -e)
    scale = max(1.0, peak)
    for k in range(n):
        d = a[k, k]
        if d < -_PIVOT_TOL * scale:
            return False
        if d <= _PIVOT_TOL * scale:
            # semidefinite pivot: the rest of the row must vanish too
            if k + 1 < n and float(np.max(np.abs(a[k, k + 1:]))) > (
                math.sqrt(max(d, 0.0) * scale) + _PIVOT_TOL * scale
            ):
                return False
            a[k, k:] = 0.0
            continue
        a[k, k] = math.sqrt(d)
        a[k, k + 1:] /= a[k, k]
        for j in range(k + 1, n):
            a[j, j:] -= a[k, j] * a[k, j:]
    return True


def identity_sup_check_reference(n: int, b, m: int = 10000, seed: int = 0,
                                 tol=DEFAULT_TOL) -> SupCheckVerdict:
    """psd.identity_sup_check with each sample tested by the public psd_leq
    on np.outer(x, x), which validates b again for every sample."""
    b = _as_array(b)
    if b.shape[0] != n:
        raise DimensionMismatch("matrix size does not match n")
    rng = np.random.default_rng(seed)
    lam_min, vecs = eigh_jacobi(b)
    bottom = vecs[:, 0]
    samples = [bottom]
    for _ in range(m):
        v = rng.normal(size=n)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-12:
            samples.append(v / nrm)
    for x in samples:
        if not psd_leq(np.outer(x, x), b, tol.eig_tol):
            return SupCheckVerdict(NOT_UPPER_BOUND, float(lam_min[0]), len(samples), x)
    if float(lam_min[0]) >= 1.0 - tol.cmp_tol:
        return SupCheckVerdict(CONSISTENT, float(lam_min[0]), len(samples))
    return SupCheckVerdict(INCONSISTENT, float(lam_min[0]), len(samples), bottom)


def norm_reference(v) -> float:
    """psd._norm as np.linalg.norm."""
    return float(np.linalg.norm(v))


def psd_leq_reference(a, b, tol: float = DEFAULT_TOL.eig_tol) -> bool:
    """psd.psd_leq with the shift added as the matrix tol * np.eye(n)."""
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise DimensionMismatch("matrices must have the same size")
    diff = b - a + tol * np.eye(a.shape[0])
    return psd_cholesky_reference(diff)


def engagement_witness_reference(x) -> EngagementWitness:
    """psd.engagement_witness through np.argmin, np.outer, np.linalg.norm
    and the basis vector e_j."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    check_size(n)
    _check_unit(x)
    j = int(np.argmin(np.abs(x)))
    e = np.zeros(n)
    e[j] = 1.0
    u = e - x[j] * x
    w = u / float(np.linalg.norm(u))
    if _leads_negative(w):
        w = -w
    y = (x + w) / math.sqrt(2.0)
    z = (x - w) / math.sqrt(2.0)
    px = np.outer(x, x)
    combo = np.outer(y, y) + np.outer(z, z) - np.outer(w, w)
    residual = float(np.linalg.norm(px - combo))
    return EngagementWitness(y=y, z=z, w=w, residual=residual)


def congruence_reference(s: np.ndarray, q: np.ndarray) -> SymMatrix:
    """psd._congruence with the symmetrized product validated and
    symmetrized again by the public SymMatrix constructor."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = s @ q @ s
        return SymMatrix((m + m.T) / 2)


def infsup_approx_reference(a, k_max: int = 16, seed: int = 0) -> list[ConvergenceRow]:
    """psd.infsup_approx as it was before it stopped at row n: every row
    k = 1..k_max is computed, those past n too, with a fresh identity and
    I - P_k formed twice a step.  It keeps no guard for an A + I that is
    not positive definite."""
    a = _as_array(a)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    dirs: list[np.ndarray] = []
    while len(dirs) < n:
        v = rng.normal(size=n)
        for u in dirs:
            v = v - np.dot(u, v) * u
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-8:
            dirs.append(v / nrm)
    s = conjugation_iso(a + np.eye(n)).sqrt
    rows: list[ConvergenceRow] = []
    basis = np.zeros((n, 0))
    for k in range(1, k_max + 1):
        if k <= n:
            basis = np.column_stack([basis, dirs[k - 1]])
        p = basis @ basis.T
        ident = np.eye(n)
        d_k = lambda_max(s @ (ident - p) @ s)
        e_k = lambda_max(ident - p)
        rows.append(ConvergenceRow(k, max(d_k, 0.0), max(e_k, 0.0)))
    return rows


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
        lam = solve_reference(transpose(frames[0]), x)
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


def leq_tol_reference(cone, x, y) -> bool:
    """iso._leq_tol on the Fraction facet normals, each entry through float()."""
    z = [float(b) - float(a) for a, b in zip(x, y)]
    scale = max(1.0, max(abs(c) for c in z))
    for h in cone.facets:
        if sum(float(hc) * zc for hc, zc in zip(h, z)) < -_FLOAT_TOL * scale:
            return False
    return True


def battery_reference(spec, n, seed=0) -> IsoReport:
    """check_order_iso_sampled on Fraction vectors through eval_reference
    and invert_reference, with the Fraction samplers and the plain
    rejection search for incomparable pairs."""
    src, tgt = spec.source_cone, spec.target_cone
    a, b = spec.source_base, spec.target_base

    def src_leq(x, y):
        return src.leq(x, y) if spec.exact else leq_tol_reference(src, x, y)

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
    verdict = "Violation" if fwd_violations or inv_violations else "PassedSampling"
    return IsoReport(tuple(fwd_violations), tuple(inv_violations), n, verdict)
