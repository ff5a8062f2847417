"""Order-theoretic computations on a cone.

Finite suprema and infima are decided exactly by enumerating the vertices of
the upper (or lower) bound polyhedron: for a pointed cone the bound set
U(S) = intersection of translates p + C is a polyhedron whose recession cone
is C, so S has a least upper bound exactly when U(S) has a single vertex.
The double description of U(S)'s homogenization continues from the known
DD pair of one translate p + C (its apex and the cone's extreme rays, with
their tight facets) and adds only the facets where p does not attain the
bound, deepest first; only the vertex count and the two smallest vertices
are built.
On top of that sit order intervals, inf-sup expression evaluation, the
engaged/disengaged classification of extreme rays, the Cartesian splitting
along a disengaged ray, the order-unit norm, and the hypothesis test for the
linearity theorem specialized to polyhedral cones.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import eq, mul

from .cones import PolyhedralCone, cone_from_generators, double_description
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotComparable,
    NotGenerating,
    NotInCone,
    NotOrderUnit,
    NotPointed,
    RayIsEngaged,
    UndefinedLattice,
)
from .linalg import (
    Matrix,
    ONE,
    Vec,
    ZERO,
    as_vec,
    frac,
    is_zero_vec,
    kernel_basis,
    mat_vec,
    primitive,
    scaled_ints,
    scaled_rows,
    transpose,
    unit_vec,
    vec_add,
    vec_neg,
    vec_scale,
)
from .sampling import rng_for

EXISTS = "exists"
NO_UPPER_BOUND = "no_upper_bound"
NO_LEAST_UPPER_BOUND = "no_least_upper_bound"


@dataclass(frozen=True)
class SupResult:
    """Outcome of a finite supremum (or, read dually, infimum) computation.

    For infima the outcome labels keep their names but mean the dual thing:
    ``no_upper_bound`` signals an empty lower-bound set.
    """

    outcome: str
    value: Vec | None = None
    witnesses: tuple[Vec, Vec] | None = None

    @property
    def exists(self) -> bool:
        return self.outcome == EXISTS


def _bound_table(cone: PolyhedralCone, pts, upper: bool):
    """(vals, bounds) for the upper (lower) bounds of the integer points
    pts: vals[k][j] = <h_j, pts[k]> for the facet normals h_j, and
    bounds[j] the max (lower bounds: min) of vals[.][j]."""
    vals = [[sum(map(mul, h, p)) for h in cone._facet_ints] for p in pts]
    return vals, list(map(max if upper else min, zip(*vals)))


def _bound_row(h, den: int, bound: int, upper: bool) -> tuple[int, ...]:
    """The homogenized row of <h, z> >= bound / den (lower: <=) in integers:
    (den*h, -bound), negated for lower bounds, a positive multiple of the
    Fraction row, which leaves the double description unchanged."""
    s = 1 if upper else -1
    return tuple(s * den * c for c in h) + (-s * bound,)


def _vertices(dim: int, rows) -> tuple[list[Vec], list[Vec], list[Vec]]:
    """Sorted vertices, lineality basis and recession directions of
    {z : <h, (z, 1)> >= 0 for every row h}, read off one double description
    of its homogenization with t >= 0 added: a ray with last coordinate
    t > 0 is t times a vertex, one with t = 0 a recession direction.

    t >= 0 is the first constraint, not the last: taken last, the run
    first builds the whole t < 0 side of the homogenization only to cut
    it away, and tries 2.7 times as many ray pairs on the perfbench
    lattice round.  The rays and the lineality basis do not depend on the
    order (see double_description), and the vertices are sorted.  The DD's
    rays are ints, so each vertex is built as Fractions c / t from them.
    This is the cold run: interval_sample reads all of its output, and it
    is the reference for _bound_vertices."""
    lin, rays = double_description(dim + 1, [unit_vec(dim + 1, dim)] + rows)
    verts = sorted(tuple(Fraction(c, r[dim]) for c in r[:dim]) for r in rays if r[dim])
    return (verts, [l[:dim] for l in lin],
            [tuple(map(Fraction, r[:dim])) for r in rays if not r[dim]])


def _bound_vertices(cone: PolyhedralCone, pts, den: int, upper: bool) -> tuple[int, list[Vec]]:
    """The number of vertices of the set U of upper (lower) bounds of the
    points pts / den, for integer points pts over one den > 0 as
    ``PolyhedralCone._scaled`` gives them, and its (at most) two
    lexicographically smallest vertices.

    U is the intersection of the translates p + C (lower: p - C), and its
    homogenization {(z, t) : t >= 0, <h, z> >= t * max <h, p>} is found by
    one double description that starts from the homogenized translate of
    the point p* that attains the bound on the most facets (the first such
    point on ties).  That cone, t >= 0 cut by the rows of p* + C, is
    pointed, and its DD pair is known: the apex (p*, 1), tight on every
    facet row, and (g, 0) per generator g of C (-g for lower bounds),
    tight on t >= 0 and on g's facets, ``_gen_tight``.  The run then gets
    only the rows p* does not attain: an attained row is one of p* + C's,
    and a row not attained is stronger than p* + C's for the same facet,
    since t >= 0.  So the result is that of the cold run of _vertices on
    all rows.

    The rows come deepest first: by p*'s max-norm distance |b - <h, p*>| /
    |h|_1 to the row's hyperplane, compared exactly as integers over the
    lcm of the norms, ties in facet order.  The rays do not depend on the
    order (see double_description), but the intermediate ones do (Fukuda
    and Prodon 1996; Avis, Bremner and Seidel 1997).  On the perfbench
    lattice round the 89 bound DDs try 30,691 ray pairs and build 2,095
    rays in this order, against 60,748 and 2,999 in facet order.

    The rays with t = 0 must be exactly the generators of C (-C), the
    recession cone of U, or of the face t = 0 when U is empty.  The
    vertices z / t are compared as integer keys over the lcm of the t
    values, and only the returned ones are built as Fractions."""
    dim, facets = cone.dim, cone._facet_ints
    vals, bounds = _bound_table(cone, pts, upper)
    attained = [sum(map(eq, row, bounds)) for row in vals]
    k = attained.index(max(attained))
    # (gap, |h|_1, h, b) per row p* does not attain; its depth gap / |h|_1
    # times the lcm of the norms is an integer, and the sort is stable
    cut = [(abs(b - v), sum(map(abs, h)), h, b)
           for h, v, b in zip(facets, vals[k], bounds) if v != b]
    norms_lcm = lcm(*[c[1] for c in cut])
    cut.sort(key=lambda c: c[0] * (norms_lcm // c[1]), reverse=True)
    rows = [_bound_row(h, den, b, upper) for _, _, h, b in cut]
    gens = cone._gen_ints if upper else [vec_neg(g) for g in cone._gen_ints]
    t_bit = 1 << len(facets)
    start = ([primitive(pts[k] + (den,))] + [g + (0,) for g in gens],
             [t_bit - 1] + [m | t_bit for m in cone._gen_tight],
             len(facets) + 1)
    lin, rays = double_description(dim + 1, rows, start)
    if lin:
        raise InternalInconsistency("bound polyhedron of a pointed cone has lineality")
    if sorted(r[:dim] for r in rays if not r[dim]) != sorted(gens):
        raise InternalInconsistency("recession cone of a bound polyhedron is not the cone")
    tops = [r for r in rays if r[dim]]
    if not tops:
        return 0, []
    scale = lcm(*[r[dim] for r in tops])
    keys = sorted(tuple(c * (scale // r[dim]) for c in r[:dim]) for r in tops)
    return len(tops), [tuple(Fraction(c, scale) for c in key) for key in keys[:2]]


def _extremum(cone: PolyhedralCone, points, upper: bool) -> SupResult:
    """Shared body of supremum (upper=True) and infimum (upper=False)."""
    pts, den = cone._scaled(points)
    if not pts:
        raise ValueError(f"{'supremum' if upper else 'infimum'} needs at least one point")
    if not cone.pointed:
        raise NotPointed(f"{'suprema' if upper else 'infima'} are computed for pointed cones only")
    count, smallest = _bound_vertices(cone, pts, den, upper)
    if not count:
        return SupResult(NO_UPPER_BOUND)
    if count == 1:
        return SupResult(EXISTS, value=smallest[0])
    return SupResult(NO_LEAST_UPPER_BOUND, witnesses=tuple(smallest))


def supremum(cone: PolyhedralCone, points) -> SupResult:
    """Least upper bound of finitely many points, with certificates.

    Exists(z) comes with the guarantee that the upper bound set equals
    z + C; otherwise the two lexicographically smallest vertices of the
    upper bound set witness the failure, or the set is empty.
    """
    return _extremum(cone, points, upper=True)


def infimum(cone: PolyhedralCone, points) -> SupResult:
    """Greatest lower bound; the exact dual of supremum via the order of -C."""
    return _extremum(cone, points, upper=False)


def interval_sample(cone: PolyhedralCone, x, y, n: int, seed: int = 0) -> list[Vec]:
    """n deterministic points of the order interval [x, y].

    The interval is the convex hull of its vertices plus the cone's
    lineality space (Minkowski-Weyl).  Each point is a convex combination of
    the vertices with positive integer weights plus a multiple in [-3, 3],
    in steps of 1/1024, of each lineality direction, so every draw lies in
    [x, y], degenerate intervals such as a segment [0, r] included.
    """
    (xi, yi), xy_den = cone._scaled([x, y])
    if not cone._leq_ints(xi, yi):
        raise NotComparable("interval [x, y] needs x <= y")
    if n <= 0:
        return []
    d = cone.dim
    # <h, z> >= <h, x> and <h, z> <= <h, y> for each facet h, over x and
    # y's one denominator
    bounds = [row for h in cone._facet_ints
              for row in (_bound_row(h, xy_den, sum(map(mul, h, xi)), True),
                          _bound_row(h, xy_den, sum(map(mul, h, yi)), False))]
    verts, free_dirs, recession = _vertices(d, bounds)
    if recession:
        raise InternalInconsistency("order interval with unbounded recession")
    rows, scale = scaled_rows(verts + free_dirs)
    cols = list(zip(*rows))
    rng = rng_for(seed, "interval")
    den = 1 << 10
    out: list[Vec] = []
    for _ in range(n):
        weights = [rng.randint(1, den) for _ in verts]
        total = sum(weights)
        # z = sum(w v) / total + sum(t l) / den over the common denominator
        coeffs = [den * w for w in weights]
        coeffs += [total * rng.randrange(-3 * den, 3 * den + 1) for _ in free_dirs]
        out.append(tuple(Fraction(sum(map(mul, coeffs, col)), den * total * scale)
                         for col in cols))
    return out


def is_totally_ordered(cone: PolyhedralCone, points) -> bool:
    """True iff every pair of the points is comparable, tested on one scale."""
    rows, _ = cone._scaled(points)
    leq = cone._leq_ints
    return all(leq(p, q) or leq(q, p) for p, q in combinations(rows, 2))


# ---------------------------------------------------------------------------
# Inf-sup expressions


@dataclass(frozen=True)
class InfSupExpr:
    """Finite expression tree of suprema and infima over vector leaves."""

    kind: str  # "leaf" | "sup" | "inf"
    vec: Vec | None = None
    children: tuple["InfSupExpr", ...] = ()

    def __post_init__(self):
        if self.kind == "leaf":
            if self.vec is None or self.children:
                raise ValueError("leaf nodes carry exactly one vector")
        elif self.kind in ("sup", "inf"):
            if not self.children or self.vec is not None:
                raise ValueError(f"{self.kind} nodes need at least one child")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")


def leaf(v) -> InfSupExpr:
    return InfSupExpr("leaf", vec=as_vec(v))


def sup_expr(*children: InfSupExpr) -> InfSupExpr:
    return InfSupExpr("sup", children=tuple(children))


def inf_expr(*children: InfSupExpr) -> InfSupExpr:
    return InfSupExpr("inf", children=tuple(children))


def eval_infsup(cone: PolyhedralCone, expr: InfSupExpr, _path=()) -> Vec:
    """Bottom-up evaluation; raises UndefinedLattice naming the failing node."""
    if expr.kind == "leaf":
        return cone._check_dim(expr.vec)
    vals = [eval_infsup(cone, c, _path + (i,)) for i, c in enumerate(expr.children)]
    res = supremum(cone, vals) if expr.kind == "sup" else infimum(cone, vals)
    if not res.exists:
        raise UndefinedLattice(_path, detail=res.outcome, witnesses=res.witnesses)
    return res.value


def _scaled_expr(lam: Fraction, e: InfSupExpr) -> InfSupExpr:
    if e.kind == "leaf":
        return leaf(vec_scale(lam, e.vec))
    return InfSupExpr(e.kind, children=tuple(_scaled_expr(lam, c) for c in e.children))


def _sum_expr(e1: InfSupExpr, e2: InfSupExpr) -> InfSupExpr:
    # Distributes one quantifier at a time; valid because sup and inf commute
    # with translation, which is how the product representation of a positive
    # combination of two inf-sup elements is built.
    if e1.kind == "leaf" and e2.kind == "leaf":
        return leaf(vec_add(e1.vec, e2.vec))
    if e1.kind != "leaf":
        return InfSupExpr(e1.kind, children=tuple(_sum_expr(c, e2) for c in e1.children))
    return InfSupExpr(e2.kind, children=tuple(_sum_expr(e1, c) for c in e2.children))


def combine_infsup(expr_x: InfSupExpr, expr_y: InfSupExpr, lam, mu) -> InfSupExpr:
    """The inf-sup expression representing lam*x + mu*y built leafwise."""
    lam, mu = frac(lam), frac(mu)
    if lam < 0 or mu < 0:
        raise ValueError("combination coefficients must be nonnegative")
    return _sum_expr(_scaled_expr(lam, expr_x), _scaled_expr(mu, expr_y))


def infsup_linearity_check(cone: PolyhedralCone, expr_x: InfSupExpr,
                           expr_y: InfSupExpr, lam, mu) -> bool:
    """Exact check that evaluating the combined expression equals the
    combination of the evaluations."""
    lam, mu = frac(lam), frac(mu)
    lhs = eval_infsup(cone, combine_infsup(expr_x, expr_y, lam, mu))
    vx = eval_infsup(cone, expr_x)
    vy = eval_infsup(cone, expr_y)
    rhs = vec_add(vec_scale(lam, vx), vec_scale(mu, vy))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Engaged / disengaged classification


@dataclass(frozen=True)
class CombinationCertificate:
    """Exact coefficients writing the ray generator in the span of the others."""

    coefficients: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class SeparatingFunctional:
    """Functional vanishing on all other extreme generators, nonzero on this one."""

    functional: Vec


@dataclass(frozen=True)
class ExtremeRayReport:
    ray_index: int
    generator: Vec
    engaged: bool
    certificate: CombinationCertificate | SeparatingFunctional


def classify_engaged(cone: PolyhedralCone) -> list[ExtremeRayReport]:
    """Engaged/disengaged verdict with a verifying certificate per extreme ray.

    A ray is engaged when its generator lies in the linear span of the other
    extreme rays' generators.  Everything comes from one elimination of the
    matrix G whose columns are the generators: its reduced echelon form R
    and the invertible E with E G = R (``PolyhedralCone._gen_echelon``).
    A non-pivot column i is engaged.  A pivot column i with row p is
    engaged iff another column k has R[p][k] != 0; the first such k takes
    i's place in the pivot set.  Either way the certificate solves the
    dependency g_k = sum over pivots q of R[row q][k] * g_q for g_i (k = i
    for a non-pivot column), which gives the combination over the greedy
    basis of the other generators.

    Otherwise i is disengaged and <E[p], g_j> = R[p][j] is 1 for j = i and
    0 for every other generator.  The functional is that row, scaled to
    coprime integers with its last nonzero entry positive: the kernel
    vector of the other generators that is 1 at its last free column.  When
    G has rank below dim, the row is first cleared at the free columns of
    one kernel basis of all generators, so it is the kernel vector of the
    others that is 1 at the one free column they have beyond those.

    Certificates are checked exactly before being returned, as integer
    identities on the primitive integer generators: den * g_i == sum n_j g_j
    for coefficients n_j / den, and <phi, g_i> != 0 with <phi, g_j> == 0 for
    every other generator.  The reports are computed once per cone and kept
    on it; each call returns a fresh list.
    """
    if not cone.pointed:
        raise NotPointed("engagement is defined for pointed cones")
    return list(cone._engagement)


def _functional(row, normals) -> tuple[int, ...]:
    """row cleared at the free column of each normal (its last nonzero
    entry, where it is 1), as coprime integers whose last nonzero entry is
    positive."""
    for n in normals:
        c = row[max(j for j, a in enumerate(n) if a)]
        if c:
            row = [a - c * b for a, b in zip(row, n)]
    v = primitive(scaled_ints(row)[0])
    return v if next(a for a in reversed(v) if a) > 0 else vec_neg(v)


def _classify_engaged(cone: PolyhedralCone) -> list[ExtremeRayReport]:
    """classify_engaged's reports for a pointed cone, uncached."""
    gens, ints = cone.generators, cone._gen_ints
    red, eye, pivots = cone._gen_echelon
    pivot_row = {c: r for r, c in enumerate(pivots)}
    normals = None
    reports = []
    for i, g in enumerate(gens):
        p = pivot_row.get(i)
        k = i if p is None else next((j for j in range(i + 1, len(gens)) if red[p][j] != 0), None)
        if k is not None:
            dep = {q: -red[r][k] for q, r in pivot_row.items()}
            dep[k] = ONE
            pairs = tuple((j, -c / dep[i]) for j, c in sorted(dep.items()) if j != i and c != 0)
            nums, den = scaled_ints([c for _, c in pairs])
            cols = zip(*[ints[j] for j, _ in pairs])
            if [sum(map(mul, nums, col)) for col in cols] != [den * a for a in ints[i]]:
                raise InternalInconsistency("combination certificate failed to verify")
            reports.append(ExtremeRayReport(i, g, True, CombinationCertificate(pairs)))
        else:
            if normals is None:
                normals = kernel_basis(ints, cone.dim) if len(pivots) < cone.dim else []
            phi = _functional(eye[p], normals)
            if (not sum(map(mul, phi, ints[i]))
                    or any(sum(map(mul, phi, o)) for j, o in enumerate(ints) if j != i)):
                raise InternalInconsistency("separating functional failed to verify")
            reports.append(ExtremeRayReport(i, g, False, SeparatingFunctional(as_vec(phi))))
    return reports


@dataclass(frozen=True)
class DisengagedSplit:
    """Cartesian factorization of (X, C) along a disengaged extreme ray.

    ``projection`` maps ambient coordinates to split coordinates: the first
    coordinate is the multiple of the ray, the rest are coordinates in the
    basis of W = span of the other extreme generators, where ``subcone``
    lives.  ``basis`` lists the inverse images (ray first, then the basis of
    W) as columns of projection^{-1}.  ``split`` and ``unsplit`` are the two
    exact Fraction products; a vector of the wrong length, w included, is a
    ValueError.
    """

    ray: Vec
    subcone: PolyhedralCone
    projection: Matrix
    basis: tuple[Vec, ...]

    def split(self, x) -> tuple[Fraction, Vec]:
        c = mat_vec(self.projection, x)
        return c[0], c[1:]

    def unsplit(self, t, w) -> Vec:
        return mat_vec(transpose(self.basis), (t, *w))


def disengaged_split(cone: PolyhedralCone, ray_index: int) -> DisengagedSplit:
    """Split (X, C) as (R + W, R_+ x subcone) along a disengaged extreme ray.

    Requires the cone to be generating so the ray and W together span the
    ambient space.  Read off the cone's one elimination E G = R that also
    gives its engagement reports: with p the ray's pivot row, the pivot
    generators in the row order [p, the other pivot rows] are the basis,
    E's rows in that order are its inverse, the projection, and the other
    generators' columns of R in those rows are their split coordinates.
    Verified on R: the ray's column must be the first unit vector, and
    every other generator must have coordinate 0 along the ray.
    """
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
    if cone._engagement[ray_index].engaged:
        raise RayIsEngaged(f"ray {ray_index} lies in the span of the others")
    red, eye, pivots = cone._gen_echelon
    if len(pivots) != cone.dim:
        raise InternalInconsistency("split basis does not span the ambient space")
    p = pivots.index(ray_index)
    rows = [p] + [r for r in range(cone.dim) if r != p]
    if tuple(red[r][ray_index] for r in rows) != unit_vec(cone.dim, 0):
        raise InternalInconsistency("ray does not map to the first split axis")
    sub_gens = []
    for j in range(len(gens)):
        if j != ray_index:
            if red[p][j] != 0:
                raise InternalInconsistency("generator outside W after split")
            sub_gens.append([red[r][j] for r in rows[1:]])
    return DisengagedSplit(ray=gens[ray_index],
                           subcone=cone_from_generators(cone.dim - 1, sub_gens),
                           projection=tuple(tuple(eye[r]) for r in rows),
                           basis=tuple(gens[pivots[r]] for r in rows))


@dataclass(frozen=True)
class HypothesisVerdict:
    """Whether the linearity theorem's hypothesis holds for this cone.

    For a pointed generating finitely generated cone the inf-sup hull
    condition reduces to every extreme ray being engaged: the positive span
    of all extreme rays is already the whole cone, and a disengaged ray's
    coordinate is identically zero on the engaged span and on every finite
    sup/inf built from it, so the hull stays a proper subset.  ``holds``
    false means "not covered by the theorem", never "a nonlinear
    order-isomorphism exists".
    """

    directed: bool
    pointed: bool
    all_extreme_rays_engaged: bool
    holds: bool
    disengaged_witness: int | None = None


def hypothesis_check(cone: PolyhedralCone) -> HypothesisVerdict:
    directed = cone.generating
    pointed = cone.pointed
    witness = None
    if pointed:
        witness = next((r.ray_index for r in classify_engaged(cone) if not r.engaged), None)
    all_engaged = witness is None
    return HypothesisVerdict(
        directed=directed,
        pointed=pointed,
        all_extreme_rays_engaged=all_engaged,
        holds=directed and pointed and all_engaged,
        disengaged_witness=witness,
    )


def order_unit_norm(cone: PolyhedralCone, u, x) -> Fraction:
    """The order-unit norm |x|_u: least lam >= 0 with -lam*u <= x <= lam*u.

    u must satisfy every facet inequality strictly.  Facet description makes
    this a one-variable linear program whose optimum is the largest ratio
    |<h, x>| / <h, u> over the facets; that closed form is returned exactly,
    from u and x on one integer scale, which cancels in each ratio.
    """
    (ui, xi), _ = cone._scaled([u, x])
    best = ZERO
    for h in cone._facet_ints:
        hu = sum(map(mul, h, ui))
        if hu <= 0:
            raise NotOrderUnit("u must satisfy all facet inequalities strictly")
        ratio = Fraction(abs(sum(map(mul, h, xi))), hu)
        if ratio > best:
            best = ratio
    return best


def extreme_halfline_check(cone: PolyhedralCone, apex, direction,
                           n: int = 8, seed: int = 0) -> bool:
    """Exact extremality test cross-checked against the order-theoretic battery.

    The battery reads the half-line characterization off samples.  When
    the direction decomposes over two or more distinct extreme rays, the
    first two terms give interval points that can never be comparable;
    otherwise min(n, 8) samples of [apex, apex + direction] must be totally
    ordered.  Points of the half-line need no test: two of them differ by
    a nonnegative multiple of the direction, checked to lie in C on entry.
    So n only sets the sample count, and must be at least 2.  Any
    disagreement with the exact test (is the direction's ray among the
    cone's canonical extreme generators) is a bug and raises
    InternalInconsistency.
    """
    apex = cone._check_dim(as_vec(apex))
    direction = cone._check_dim(as_vec(direction))
    if is_zero_vec(direction) or not cone.contains(direction):
        raise NotInCone("direction must be a nonzero cone element")
    if n < 2:
        raise ValueError("battery needs at least two sample points")
    exact = cone.is_extreme_vector(direction)

    battery = True
    decomp = cone.caratheodory_decompose(direction)
    if len(decomp) >= 2:
        (c1, g1), (c2, g2) = decomp[0], decomp[1]
        p1 = vec_add(apex, vec_scale(c1, g1))
        p2 = vec_add(apex, vec_scale(c2, g2))
        battery = cone.leq(p1, p2) or cone.leq(p2, p1)
    if battery:
        samples = interval_sample(cone, apex, vec_add(apex, direction), min(n, 8), seed)
        battery = is_totally_ordered(cone, samples)

    if battery != exact:
        raise InternalInconsistency(
            f"sampled battery ({battery}) disagrees with exact extremality ({exact})"
        )
    return exact
