"""Polyhedral cones over exact rationals.

A cone is carried in double description: a generator (V) side and a facet
(H) side.  One routine builds a cone from either side, since the facets of
a cone generate its dual: it runs the incremental double description
method of Motzkin once, from the given side to the other, and reads the
given side's minimal list off the tight sets of its vectors against the
result, as bitmasks.  A second pass runs only where that reading does not
hold: when the cone built from generators has lineality, or the cone built
from facets is not generating.  All arithmetic is exact, so the induced
partial order x <= y iff y - x in C has no tolerance anywhere.

A build runs on primitive int tuples from the normalized input to the
canonical lists: the double description returns its rays as ints, and the
sets, sorts and tight masks work on them.  The lists are the cone's fields
``_gen_ints`` and ``_facet_ints``, which membership, the order and the
integer kernels read; the Fraction ``generators`` and ``facets`` are views,
built on first use where a Fraction value leaves the library.

Normalization convention: every stored generator and facet normal is scaled
by a positive rational to coprime integer coordinates (the sign pattern of a
ray is intrinsic and never flipped), and the stored lists are sorted
lexicographically.  This makes set equality of cones canonical.  The choice
of representative on each ray is an artifact convention, nothing in the
underlying order theory depends on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub

from .errors import DimensionMismatch, InternalInconsistency, NotInCone, NotPointed
from .linalg import (
    Vec,
    as_vec,
    identity_matrix,
    primitive,
    rref_transform,
    scaled_ints,
    scaled_rows,
    vec_neg,
)


def double_description(dim: int, constraints, start=None
                       ) -> tuple[list[Vec], list[tuple[int, ...]]]:
    """Extreme rays of {x : <h, x> >= 0 for all h in constraints}.

    Returns (lineality_basis, rays): the feasible cone equals
    span(lineality_basis) + cone(rays), with the rays extreme modulo the
    lineality space.  The rays are primitive int tuples and the lineality
    basis is the reduced echelon basis in Fractions, which can be
    fractional.  Constraints are processed incrementally; while a
    constraint is not orthogonal to the current lineality space the space is
    reduced by one dimension, afterwards the classical positive/negative ray
    combination step applies, with the combinatorial adjacency test on tight
    sets kept as bitmasks.

    The run is fraction-free (Fukuda and Prodon, "Double Description Method
    Revisited", 1996): each constraint is scaled to integers, and the rays
    and the lineality basis stay primitive integer vectors, both reduced by
    the same combination c*r - <h, r>*z divided by its gcd.  Lineality
    vector j starts as the unit vector of its free coordinate f_j and keeps
    a positive entry there and 0 at the other free coordinates; divided by
    that entry on return it is the reduced echelon basis vector.

    Before the combinatorial test a pair of rays is rejected when its common
    tight set has fewer than dim - len(lineality) - 2 members.  This is a
    necessary condition for adjacency: the processed constraints have rank
    dim - len(lineality), and two rays are adjacent only if the constraints
    tight at both have rank exactly two less.  The combinatorial test itself
    counts the rays tight on every constraint of the common set, stopping
    at three: both rays of the pair are, so the pair is adjacent exactly
    when the count is two.

    Since that test is exact, no ray comes out of a step twice, and a step
    concatenates the kept rays (positive, then zero) and the new ones as
    they are.  A new ray lies inside the edge between its two adjacent
    parents, which lie strictly on either side of the hyperplane, so it is
    no old ray.  Distinct edges meet only in a common extreme ray, which is
    off the hyperplane, so they meet it in distinct rays.  A lineality step
    moves every ray along the same lineality vector z, which keeps rays that
    differ modulo the lineality space distinct, and leaves them all tight,
    while <h, z> > 0 sets z apart from all of them.

    The rays and the lineality basis are the same for every order of the
    constraints, up to the order of the rays; the order only changes how
    many intermediate rays and pairs the run goes through.

    start, when given, is the DD pair of a pointed cone C0 to continue from
    instead of the whole space: (rays, tight, nbits) with rays the extreme
    rays of C0 as distinct primitive int tuples, tight[j] the bitmask of
    the rows of some inequality system of C0 that are tight at rays[j], and
    nbits the number of bits those rows use.  The result is then that of
    C0 cut by the constraints, whose bits follow the start's.  C0 is
    pointed, so the run starts, and stays, with empty lineality, and the
    rank prefilter holds as above: the start's rows have rank dim.
    """
    if start is None:
        lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        free = list(range(dim))  # lineality[j] is positive at free[j]
        rays: list[tuple[int, ...]] = []
        tight: list[int] = []
        offset = 0
    else:
        lineality, free = [], []
        rays, tight, offset = list(start[0]), list(start[1]), start[2]

    for i, h in enumerate(constraints):
        hi = scaled_ints(h)[0]
        if len(hi) != dim:
            raise ValueError(f"constraint {i} has length {len(hi)}, expected {dim}")
        bit = 1 << (offset + i)
        vals = [sum(map(mul, hi, l)) for l in lineality]
        k = next((j for j, v in enumerate(vals) if v), None)
        if k is not None:
            c = abs(vals[k])
            z = lineality[k] if vals[k] > 0 else vec_neg(lineality[k])
            lineality = [_combine(l, c, v, z)
                         for j, (l, v) in enumerate(zip(lineality, vals)) if j != k]
            del free[k]
            rays = [_combine(r, c, sum(map(mul, hi, r)), z) for r in rays]
            tight = [t | bit for t in tight]
            rays.append(z)
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
        new_rays: list[tuple[int, ...]] = []
        new_tight: list[int] = []
        neg_tight = [(q, tight[q]) for q in neg]
        for p in pos:
            tp = tight[p]
            for q, tq in neg_tight:
                common = tp & tq
                if common.bit_count() < need:
                    continue
                count = 0
                for t in tight:
                    if common & t == common:
                        count += 1
                        if count == 3:
                            break
                if count != 2:
                    continue
                new_rays.append(_combine(rays[q], vals[p], vals[q], rays[p]))
                new_tight.append(common | bit)
        rays = [rays[j] for j in pos] + [rays[j] for j in zer] + new_rays
        tight = [tight[j] for j in pos] + [tight[j] | bit for j in zer] + new_tight

    return [tuple(Fraction(a, l[f]) for a in l) for l, f in zip(lineality, free)], rays


def _combine(r, a: int, b: int, z) -> tuple[int, ...]:
    """The primitive vector on the ray through a*r - b*z."""
    return primitive([a * x - b * y for x, y in zip(r, z)])


def _canonical_rays(rays, lineality) -> tuple[tuple[int, ...], ...]:
    """The int rays plus the primitive +/- pair of each lineality direction,
    sorted."""
    out = set(rays)
    for l in lineality:
        n = primitive(scaled_ints(l)[0])
        out.add(n)
        out.add(vec_neg(n))
    return tuple(sorted(out))


def _dual(dim: int, vectors) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Canonical generators of {x : <v, x> >= 0 for v in vectors} (extreme
    rays plus a +/- pair per lineality direction) and whether it has no
    lineality, by one DD pass: the facets of cone(vectors) and whether that
    cone is generating, or the generators of a facet system's cone and
    whether it is pointed.  A build runs it once and reads its input side's
    minimal list off tight masks (``_extreme_by_masks``); it runs a second
    pass only when a cone from generators has lineality or a cone from
    facets is not generating.  The list is of primitive int tuples."""
    lin, rays = double_description(dim, vectors)
    return _canonical_rays(rays, lin), not lin


def _extreme_by_masks(vectors, dual) -> tuple[tuple[int, ...], ...] | None:
    """The members of vectors on extreme rays of cone(vectors), in their
    order, or None when that cone has lineality.  vectors are distinct
    primitive int rays and dual is the canonical list ``_dual`` returns for
    them, so cone(vectors) = {x : <h, x> >= 0 for h in dual}.

    Read off bitmasks of the members of dual tight at each vector.  A vector
    tight on all of them lies in the lineality space, and a cone with
    lineality has a vector there: the terms of a positive combination that
    gives a lineality direction are tight on every h.  In a pointed cone the
    face cut out by a vector's tight set is its minimal face (Ziegler,
    "Lectures on Polytopes", 1995, ch. 2), which is its own ray exactly when
    the vector is extreme, and otherwise is spanned by the vectors in it.  So
    a vector is extreme iff no other vector's mask contains its mask, that
    is, iff exactly one mask in the list contains it: its own.  The test
    counts masks, not distinct masks: two redundant vectors can share one.
    """
    masks = [sum(1 << i for i, h in enumerate(dual) if not sum(map(mul, h, v)))
             for v in vectors]
    if (1 << len(dual)) - 1 in masks:
        return None
    return tuple(v for v, m in zip(vectors, masks)
                 if sum(1 for n in masks if not m & ~n) == 1)


@dataclass(frozen=True)
class PolyhedralCone:
    """Pointed or non-pointed finitely generated cone in Q^dim.

    _gen_ints and _facet_ints are the canonical lists (primitive int tuples,
    sorted, minimal), so equality and hash are on them; for a pointed cone
    the generators are exactly its extreme rays.  ``generators`` and
    ``facets`` are the same lists in Fractions, built on first use.
    Non-pointed cones carry +/- pairs of lineality directions among the
    generators and refuse extreme-ray operations with NotPointed.  Instances
    are immutable and safe to share across threads.
    """

    dim: int
    _gen_ints: tuple[tuple[int, ...], ...]
    _facet_ints: tuple[tuple[int, ...], ...]
    pointed: bool
    generating: bool

    @cached_property
    def generators(self) -> tuple[Vec, ...]:
        return tuple(tuple(map(Fraction, g)) for g in self._gen_ints)

    @cached_property
    def facets(self) -> tuple[Vec, ...]:
        return tuple(tuple(map(Fraction, f)) for f in self._facet_ints)

    @cached_property
    def _gen_facet_values(self) -> tuple[tuple[int, ...], ...]:
        """<h, g> for every facet normal h, one row per generator g."""
        return tuple(tuple(sum(map(mul, h, g)) for h in self._facet_ints)
                     for g in self._gen_ints)

    @cached_property
    def _gen_tight(self) -> tuple[int, ...]:
        """Bitmask of the facets tight at each generator (bit i: facet i)."""
        return tuple(sum(1 << i for i, v in enumerate(vals) if not v)
                     for vals in self._gen_facet_values)

    @cached_property
    def _generator_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self._gen_ints)

    @cached_property
    def _gen_echelon(self) -> tuple:
        """``rref_transform`` of the generators as columns: (R, E, pivots)
        with E g_j = column j of R.  ``order`` reads the engagement reports
        and every disengaged split off this one elimination."""
        return rref_transform([[g[k] for g in self._gen_ints] for k in range(self.dim)])

    @cached_property
    def _engagement(self) -> tuple:
        """The reports of ``order.classify_engaged``, computed once per cone."""
        from .order import _classify_engaged

        return tuple(_classify_engaged(self))

    def _check_dim(self, x) -> Vec:
        if len(x) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {len(x)}")
        return tuple(x)

    def _in_cone(self, zi) -> bool:
        """<h, z> >= 0 for every facet normal h; zi are integers on the ray of z.

        zi must have length dim: each row is zipped with it unchecked, so a
        shorter or longer vector is judged on the coordinates it shares
        with the normals.  Every public entry checks the length first (see
        ``_check_dim``), and this loop, the hottest of check-iso, does not."""
        for row in self._facet_ints:
            if sum(map(mul, row, zi)) < 0:
                return False
        return True

    def contains(self, x) -> bool:
        """Exact membership: <h, x> >= 0 for every facet normal h."""
        return self._in_cone(scaled_ints(self._check_dim(x))[0])

    def _leq_ints(self, xi, yi) -> bool:
        """x <= y for integer vectors of length dim on a common scale."""
        return self._in_cone(list(map(sub, yi, xi)))

    def leq(self, x, y) -> bool:
        """The induced partial order: x <= y iff y - x in C."""
        (xi, yi), _ = scaled_rows([self._check_dim(x), self._check_dim(y)])
        return self._leq_ints(xi, yi)

    def tight_facets(self, x) -> list[int]:
        """Indices of facets satisfied with equality at x (x must be in C)."""
        xi = scaled_ints(self._check_dim(x))[0]
        if not self._in_cone(xi):
            raise NotInCone("point is outside the cone")
        return [i for i, row in enumerate(self._facet_ints) if not sum(map(mul, row, xi))]

    def _extreme_ray(self, ri) -> tuple[int, ...] | None:
        """The primitive ray of nonzero integers ri if it is an extreme ray,
        else None.  The generators of a pointed cone are exactly its
        primitive extreme rays, so this is a set lookup."""
        if not self.pointed:
            raise NotPointed("extreme vectors are only defined for pointed cones")
        ray = primitive(ri)
        return ray if ray in self._generator_set else None

    def is_extreme_vector(self, r) -> bool:
        """True iff r, a nonzero vector of the cone, spans an extreme ray."""
        ri = scaled_ints(self._check_dim(r))[0]
        if not any(ri) or not self._in_cone(ri):
            raise NotInCone("extreme test needs a nonzero vector inside the cone")
        return self._extreme_ray(ri) is not None

    def extreme_rays(self) -> tuple[Vec, ...]:
        if not self.pointed:
            raise NotPointed("non-pointed cones have no extreme rays")
        return self.generators

    def caratheodory_decompose(self, x) -> list[tuple[Fraction, Vec]]:
        """Write x in C as an exact positive combination of at most dim
        extreme generators with a linearly independent support, in
        generator order.

        The walk of the constructive proof of Caratheodory's theorem
        (Schrijver, "Theory of Linear and Integer Programming", 1986), run on
        the facet values <h, x>, which determine x in a pointed cone: take
        the first generator g tight at every facet tight at x, so g lies in
        the minimal face of x, and subtract the largest multiple t*g that
        stays in C, t = min <h, x>/<h, g> over the facets with <h, g> > 0.
        The facet attaining t is tight at the remainder but not at g, so the
        minimal face shrinks strictly at every step: there are at most dim
        steps, and each g lies outside the span of the later ones.  The
        later generators lie in the smaller face, whose generators all come
        after g, so the terms come out in generator order.
        """
        x = self._check_dim(x)
        if not self.pointed:
            raise NotPointed("decomposition needs a pointed cone")
        xi, den = scaled_ints(x)
        # vals / den are the facet values of the remainder of x.
        vals = [sum(map(mul, h, xi)) for h in self._facet_ints]
        if any(v < 0 for v in vals):
            raise NotInCone("cannot decompose a point outside the cone")
        table, tight = self._gen_facet_values, self._gen_tight
        terms = []
        while any(vals):
            mask = sum(1 << i for i, v in enumerate(vals) if not v)
            j = next((j for j, tj in enumerate(tight) if not mask & ~tj), None)
            if j is None:
                raise InternalInconsistency("no generator in the minimal face of a cone member")
            gv = table[j]
            k = None
            for i, (v, c) in enumerate(zip(vals, gv)):
                if c > 0 and (k is None or v * gv[k] < vals[k] * c):
                    k = i
            if k is None:
                raise InternalInconsistency("a nonzero generator has all facet values zero")
            # t = vals[k] / (den * gv[k]); the remainder x - t*g has facet
            # values (gv[k]*vals - vals[k]*gv) / (den * gv[k]).
            a, b = gv[k], vals[k]
            terms.append((Fraction(b, den * a), self.generators[j]))
            vals = [a * v - b * c for v, c in zip(vals, gv)]
            den *= a
            if any(v < 0 for v in vals):
                raise InternalInconsistency("Caratheodory step left the cone")
        return terms

    def __repr__(self) -> str:
        kind = "pointed" if self.pointed else "non-pointed"
        return (
            f"PolyhedralCone(dim={self.dim}, {len(self._gen_ints)} generators, "
            f"{len(self._facet_ints)} facets, {kind})"
        )


def _validated(dim: int, vectors, what: str) -> list[Vec]:
    if dim < 1:
        raise DimensionMismatch("ambient dimension must be >= 1")
    out = []
    for v in vectors:
        w = as_vec(v)
        if len(w) != dim:
            raise DimensionMismatch(f"{what} has length {len(w)}, expected {dim}")
        out.append(w)
    return out


def _rays(dim: int, vectors, what: str) -> list[tuple[int, ...]]:
    """The distinct primitive int vectors on the rays of the nonzero vectors,
    sorted: each ray's coprime integer representative, as ``primitive`` gives it."""
    scaled = (scaled_ints(v)[0] for v in _validated(dim, vectors, what))
    return sorted({primitive(vi) for vi in scaled if any(vi)})


def _build(dim: int, vectors, what: str) -> tuple:
    """(minimal, other, pointed, dual_pointed) for the cone K = cone(vectors):
    K's minimal canonical list, the canonical list of the other side, which
    generates the dual cone K*, and whether K and K* have no lineality.

    The generator side passes generators: K is the cone and the other side
    its facets.  The facet side passes facet normals: K is the dual cone,
    which is pointed exactly when the cone is generating.  One DD pass gives
    the other side's canonical list, which depends only on K, so it serves
    K's minimal list too: that list is read off the tight masks of the
    given vectors, and a second pass runs only when K has lineality.
    """
    given = _rays(dim, vectors, what)
    other, dual_pointed = _dual(dim, given)
    minimal = _extreme_by_masks(given, other)
    pointed = minimal is not None
    if not pointed:
        minimal = _dual(dim, other)[0]
    return minimal, other, pointed, dual_pointed


def cone_from_generators(dim: int, gens) -> PolyhedralCone:
    """Cone spanned by the given vectors.

    Zero generators are dropped; an all-zero list yields the trivial cone
    {0}.  Redundant (non-extreme) generators are eliminated, so the stored
    generator list of a pointed cone is exactly its extreme rays.
    """
    generators, facets, pointed, generating = _build(dim, gens, "generator")
    return PolyhedralCone(dim, generators, facets, pointed, generating)


def cone_from_facets(dim: int, facets) -> PolyhedralCone:
    """Cone {x : <h, x> >= 0 for all given inner normals h}.

    Zero normals impose no constraint and are dropped; an empty list gives
    the whole space (flagged non-pointed).
    """
    facets, generators, generating, pointed = _build(dim, facets, "facet normal")
    return PolyhedralCone(dim, generators, facets, pointed, generating)


def orthant(dim: int) -> PolyhedralCone:
    """The nonnegative orthant, the workhorse simplicial example."""
    return cone_from_generators(dim, identity_matrix(dim))


def square_cone() -> PolyhedralCone:
    """Cone over the square: {(a, b, t) : max(|a|, |b|) <= t}.

    Finite-dimensional model of the order unit space whose four extreme
    rays are all engaged.
    """
    return cone_from_generators(3, [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])


def interval_cone() -> PolyhedralCone:
    """{(a, t) : |a| <= t}, the 2-dimensional cone with two disengaged rays."""
    return cone_from_generators(2, [(1, 1), (-1, 1)])
