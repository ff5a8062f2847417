"""Polyhedral cones over exact rationals.

A cone is carried in double description: a generator (V) side and a facet
(H) side, converted into each other with the incremental double description
method of Motzkin.  All arithmetic is exact, so the induced partial order
x <= y iff y - x in C has no tolerance anywhere.

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

from .errors import DimensionMismatch, NotInCone, NotPointed
from .linalg import (
    Vec,
    as_vec,
    identity_matrix,
    is_zero_vec,
    normalize_ray,
    normalize_sign_free,
    primitive,
    scaled_ints,
    vec_neg,
)
from .lp import positive_combination


def double_description(dim: int, constraints) -> tuple[list[Vec], list[Vec]]:
    """Extreme rays of {x : <h, x> >= 0 for all h in constraints}.

    Returns (lineality_basis, rays): the feasible cone equals
    span(lineality_basis) + cone(rays), with the rays extreme modulo the
    lineality space.  Constraints are processed incrementally; while a
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
    that entry on return it is the reduced echelon basis vector, and the
    rays become Fractions once, on return too.

    Before the combinatorial test a pair of rays is rejected when its common
    tight set has fewer than dim - len(lineality) - 2 members.  This is a
    necessary condition for adjacency: the processed constraints have rank
    dim - len(lineality), and two rays are adjacent only if the constraints
    tight at both have rank exactly two less.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    free = list(range(dim))  # lineality[j] is positive at free[j]
    rays: list[tuple[int, ...]] = []
    tight: list[int] = []

    for i, h in enumerate(constraints):
        hi = scaled_ints(h)[0]
        if len(hi) != dim:
            raise ValueError(f"constraint {i} has length {len(hi)}, expected {dim}")
        bit = 1 << i
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
                new_rays.append(_combine(rays[q], vals[p], vals[q], rays[p]))
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

    return ([tuple(Fraction(a, l[f]) for a in l) for l, f in zip(lineality, free)],
            [tuple(map(Fraction, r)) for r in rays])


def _combine(r, a: int, b: int, z) -> tuple[int, ...]:
    """The primitive vector on the ray through a*r - b*z."""
    return primitive([a * x - b * y for x, y in zip(r, z)])


def _canonical_rays(rays, lineality) -> tuple[Vec, ...]:
    out = set(rays)
    for l in lineality:
        n = normalize_sign_free(l)
        out.add(n)
        out.add(vec_neg(n))
    return tuple(sorted(out))


def _dual(dim: int, vectors) -> tuple[tuple[Vec, ...], bool]:
    """Canonical generators of {x : <v, x> >= 0 for v in vectors} (extreme
    rays plus a +/- pair per lineality direction) and whether it has no
    lineality: the facets of cone(vectors) and whether that cone is
    generating, or the generators of a facet system's cone and whether it
    is pointed."""
    lin, rays = double_description(dim, vectors)
    return _canonical_rays(rays, lin), not lin


@dataclass(frozen=True)
class PolyhedralCone:
    """Pointed or non-pointed finitely generated cone in Q^dim.

    generators and facets are canonical (normalized, sorted, minimal); for a
    pointed cone the generators are exactly its extreme rays.  Non-pointed
    cones carry +/- pairs of lineality directions among the generators and
    refuse extreme-ray operations with NotPointed.  Instances are immutable
    and safe to share across threads.
    """

    dim: int
    generators: tuple[Vec, ...]
    facets: tuple[Vec, ...]
    pointed: bool
    generating: bool

    @cached_property
    def _facet_ints(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(c) for c in f) for f in self.facets)

    @cached_property
    def _gen_ints(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(c) for c in g) for g in self.generators)

    @cached_property
    def _generator_set(self) -> frozenset[Vec]:
        return frozenset(self.generators)

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
        """<h, z> >= 0 for every facet normal h; zi are integers on the ray of z."""
        for row in self._facet_ints:
            if sum(map(mul, row, zi)) < 0:
                return False
        return True

    def contains(self, x) -> bool:
        """Exact membership: <h, x> >= 0 for every facet normal h."""
        return self._in_cone(scaled_ints(self._check_dim(x))[0])

    def _leq_ints(self, xi, yi) -> bool:
        """x <= y for integer vectors on a common scale."""
        return self._in_cone(list(map(sub, yi, xi)))

    def leq(self, x, y) -> bool:
        """The induced partial order: x <= y iff y - x in C."""
        s = scaled_ints(self._check_dim(x) + self._check_dim(y))[0]
        return self._leq_ints(s, s[self.dim:])

    def tight_facets(self, x) -> list[int]:
        """Indices of facets satisfied with equality at x (x must be in C)."""
        xi = scaled_ints(self._check_dim(x))[0]
        if not self._in_cone(xi):
            raise NotInCone("point is outside the cone")
        return [i for i, row in enumerate(self._facet_ints) if not sum(map(mul, row, xi))]

    def is_extreme_vector(self, r) -> bool:
        """True iff r spans an extreme ray.  The generators of a pointed cone
        are exactly its normalized extreme rays, so this is a set lookup."""
        r = self._check_dim(r)
        if not self.pointed:
            raise NotPointed("extreme vectors are only defined for pointed cones")
        if is_zero_vec(r) or not self.contains(r):
            raise NotInCone("extreme test needs a nonzero vector inside the cone")
        return normalize_ray(r) in self._generator_set

    def extreme_rays(self) -> tuple[Vec, ...]:
        if not self.pointed:
            raise NotPointed("non-pointed cones have no extreme rays")
        return self.generators

    def caratheodory_decompose(self, x) -> list[tuple[Fraction, Vec]]:
        """Write x in C as an exact nonnegative combination of at most dim
        extreme generators (a basic feasible solution, so the support is
        linearly independent)."""
        x = self._check_dim(x)
        if not self.pointed:
            raise NotPointed("decomposition needs a pointed cone")
        if not self.contains(x):
            raise NotInCone("cannot decompose a point outside the cone")
        if is_zero_vec(x):
            return []
        coeffs = positive_combination(self.generators, x)
        if coeffs is None:
            raise NotInCone("decomposition LP infeasible for a cone member")
        return [(c, g) for c, g in zip(coeffs, self.generators) if c != 0]

    def __repr__(self) -> str:
        kind = "pointed" if self.pointed else "non-pointed"
        return (
            f"PolyhedralCone(dim={self.dim}, {len(self.generators)} generators, "
            f"{len(self.facets)} facets, {kind})"
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


def cone_from_generators(dim: int, gens) -> PolyhedralCone:
    """Cone spanned by the given vectors.

    Zero generators are dropped; an all-zero list yields the trivial cone
    {0}.  Redundant (non-extreme) generators are eliminated, so the stored
    generator list of a pointed cone is exactly its extreme rays.
    """
    gens = [g for g in _validated(dim, gens, "generator") if not is_zero_vec(g)]
    seen = sorted({normalize_ray(g) for g in gens})
    # The canonical facet list depends only on the cone: DD's lineality
    # basis and its ray representatives are fixed by the cone itself.  So
    # these facets are also those of the minimal generators, and no third
    # pass is needed to re-derive them.
    facets, generating = _dual(dim, seen)
    generators, pointed = _dual(dim, facets)
    return PolyhedralCone(dim, generators, facets, pointed, generating)


def cone_from_facets(dim: int, facets) -> PolyhedralCone:
    """Cone {x : <h, x> >= 0 for all given inner normals h}.

    Zero normals impose no constraint and are dropped; an empty list gives
    the whole space (flagged non-pointed).
    """
    fs = [f for f in _validated(dim, facets, "facet normal") if not is_zero_vec(f)]
    system = sorted({normalize_ray(f) for f in fs})
    generators, pointed = _dual(dim, system)
    facets, generating = _dual(dim, generators)
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
