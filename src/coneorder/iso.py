"""Candidate order-isomorphisms between cone orders and their verification.

Specs come in five kinds: exact linear maps, their affine translates between
apexed domains [a, oo), diagonal maps over a simplicial frame built from
strictly increasing scalar bijections, product lifts along a disengaged
extreme ray, and compositions.  Construction validates the defining
inclusions exactly; the sampled battery can only ever report
"PassedSampling", never "is an isomorphism", so constructed kinds carry
their constructive certificate instead.

Two numeric regimes coexist: affine and piecewise-linear components are
exact rationals end to end, odd-power components have exact forward
evaluation but approximate inversion, flagged through ``spec.exact`` and
handled at a fixed tolerance where inverses enter a check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import add, mul
from typing import Callable, NamedTuple

from .cones import PolyhedralCone, cone_from_generators
from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    MapCountMismatch,
    NotColinear,
    NotConeMap,
    NotExtreme,
    NotSimplicial,
    OutOfDomain,
    SameRay,
)
from .linalg import (
    Matrix,
    Vec,
    ZERO,
    as_vec,
    frac,
    invert_matrix,
    is_zero_vec,
    mat_rank,
    mat_vec,
    normalize_ray,
    rref,
    scaled_ints,
    solve,
    transpose,
    vec_add,
    vec_dot,
    vec_neg,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .order import DisengagedSplit, disengaged_split
from .sampling import (
    cone_point,
    cone_point_ints,
    incomparable_pair,
    incomparable_pair_ints,
    rng_for,
)

# ---------------------------------------------------------------------------
# One-dimensional strictly increasing bijections


class MonotoneBijection:
    """Strictly increasing bijection of the real line with rational evaluation."""

    exact: bool = True

    def __call__(self, t: Fraction) -> Fraction:
        raise NotImplementedError

    def invert(self, u: Fraction) -> Fraction:
        raise NotImplementedError

    def fixes_zero(self) -> bool:
        return self(ZERO) == 0


@dataclass(frozen=True)
class AffineMap(MonotoneBijection):
    slope: Fraction
    intercept: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "slope", frac(self.slope))
        object.__setattr__(self, "intercept", frac(self.intercept))
        if self.slope <= 0:
            raise ValueError("affine bijection needs a positive slope")

    def __call__(self, t):
        return self.slope * frac(t) + self.intercept

    def invert(self, u):
        return (frac(u) - self.intercept) / self.slope


IDENTITY_MAP = AffineMap(Fraction(1), ZERO)


@dataclass(frozen=True)
class PiecewiseLinearMap(MonotoneBijection):
    """Rational piecewise-linear bijection through the given breakpoints.

    Beyond the first and last breakpoint the map continues with slope 1,
    which keeps it a bijection of the line; a two-breakpoint map is
    therefore genuinely nonlinear unless its segment slope is 1.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bps = tuple((frac(a), frac(b)) for a, b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if x1 <= x0 or y1 <= y0:
                raise ValueError("breakpoints must be strictly increasing in both coordinates")

    def __call__(self, t):
        t = frac(t)
        bps = self.breakpoints
        if t <= bps[0][0]:
            return bps[0][1] + (t - bps[0][0])
        if t >= bps[-1][0]:
            return bps[-1][1] + (t - bps[-1][0])
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if x0 <= t <= x1:
                return y0 + (t - x0) * (y1 - y0) / (x1 - x0)
        raise AssertionError("unreachable")

    def invert(self, u):
        u = frac(u)
        bps = self.breakpoints
        if u <= bps[0][1]:
            return bps[0][0] + (u - bps[0][1])
        if u >= bps[-1][1]:
            return bps[-1][0] + (u - bps[-1][1])
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if y0 <= u <= y1:
                return x0 + (u - y0) * (x1 - x0) / (y1 - y0)
        raise AssertionError("unreachable")


def _int_nth_root(m: int, k: int) -> int | None:
    """Exact nonnegative integer k-th root of m, or None."""
    if m < 0:
        return None
    if m in (0, 1):
        return m
    x = 1 << ((m.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == m else None


@dataclass(frozen=True)
class OddPowerMap(MonotoneBijection):
    """t -> t**k for odd positive k; exact forward, inverse exact only at
    perfect powers and otherwise a float-based approximation."""

    exponent: int

    def __post_init__(self):
        if self.exponent < 1 or self.exponent % 2 == 0:
            raise ValueError("exponent must be an odd positive integer")

    @property
    def exact(self) -> bool:  # type: ignore[override]
        return self.exponent == 1

    def __call__(self, t):
        return frac(t) ** self.exponent

    def invert(self, u):
        u = frac(u)
        if self.exponent == 1:
            return u
        sign = -1 if u < 0 else 1
        p, q = abs(u.numerator), u.denominator
        rp = _int_nth_root(p, self.exponent)
        rq = _int_nth_root(q, self.exponent)
        if rp is not None and rq is not None:
            return Fraction(sign * rp, rq)
        return Fraction(sign) * Fraction(float(abs(u)) ** (1.0 / self.exponent))


# ---------------------------------------------------------------------------
# Fast exact matrix application


class _IntMatrix:
    """Rational matrix stored as integer rows over a common denominator so
    application to a vector runs in machine/big integers."""

    __slots__ = ("den", "rows")

    def __init__(self, matrix: Matrix):
        ints, self.den = scaled_ints([a for row in matrix for a in row])
        it = iter(ints)
        self.rows = tuple(tuple(islice(it, len(row))) for row in matrix)

    def apply(self, x: Vec) -> Vec:
        xi, xd = scaled_ints(x)
        total_den = self.den * xd
        return tuple(Fraction(sum(map(mul, row, xi)), total_den) for row in self.rows)


# ---------------------------------------------------------------------------
# Iso specs


class IsoSpec:
    """Common surface of all candidate order-isomorphism descriptions."""

    source_cone: PolyhedralCone
    target_cone: PolyhedralCone
    source_base: Vec
    target_base: Vec
    exact: bool

    @property
    def _bases_zero(self) -> tuple[bool, bool]:
        cached = getattr(self, "_bases_zero_cache", None)
        if cached is None:
            cached = (is_zero_vec(self.source_base), is_zero_vec(self.target_base))
            self._bases_zero_cache = cached
        return cached

    def in_source(self, x) -> bool:
        x = as_vec(x)
        if self._bases_zero[0]:
            return self.source_cone.contains(x)
        return self.source_cone.contains(vec_sub(x, self.source_base))

    def in_target(self, y) -> bool:
        y = as_vec(y)
        if self._bases_zero[1]:
            return self.target_cone.contains(y)
        return self.target_cone.contains(vec_sub(y, self.target_base))

    def eval(self, x) -> Vec:
        raise NotImplementedError

    def invert(self, y) -> Vec:
        raise NotImplementedError


class LinearIso(IsoSpec):
    def __init__(self, matrix, source: PolyhedralCone, target: PolyhedralCone,
                 inverse: Matrix | None = None):
        self.matrix = tuple(as_vec(r) for r in matrix)
        self.source_cone = source
        self.target_cone = target
        self.source_base = zero_vec(source.dim)
        self.target_base = zero_vec(target.dim)
        self.exact = True
        inv = inverse if inverse is not None else invert_matrix(self.matrix)
        if inv is None:
            raise NotConeMap("matrix is singular")
        self.inverse = inv
        self._fwd = _IntMatrix(self.matrix)
        self._bwd = _IntMatrix(inv)

    def eval(self, x):
        x = as_vec(x)
        if not self.in_source(x):
            raise OutOfDomain("point outside the source cone")
        return self._fwd.apply(x)

    def invert(self, y):
        y = as_vec(y)
        if not self.in_target(y):
            raise OutOfDomain("point outside the target cone")
        return self._bwd.apply(y)


class AffineIso(IsoSpec):
    """f(x) = target_base + inner(x - source_base) between apexed domains."""

    def __init__(self, inner: IsoSpec, source_base, target_base):
        if not is_zero_vec(inner.source_base) or not is_zero_vec(inner.target_base):
            raise ValueError("inner spec of an affine translate must be cone-based")
        self.inner = inner
        self.source_cone = inner.source_cone
        self.target_cone = inner.target_cone
        self.source_base = as_vec(source_base)
        self.target_base = as_vec(target_base)
        if len(self.source_base) != self.source_cone.dim:
            raise DimensionMismatch("source base has wrong length")
        if len(self.target_base) != self.target_cone.dim:
            raise DimensionMismatch("target base has wrong length")
        self.exact = inner.exact

    def eval(self, x):
        x = as_vec(x)
        if not self.in_source(x):
            raise OutOfDomain("point outside the apexed source domain")
        return vec_add(self.target_base, self.inner.eval(vec_sub(x, self.source_base)))

    def invert(self, y):
        y = as_vec(y)
        if not self.in_target(y):
            raise OutOfDomain("point outside the apexed target domain")
        return vec_add(self.source_base, self.inner.invert(vec_sub(y, self.target_base)))


class DiagonalIso(IsoSpec):
    """f(sum lam_i v_i) = sum g_i(lam_i) w_i over a frame of the source.

    Built through make_diagonal_iso the frame is exactly the generator list
    of a simplicial source cone, which makes f an order-isomorphism onto the
    simplicial cone over the target frame.  Direct construction with a
    partial frame is possible (and used to forge counterfeit candidates for
    the battery) but carries no guarantee.
    """

    def __init__(self, source: PolyhedralCone, source_frame, maps, target_frame,
                 target: PolyhedralCone):
        self.source_cone = source
        self.target_cone = target
        self.source_frame = tuple(as_vec(v) for v in source_frame)
        self.target_frame = tuple(as_vec(w) for w in target_frame)
        self.maps = tuple(maps)
        self.source_base = zero_vec(source.dim)
        self.target_base = zero_vec(target.dim)
        self.exact = all(m.exact for m in self.maps)
        self._src_cols = transpose(self.source_frame)
        self._tgt_cols = transpose(self.target_frame)
        self._src_inv = None
        self._tgt_inv = None
        if len(self.source_frame) == source.dim:
            inv = invert_matrix(self._src_cols)
            self._src_inv = _IntMatrix(inv) if inv is not None else None
        if len(self.target_frame) == target.dim:
            inv = invert_matrix(self._tgt_cols)
            self._tgt_inv = _IntMatrix(inv) if inv is not None else None

    def _coords(self, x, cols, inv):
        if inv is not None:
            return inv.apply(x)
        sol = solve(cols, x)
        if sol is None:
            raise OutOfDomain("point outside the span of the frame")
        return sol

    def eval(self, x):
        x = as_vec(x)
        if not self.in_source(x):
            raise OutOfDomain("point outside the source cone")
        lam = self._coords(x, self._src_cols, self._src_inv)
        out = [ZERO] * self.target_cone.dim
        for g, l, w in zip(self.maps, lam, self.target_frame):
            c = g(l)
            if c:
                for i, wi in enumerate(w):
                    out[i] += c * wi
        return tuple(out)

    def invert(self, y):
        y = as_vec(y)
        if not self.in_target(y):
            raise OutOfDomain("point outside the target cone")
        mu = self._coords(y, self._tgt_cols, self._tgt_inv)
        out = [ZERO] * self.source_cone.dim
        for g, m, v in zip(self.maps, mu, self.source_frame):
            c = g.invert(m)
            if c:
                for i, vi in enumerate(v):
                    out[i] += c * vi
        return tuple(out)


class ProductLiftIso(IsoSpec):
    """f(t*r + w) = ray_map(t)*r + sub(w) in the coordinates of a
    disengaged-ray split, pulled back to the original basis."""

    def __init__(self, cone: PolyhedralCone, ray_index: int, ray_map: MonotoneBijection,
                 sub: IsoSpec, split: DisengagedSplit, target: PolyhedralCone):
        self.source_cone = cone
        self.target_cone = target
        self.ray_index = ray_index
        self.ray_map = ray_map
        self.sub = sub
        self.split = split
        self.source_base = zero_vec(cone.dim)
        self.target_base = zero_vec(target.dim)
        self.exact = ray_map.exact and sub.exact
        self._proj = _IntMatrix(split.projection)

    def eval(self, x):
        x = as_vec(x)
        if not self.in_source(x):
            raise OutOfDomain("point outside the source cone")
        c = self._proj.apply(x)
        t, w = c[0], c[1:]
        return self.split.unsplit(self.ray_map(t), self.sub.eval(w))

    def invert(self, y):
        y = as_vec(y)
        if not self.in_target(y):
            raise OutOfDomain("point outside the target cone")
        c = self._proj.apply(y)
        t, w = c[0], c[1:]
        return self.split.unsplit(self.ray_map.invert(t), self.sub.invert(w))


class ComposeIso(IsoSpec):
    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("composition needs at least one spec")
        for p, q in zip(parts, parts[1:]):
            if p.target_cone != q.source_cone or p.target_base != q.source_base:
                raise NotConeMap("composition domains do not chain")
        self.parts = parts
        self.source_cone = parts[0].source_cone
        self.target_cone = parts[-1].target_cone
        self.source_base = parts[0].source_base
        self.target_base = parts[-1].target_base
        self.exact = all(p.exact for p in parts)

    def eval(self, x):
        for p in self.parts:
            x = p.eval(x)
        return x

    def invert(self, y):
        for p in reversed(self.parts):
            y = p.invert(y)
        return y


# ---------------------------------------------------------------------------
# Constructors with exact validation


def make_linear_iso(matrix, source: PolyhedralCone, target: PolyhedralCone) -> LinearIso:
    """Linear order-isomorphism candidate, verified on generators both ways."""
    rows = tuple(as_vec(r) for r in matrix)
    if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
        raise DimensionMismatch("matrix shape does not match the cones")
    if source.dim != target.dim:
        raise NotConeMap("invertible linear maps need equal dimensions")
    inv = invert_matrix(rows)
    if inv is None:
        raise NotConeMap("matrix is singular")
    for g in source.generators:
        if not target.contains(mat_vec(rows, g)):
            raise NotConeMap("image of a source generator leaves the target cone")
    for h in target.generators:
        if not source.contains(mat_vec(inv, h)):
            raise NotConeMap("preimage of a target generator leaves the source cone")
    return LinearIso(rows, source, target, inverse=inv)


def identity_iso(cone: PolyhedralCone) -> LinearIso:
    eye = tuple(tuple(Fraction(1 if i == j else 0) for j in range(cone.dim))
                for i in range(cone.dim))
    return LinearIso(eye, cone, cone)


def make_affine_iso(inner: IsoSpec, source_base, target_base) -> AffineIso:
    return AffineIso(inner, source_base, target_base)


def make_diagonal_iso(source: PolyhedralCone, target_frame, maps) -> DiagonalIso:
    """Diagonal order-isomorphism over the generators of a simplicial cone.

    ``maps[i]`` and ``target_frame[i]`` correspond to ``source.generators[i]``
    in the cone's canonical (sorted) generator order.
    """
    gens = source.generators
    if not source.pointed or not gens or mat_rank(gens) != len(gens):
        raise NotSimplicial("source generators must be linearly independent")
    frame = tuple(as_vec(w) for w in target_frame)
    if len(frame) != len(gens):
        raise MapCountMismatch(f"frame has {len(frame)} vectors for {len(gens)} generators")
    if len(maps) != len(gens):
        raise MapCountMismatch(f"{len(maps)} maps for {len(gens)} generators")
    if mat_rank(frame) != len(frame):
        raise NotSimplicial("target frame must be linearly independent")
    for m in maps:
        if not m.fixes_zero():
            raise ValueError("diagonal maps must fix 0")
    target = cone_from_generators(len(frame[0]), frame)
    return DiagonalIso(source, gens, tuple(maps), frame, target)


def make_product_lift(cone: PolyhedralCone, ray_index: int,
                      ray_map: MonotoneBijection, sub: IsoSpec) -> ProductLiftIso:
    """Order-isomorphism acting as ray_map on a disengaged ray coordinate and
    as ``sub`` on the complementary subcone."""
    split = disengaged_split(cone, ray_index)
    if not ray_map.fixes_zero():
        raise ValueError("ray map must fix 0")
    if sub.source_cone != split.subcone:
        raise NotConeMap("sub iso is not defined on the split subcone")
    if not is_zero_vec(sub.source_base) or not is_zero_vec(sub.target_base):
        raise ValueError("sub iso of a product lift must be cone-based")
    tgt_gens = [split.ray] + [split.unsplit(ZERO, k) for k in sub.target_cone.generators]
    target = cone_from_generators(cone.dim, tgt_gens)
    return ProductLiftIso(cone, ray_index, ray_map, sub, split, target)


def compose_isos(*parts: IsoSpec) -> ComposeIso:
    return ComposeIso(parts)


def eval_iso(spec: IsoSpec, x) -> Vec:
    """Exact image of x under the spec; OutOfDomain outside the source domain."""
    return spec.eval(x)


def invert_iso(spec: IsoSpec, y) -> Vec:
    """Exact preimage (approximate for odd-power components, see spec.exact)."""
    return spec.invert(y)


# ---------------------------------------------------------------------------
# Batteries


@dataclass(frozen=True)
class IsoReport:
    order_preserving_violations: tuple
    inverse_violations: tuple
    samples_run: int
    verdict: str  # "PassedSampling" | "Violation"


_FLOAT_TOL = 1e-9


def _leq_tol(cone: PolyhedralCone, x, y, tol=_FLOAT_TOL) -> bool:
    """Order test with float slack, for approximate preimages only."""
    z = [float(b) - float(a) for a, b in zip(x, y)]
    scale = max(1.0, max(abs(c) for c in z))
    for h in cone.facets:
        if sum(float(hc) * zc for hc, zc in zip(h, z)) < -tol * scale:
            return False
    return True


_CHUNK = 256


class _Leaves(NamedTuple):
    """The leaf operations of the sampled battery on one vector type.

    src_point/tgt_point draw a point of the source/target domain, and
    src_step/tgt_step a cone point added to it; src_pair draws an
    incomparable source pair or None.  fwd/inv map a point and raise
    OutOfDomain outside the domain.  round_trip(x1, x2, r2) tells whether
    r2 = inv(fwd(x2)) passes.  point and image give the exact Fraction form
    of a drawn point and of an image, for the report.
    """

    src_point: Callable
    src_step: Callable
    tgt_point: Callable
    tgt_step: Callable
    src_pair: Callable
    add: Callable
    fwd: Callable
    inv: Callable
    in_target: Callable
    tgt_leq: Callable
    src_leq: Callable
    round_trip: Callable
    point: Callable
    image: Callable


def _fraction_leaves(spec: IsoSpec) -> _Leaves:
    """Leaves on exact Fraction vectors through the spec's own eval/invert:
    the path of every spec kind but LinearIso, and the reference for it."""
    src, tgt = spec.source_cone, spec.target_cone
    a, b = spec.source_base, spec.target_base
    a_zero, b_zero = spec._bases_zero
    exact = spec.exact

    def src_leq(x, y):
        return src.leq(x, y) if exact else _leq_tol(src, x, y)

    def src_step(rng):
        return cone_point(src, rng)

    def tgt_step(rng):
        return cone_point(tgt, rng)

    def src_point(rng):
        p = cone_point(src, rng)
        return p if a_zero else vec_add(a, p)

    def tgt_point(rng):
        p = cone_point(tgt, rng)
        return p if b_zero else vec_add(b, p)

    def src_pair(rng):
        pair = incomparable_pair(src, rng)
        if pair is None or a_zero:
            return pair
        return vec_add(a, pair[0]), vec_add(a, pair[1])

    def round_trip(x1, x2, r2):
        return r2 == x2 if exact else src_leq(x1, r2)

    def same(v):
        return v

    return _Leaves(src_point, src_step, tgt_point, tgt_step, src_pair, vec_add,
                   spec.eval, spec.invert, spec.in_target, tgt.leq, src_leq,
                   round_trip, same, same)


def _int_leaves(spec: LinearIso) -> _Leaves:
    """Leaves on Python-int vectors for a LinearIso, whose cones are apexed
    at 0 and whose points are all integer.  With F/f and B/b the integer
    rows and denominators of the matrix and its inverse, an image is kept as
    F x (scale f) and a preimage as B y, so the order tests run on integer
    differences and the round trip B F x2 / (b f) == x2 is B y2 == b f x2.
    Fractions are built only for a violation's report."""
    src, tgt = spec.source_cone, spec.target_cone
    fwd_rows, fwd_den = spec._fwd.rows, spec._fwd.den
    bwd_rows = spec._bwd.rows
    scale = spec._bwd.den * fwd_den

    def src_point(rng):
        return cone_point_ints(src, rng)

    def tgt_point(rng):
        return cone_point_ints(tgt, rng)

    def src_pair(rng):
        return incomparable_pair_ints(src, rng)

    def add_ints(x, c):
        return list(map(add, x, c))

    def fwd(x):
        if not src._in_cone(x):
            raise OutOfDomain("point outside the source cone")
        return [sum(map(mul, row, x)) for row in fwd_rows]

    def inv(y):
        if not tgt._in_cone(y):
            raise OutOfDomain("point outside the target cone")
        return [sum(map(mul, row, y)) for row in bwd_rows]

    def round_trip(x1, x2, r2):
        return r2 == [scale * c for c in x2]

    def point(v):
        return tuple(map(Fraction, v))

    def image(v):
        return tuple(Fraction(c, fwd_den) for c in v)

    return _Leaves(src_point, src_point, tgt_point, tgt_point, src_pair, add_ints,
                   fwd, inv, tgt._in_cone, tgt._leq_ints, src._leq_ints,
                   round_trip, point, image)


def check_order_iso_sampled(spec: IsoSpec, n: int = 10000, seed: int = 0, *,
                            stop_early: bool = False) -> IsoReport:
    """Sampled order-isomorphism battery.

    Draws pairs with known order relation in the source (comparable pairs as
    x and x + c with c in the cone, incomparable pairs by rejection) and in
    the target, and asserts that the relation is preserved forward and
    reflected through the inverse; images must stay inside the target
    domain.  Sampling can refute but never prove, hence the verdict wording.

    Sampling is seeded per fixed-size index chunk of 256 samples, so sample
    i draws the same values whatever n is.

    A LinearIso runs on integer vectors from draw to verdict (_int_leaves);
    every other spec, and a LinearIso wrapped in a ComposeIso, on Fractions
    (_fraction_leaves).  Both make the same draws and give the same report.
    """
    ops = _int_leaves(spec) if type(spec) is LinearIso else _fraction_leaves(spec)
    fwd_violations: list = []
    inv_violations: list = []

    def run_index(i, rng):
        mode = i % 3
        if mode == 0:
            x1 = ops.src_point(rng)
            x2 = ops.add(x1, ops.src_step(rng))
            try:
                y1, y2 = ops.fwd(x1), ops.fwd(x2)
            except OutOfDomain:
                fwd_violations.append((ops.point(x1), ops.point(x2)))
                return
            # y2 in the target domain is implied by y1 in it plus y2 - y1 in K
            if not ops.in_target(y1) or not ops.tgt_leq(y1, y2):
                fwd_violations.append((ops.point(x1), ops.point(x2)))
                return
            try:
                r2 = ops.inv(y2)
            except OutOfDomain:
                inv_violations.append((ops.image(y1), ops.image(y2)))
                return
            if not ops.round_trip(x1, x2, r2):
                inv_violations.append((ops.image(y1), ops.image(y2)))
        elif mode == 1:
            pair = ops.src_pair(rng)
            if pair is None:
                return
            x1, x2 = pair
            try:
                y1, y2 = ops.fwd(x1), ops.fwd(x2)
            except OutOfDomain:
                fwd_violations.append((ops.point(x1), ops.point(x2)))
                return
            if ops.tgt_leq(y1, y2) or ops.tgt_leq(y2, y1):
                fwd_violations.append((ops.point(x1), ops.point(x2)))
        else:
            y1 = ops.tgt_point(rng)
            y2 = ops.add(y1, ops.tgt_step(rng))
            try:
                r1, r2 = ops.inv(y1), ops.inv(y2)
            except OutOfDomain:
                inv_violations.append((ops.point(y1), ops.point(y2)))
                return
            if not ops.src_leq(r1, r2):
                inv_violations.append((ops.point(y1), ops.point(y2)))

    for i in range(n):
        if i % _CHUNK == 0:
            rng = rng_for(seed, "battery", i // _CHUNK)
        run_index(i, rng)
        if stop_early and (fwd_violations or inv_violations):
            break
    verdict = "Violation" if fwd_violations or inv_violations else "PassedSampling"
    return IsoReport(tuple(fwd_violations), tuple(inv_violations), n, verdict)


def _signed_extreme(cone: PolyhedralCone, v: Vec) -> Vec:
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


def _require_domain(spec: IsoSpec, *points):
    for p in points:
        if not spec.in_source(p):
            raise OutOfDomain("configuration point outside the source domain")


def check_parallelogram(spec: IsoSpec, x, r, s) -> bool:
    """Exact test of f(x+r+s) - f(x+s) == f(x+r) - f(x) for extreme r, s on
    distinct rays (signs allowed as in the sign-mixed extensions).

    This is two-vector additivity rearranged, evaluated at the same four
    points, so it is decided by check_additivity.
    """
    return check_additivity(spec, x, [r, s])


def check_additivity(spec: IsoSpec, x, s_list) -> bool:
    """Exact test of f(x + sum s_i) - f(x) == sum (f(x + s_i) - f(x)) for
    extreme vectors s_i on pairwise distinct rays."""
    x = as_vec(x)
    ss = [as_vec(s) for s in s_list]
    rays = [normalize_ray(_signed_extreme(spec.source_cone, s)) for s in ss]
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            if rays[i] == rays[j]:
                raise SameRay(f"s_{i} and s_{j} lie on the same ray")
    total = x
    for s in ss:
        total = vec_add(total, s)
    _require_domain(spec, x, total, *[vec_add(x, s) for s in ss])
    fx = spec.eval(x)
    lhs = vec_sub(spec.eval(total), fx)
    rhs = zero_vec(spec.target_cone.dim)
    for s in ss:
        rhs = vec_add(rhs, vec_sub(spec.eval(vec_add(x, s)), fx))
    return lhs == rhs


@dataclass(frozen=True)
class GRow:
    lam: Fraction
    basepoint: Vec
    value: Fraction


def extract_g_r(spec: IsoSpec, r, basepoints, lambdas) -> list[GRow]:
    """Solve f(x + lam*r) - f(x) = g * (f(x+r) - f(x)) exactly per (x, lam).

    The two difference vectors must be colinear for an order-isomorphism
    (images of a half-line stay on a half-line); NotColinear therefore flags
    a non-isomorphism.
    """
    r = as_vec(r)
    _signed_extreme(spec.source_cone, r)
    rows: list[GRow] = []
    for x in basepoints:
        x = as_vec(x)
        xr = vec_add(x, r)
        _require_domain(spec, x, xr)
        fx = spec.eval(x)
        d0 = vec_sub(spec.eval(xr), fx)
        j = next((k for k, c in enumerate(d0) if c != 0), None)
        if j is None:
            raise NotColinear("f(x + r) equals f(x); map cannot be injective")
        for lam in lambdas:
            lam = frac(lam)
            xl = vec_add(x, vec_scale(lam, r))
            _require_domain(spec, xl)
            d1 = vec_sub(spec.eval(xl), fx)
            g = d1[j] / d0[j]
            if any(c1 != g * c0 for c0, c1 in zip(d0, d1)):
                raise NotColinear("difference vectors are not parallel")
            rows.append(GRow(lam, x, g))
    return rows


@dataclass(frozen=True)
class AffineFit:
    """Outcome of interpolating an affine map through sampled images."""

    affine: bool
    max_residual: Fraction
    base_point: Vec
    basis_points: tuple[Vec, ...]
    base_image: Vec
    basis_images: tuple[Vec, ...]
    witness: Vec | None = None

    def predict(self, p: Vec) -> Vec:
        diffs = [vec_sub(q, self.base_point) for q in self.basis_points]
        t = solve(transpose(diffs), vec_sub(as_vec(p), self.base_point)) if diffs else ()
        if t is None:
            raise DegenerateSpan("point outside the affine hull of the fit")
        return self._image_at(t)

    def _image_at(self, t) -> Vec:
        """The fitted image of the point with coordinates t over the basis."""
        out = list(self.base_image)
        for tj, img in zip(t, self.basis_images):
            if tj:
                for i, c in enumerate(vec_sub(img, self.base_image)):
                    out[i] += tj * c
        return tuple(out)


def check_affine_on(spec: IsoSpec, points, tolerance=None) -> AffineFit:
    """Fit the unique affine map through an affinely independent subset of the
    points and measure exact residuals at the rest.

    The fit lives in the affine hull of the supplied points, so restricting
    to a low-dimensional stratum (for example the engaged span) works
    without the points spanning the ambient space.  Needs at least k + 2
    points where k is the affine dimension of the point set, so at least
    one point cross-validates the fit.
    """
    pts = [as_vec(p) for p in points]
    if len(pts) < 2:
        raise DegenerateSpan("need at least two points")
    images = [spec.eval(p) for p in pts]
    p0 = pts[0]
    diffs = [vec_sub(p, p0) for p in pts[1:]]
    # One elimination: the pivots pick the basis, and column j of the
    # reduced matrix holds diffs[j]'s coordinates over it.
    red, sel = rref(transpose(diffs))
    k = len(sel)
    if len(pts) < k + 2:
        raise DegenerateSpan(f"need at least {k + 2} points for affine dimension {k}")
    basis_pts = tuple(pts[i + 1] for i in sel)
    basis_imgs = tuple(images[i + 1] for i in sel)
    fit = AffineFit(True, ZERO, p0, basis_pts, images[0], basis_imgs)

    if tolerance is None:
        tolerance = ZERO if spec.exact else Fraction(1, 10**9)
    tolerance = frac(tolerance) if not isinstance(tolerance, Fraction) else tolerance
    max_res = ZERO
    witness = None
    basis_set = {0} | {i + 1 for i in sel}
    for idx, (p, img) in enumerate(zip(pts, images)):
        if idx in basis_set:
            continue
        pred = fit._image_at([row[idx - 1] for row in red[:k]])
        res = max(abs(c) for c in vec_sub(img, pred))
        if res > max_res:
            max_res = res
            if res > tolerance:
                witness = p
    return AffineFit(max_res <= tolerance, max_res, p0, basis_pts, images[0],
                     basis_imgs, witness)


def check_positively_homogeneous(spec: IsoSpec, samples, scalars) -> bool:
    """Exact test of f(lam * u) == lam * f(u) over all sample/scalar pairs."""
    for u in samples:
        u = as_vec(u)
        fu = spec.eval(u)
        for lam in scalars:
            lam = frac(lam)
            lu = vec_scale(lam, u)
            if not spec.in_source(lu):
                raise OutOfDomain("scaled sample leaves the domain")
            if spec.eval(lu) != vec_scale(lam, fu):
                return False
    return True


def halfline_image_check(spec: IsoSpec, apex, r, lambdas) -> bool:
    """True iff the images of apex + lam*r lie on one half-line from f(apex)
    whose direction is extreme in the target cone."""
    apex, r = as_vec(apex), as_vec(r)
    _signed_extreme(spec.source_cone, r)
    _require_domain(spec, apex)
    base = spec.eval(apex)
    direction = None
    for lam in lambdas:
        lam = frac(lam)
        p = vec_add(apex, vec_scale(lam, r))
        _require_domain(spec, p)
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
