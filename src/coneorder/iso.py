"""Candidate order-isomorphisms between cone orders and their verification.

Specs come in five kinds: exact linear maps, their affine translates between
apexed domains [a, oo), diagonal maps over a simplicial frame built from
strictly increasing scalar bijections, product lifts along a disengaged
extreme ray, and compositions.  Construction validates the defining
inclusions exactly; the sampled battery can only ever report
"PassedSampling", never "is an isomorphism", so constructed kinds carry
their constructive certificate instead.

Every kind and every scalar bijection has one implementation, on scaled
integers: a vector is a pair (ints, den) of Python ints with den > 0, as
``linalg.scaled_ints`` makes it, and a scalar a pair (n, d).  ``eval`` and
``invert`` scale their input, run that core and return Fractions; the
sampled battery stays on the pairs from draw to verdict.

Two numeric regimes coexist: affine and piecewise-linear components are
exact rationals end to end, odd-power components have exact forward
evaluation but approximate inversion, flagged through ``spec.exact`` and
handled at a fixed tolerance where inverses enter a check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import add, mul
from typing import Callable

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
    independent_subset,
    invert_matrix,
    is_zero_vec,
    kernel_basis,
    mat_rank,
    mat_vec,
    normalize_ray,
    rref,
    scaled_ints,
    solve,
    transpose,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .order import DisengagedSplit, disengaged_split
# cone_point stays importable from this module, where perfbench's tracer
# test looks for it as an alias of the sampler.
from .sampling import cone_point, cone_point_ints, incomparable_pair_ints, rng_for  # noqa: F401

# A vector as scaled integers: (ints, den) stands for ints / den, den > 0.
Scaled = tuple[list[int], int]


def _fractions(v: Scaled) -> Vec:
    ints, den = v
    return tuple(Fraction(c, den) for c in ints)


def _minus(x: Scaled, a: Scaled) -> Scaled:
    """x - a on scaled vectors."""
    (xi, xd), (ai, ad) = x, a
    if xd == ad:
        return [p - q for p, q in zip(xi, ai)], xd
    return [p * ad - q * xd for p, q in zip(xi, ai)], xd * ad


def _plus(x: Scaled, a: Scaled) -> Scaled:
    """x + a on scaled vectors."""
    (xi, xd), (ai, ad) = x, a
    if xd == ad:
        return list(map(add, xi, ai)), xd
    return [p * ad + q * xd for p, q in zip(xi, ai)], xd * ad


# ---------------------------------------------------------------------------
# One-dimensional strictly increasing bijections


class MonotoneBijection:
    """Strictly increasing bijection of the real line with rational evaluation.

    Each kind implements ``_eval_ints``/``_invert_ints`` on a scalar n/d,
    d > 0, returning (numerator, positive denominator); calling the map and
    ``invert`` wrap them for Fractions.
    """

    exact: bool = True

    def _eval_ints(self, n: int, d: int) -> tuple[int, int]:
        raise NotImplementedError

    def _invert_ints(self, n: int, d: int) -> tuple[int, int]:
        raise NotImplementedError

    def __call__(self, t: Fraction) -> Fraction:
        t = frac(t)
        return Fraction(*self._eval_ints(t.numerator, t.denominator))

    def invert(self, u: Fraction) -> Fraction:
        u = frac(u)
        return Fraction(*self._invert_ints(u.numerator, u.denominator))

    def fixes_zero(self) -> bool:
        return self(ZERO) == 0


def _affine_ints(slope: Fraction, intercept: Fraction) -> tuple[int, int, int]:
    """(a, b, c) with slope*t + intercept == (a*t + b) / c and a, c > 0, so
    t = n/d maps to (a*n + b*d) / (c*d) and u = n/d back to
    (c*n - b*d) / (a*d)."""
    (a, b), c = scaled_ints((slope, intercept))
    return a, b, c


@dataclass(frozen=True)
class AffineMap(MonotoneBijection):
    slope: Fraction
    intercept: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "slope", frac(self.slope))
        object.__setattr__(self, "intercept", frac(self.intercept))
        if self.slope <= 0:
            raise ValueError("affine bijection needs a positive slope")
        object.__setattr__(self, "_abc", _affine_ints(self.slope, self.intercept))

    def _eval_ints(self, n, d):
        a, b, c = self._abc
        return a * n + b * d, c * d

    def _invert_ints(self, n, d):
        a, b, c = self._abc
        return c * n - b * d, a * d


IDENTITY_MAP = AffineMap(Fraction(1), ZERO)


def _piece(n: int, d: int, knots: list[int], kden: int) -> int:
    """Which piece of a piecewise-linear map holds n/d, for knots/kden
    strictly increasing: 0 left of the first knot (inclusive), len(knots)
    right of the last (inclusive), else k for the first segment
    [knots[k-1], knots[k]] that holds it."""
    t = n * kden
    if t <= knots[0] * d:
        return 0
    if t >= knots[-1] * d:
        return len(knots)
    return next(k for k in range(1, len(knots)) if t <= knots[k] * d)


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
        # Piece k is the affine map slope*t + (y0 - slope*x0) through one
        # breakpoint: the left tail, each segment in order, the right tail.
        ends = [bps[0]] + list(bps[:-1]) + [bps[-1]]
        slopes = ([Fraction(1)] + [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1)
                                   in zip(bps, bps[1:])] + [Fraction(1)])
        object.__setattr__(self, "_pieces", tuple(
            _affine_ints(s, y0 - s * x0) for s, (x0, y0) in zip(slopes, ends)))
        object.__setattr__(self, "_xs", scaled_ints([x for x, _ in bps]))
        object.__setattr__(self, "_ys", scaled_ints([y for _, y in bps]))

    def _eval_ints(self, n, d):
        a, b, c = self._pieces[_piece(n, d, *self._xs)]
        return a * n + b * d, c * d

    def _invert_ints(self, n, d):
        a, b, c = self._pieces[_piece(n, d, *self._ys)]
        return c * n - b * d, a * d


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

    def _eval_ints(self, n, d):
        return n ** self.exponent, d ** self.exponent

    def _invert_ints(self, n, d):
        k = self.exponent
        if k == 1:
            return n, d
        # Perfect powers are recognised on the reduced fraction only.
        g = gcd(n, d)
        p, q = abs(n) // g, d // g
        rp, rq = _int_nth_root(p, k), _int_nth_root(q, k)
        if rp is None or rq is None:
            # p / q is correctly rounded, the same float as float(Fraction(p, q))
            rp, rq = ((p / q) ** (1.0 / k)).as_integer_ratio()
        return (-rp if n < 0 else rp), rq


# ---------------------------------------------------------------------------
# Fast exact matrix application


class _IntMatrix:
    """Rational matrix stored as integer rows over a common denominator, so
    that applied to integers x it gives the integers rows·x over den."""

    __slots__ = ("den", "rows")

    def __init__(self, matrix: Matrix):
        ints, self.den = scaled_ints([a for row in matrix for a in row])
        it = iter(ints)
        self.rows = tuple(tuple(islice(it, len(row))) for row in matrix)

    def apply(self, xi) -> list[int]:
        return [sum(map(mul, row, xi)) for row in self.rows]


def _columns(frame, dim: int) -> _IntMatrix:
    """The matrix whose columns are the frame's vectors: applied to weights
    it gives sum weights[k] * frame[k]."""
    return _IntMatrix([[w[i] for w in frame] for i in range(dim)])


class _FrameCoords:
    """Coordinates over a frame as integer rows.

    For x in the span of the frame, lam = rows·x / den solves
    sum lam_k frame[k] = x the way ``linalg.solve`` does: a frame vector in
    the span of the ones before it gets coordinate 0.  x is in the span
    iff every row of ``normals`` (a basis of its orthogonal complement)
    vanishes on it.
    """

    __slots__ = ("coords", "normals")

    def __init__(self, frame, dim: int):
        keep = independent_subset(frame)
        basis = [frame[k] for k in keep]
        # The pivot coordinates of the independent part make an invertible
        # square block; its inverse reads lam off those coordinates of x.
        rows = rref(basis)[1]
        block = invert_matrix([[v[r] for v in basis] for r in rows])
        coords = [[ZERO] * dim for _ in frame]
        for j, k in enumerate(keep):
            for i, r in enumerate(rows):
                coords[k][r] = block[j][i]
        self.coords = _IntMatrix(coords)
        self.normals = _IntMatrix(kernel_basis(basis, dim)).rows

    def solve(self, xi) -> list[int]:
        """lam * den for integers xi in the span; OutOfDomain off it."""
        for row in self.normals:
            if sum(map(mul, row, xi)):
                raise OutOfDomain("point outside the span of the frame")
        return self.coords.apply(xi)


# ---------------------------------------------------------------------------
# Iso specs


class IsoSpec:
    """Common surface of all candidate order-isomorphism descriptions.

    A kind implements ``_eval_ints``/``_invert_ints`` on scaled vectors,
    raising OutOfDomain outside the domain.  Every kind binds the Fraction
    wrappers ``eval``/``invert`` in its own namespace, so they can be
    replaced (traced, stubbed) for one kind alone.
    """

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

    def _eval_ints(self, x: Scaled) -> Scaled:
        raise NotImplementedError

    def _invert_ints(self, y: Scaled) -> Scaled:
        raise NotImplementedError

    def eval(self, x) -> Vec:
        """Exact image of x; OutOfDomain outside the source domain."""
        return _fractions(self._eval_ints(scaled_ints(self.source_cone._check_dim(as_vec(x)))))

    def invert(self, y) -> Vec:
        """Exact preimage (approximate for odd-power components, see exact)."""
        return _fractions(self._invert_ints(scaled_ints(self.target_cone._check_dim(as_vec(y)))))


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

    def _eval_ints(self, x):
        xi, xd = x
        if not self.source_cone._in_cone(xi):
            raise OutOfDomain("point outside the source cone")
        return self._fwd.apply(xi), self._fwd.den * xd

    def _invert_ints(self, y):
        yi, yd = y
        if not self.target_cone._in_cone(yi):
            raise OutOfDomain("point outside the target cone")
        return self._bwd.apply(yi), self._bwd.den * yd

    eval = IsoSpec.eval
    invert = IsoSpec.invert


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
        self._src_base = scaled_ints(self.source_base)
        self._tgt_base = scaled_ints(self.target_base)

    def _eval_ints(self, x):
        z = _minus(x, self._src_base)
        if not self.source_cone._in_cone(z[0]):
            raise OutOfDomain("point outside the apexed source domain")
        return _plus(self.inner._eval_ints(z), self._tgt_base)

    def _invert_ints(self, y):
        z = _minus(y, self._tgt_base)
        if not self.target_cone._in_cone(z[0]):
            raise OutOfDomain("point outside the apexed target domain")
        return _plus(self.inner._invert_ints(z), self._src_base)

    eval = IsoSpec.eval
    invert = IsoSpec.invert


def _diagonal(x: Scaled, coords: _FrameCoords, maps, frame: _IntMatrix) -> Scaled:
    """sum maps[k](lam_k) * frame[k] for x = sum lam_k v_k, as one integer
    product over the lcm of the mapped coordinates' denominators; maps are
    scalar ``_eval_ints``/``_invert_ints``."""
    xi, xd = x
    d = coords.coords.den * xd
    vals = [m(n, d) for m, n in zip(maps, coords.solve(xi))]
    den = lcm(*[vd for _, vd in vals])
    return frame.apply([vn * (den // vd) for vn, vd in vals]), den * frame.den


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
        self._src_coords = _FrameCoords(self.source_frame, source.dim)
        self._tgt_coords = _FrameCoords(self.target_frame, target.dim)
        self._src_cols = _columns(self.source_frame, source.dim)
        self._tgt_cols = _columns(self.target_frame, target.dim)
        self._fwd_maps = tuple(m._eval_ints for m in self.maps)
        self._bwd_maps = tuple(m._invert_ints for m in self.maps)

    def _eval_ints(self, x):
        if not self.source_cone._in_cone(x[0]):
            raise OutOfDomain("point outside the source cone")
        return _diagonal(x, self._src_coords, self._fwd_maps, self._tgt_cols)

    def _invert_ints(self, y):
        if not self.target_cone._in_cone(y[0]):
            raise OutOfDomain("point outside the target cone")
        return _diagonal(y, self._tgt_coords, self._bwd_maps, self._src_cols)

    eval = IsoSpec.eval
    invert = IsoSpec.invert


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
        self._unsplit = _columns(split.basis, cone.dim)

    def _lift(self, x: Scaled, ray, sub) -> Scaled:
        """unsplit(ray(t), sub(w)) for (t, w) the split coordinates of x."""
        c = self._proj.apply(x[0])
        d = self._proj.den * x[1]
        tn, td = ray(c[0], d)
        wi, wd = sub((c[1:], d))
        return (self._unsplit.apply([tn * wd] + [w * td for w in wi]),
                self._unsplit.den * td * wd)

    def _eval_ints(self, x):
        if not self.source_cone._in_cone(x[0]):
            raise OutOfDomain("point outside the source cone")
        return self._lift(x, self.ray_map._eval_ints, self.sub._eval_ints)

    def _invert_ints(self, y):
        if not self.target_cone._in_cone(y[0]):
            raise OutOfDomain("point outside the target cone")
        return self._lift(y, self.ray_map._invert_ints, self.sub._invert_ints)

    eval = IsoSpec.eval
    invert = IsoSpec.invert


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

    def _eval_ints(self, x):
        for p in self.parts:
            x = p._eval_ints(x)
        return x

    def _invert_ints(self, y):
        for p in reversed(self.parts):
            y = p._invert_ints(y)
        return y

    eval = IsoSpec.eval
    invert = IsoSpec.invert


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


def _leq_scaled(cone: PolyhedralCone) -> Callable:
    """x <= y on scaled vectors: the facet sums of y*dx - x*dy."""
    def leq(x, y):
        (xi, xd), (yi, yd) = x, y
        if xd == yd:
            return cone._leq_ints(xi, yi)
        return cone._in_cone([q * xd - p * yd for p, q in zip(xi, yi)])
    return leq


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

    Every spec kind runs on scaled integer vectors from draw to verdict:
    points are integer cone points shifted by the apex, images and
    preimages are the spec's ``_eval_ints``/``_invert_ints``, and order
    tests and exact round trips cross-multiply the denominators.  An
    inexact spec's source order test takes floats n / d, which equal
    float(Fraction(n, d)) bit for bit.  Fractions are built only for a
    recorded violation.  tests/oracles.py keeps the Fraction battery this
    replaced; both make the same draws and give the same report.
    """
    src, tgt = spec.source_cone, spec.target_cone
    a, b = scaled_ints(spec.source_base), scaled_ints(spec.target_base)
    a_zero, b_zero = spec._bases_zero
    fwd, inv = spec._eval_ints, spec._invert_ints
    tgt_leq = _leq_scaled(tgt)

    def at(base, zero, p):
        return (p, 1) if zero else _plus((p, 1), base)

    def in_target(y):
        return tgt._in_cone(y[0] if b_zero else _minus(y, b)[0])

    if spec.exact:
        src_leq = _leq_scaled(src)

        def round_trip(x1, x2, r2):
            (xi, xd), (ri, rd) = x2, r2
            return [c * xd for c in ri] == [c * rd for c in xi]
    else:
        def src_leq(x, y):
            return _leq_tol(src, [c / x[1] for c in x[0]], [c / y[1] for c in y[0]])

        def round_trip(x1, x2, r2):
            return src_leq(x1, r2)

    fwd_violations: list = []
    inv_violations: list = []

    def run_index(i, rng):
        mode = i % 3
        if mode == 0:
            x1 = at(a, a_zero, cone_point_ints(src, rng))
            x2 = _plus(x1, (cone_point_ints(src, rng), 1))
            try:
                y1, y2 = fwd(x1), fwd(x2)
            except OutOfDomain:
                fwd_violations.append((_fractions(x1), _fractions(x2)))
                return
            # y2 in the target domain is implied by y1 in it plus y2 - y1 in K
            if not in_target(y1) or not tgt_leq(y1, y2):
                fwd_violations.append((_fractions(x1), _fractions(x2)))
                return
            try:
                r2 = inv(y2)
            except OutOfDomain:
                inv_violations.append((_fractions(y1), _fractions(y2)))
                return
            if not round_trip(x1, x2, r2):
                inv_violations.append((_fractions(y1), _fractions(y2)))
        elif mode == 1:
            pair = incomparable_pair_ints(src, rng)
            if pair is None:
                return
            x1, x2 = at(a, a_zero, pair[0]), at(a, a_zero, pair[1])
            try:
                y1, y2 = fwd(x1), fwd(x2)
            except OutOfDomain:
                fwd_violations.append((_fractions(x1), _fractions(x2)))
                return
            if tgt_leq(y1, y2) or tgt_leq(y2, y1):
                fwd_violations.append((_fractions(x1), _fractions(x2)))
        else:
            y1 = at(b, b_zero, cone_point_ints(tgt, rng))
            y2 = _plus(y1, (cone_point_ints(tgt, rng), 1))
            try:
                r1, r2 = inv(y1), inv(y2)
            except OutOfDomain:
                inv_violations.append((_fractions(y1), _fractions(y2)))
                return
            if not src_leq(r1, r2):
                inv_violations.append((_fractions(y1), _fractions(y2)))

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
            if spec.eval(lu) != vec_scale(lam, fu):
                return False
    return True


def halfline_image_check(spec: IsoSpec, apex, r, lambdas) -> bool:
    """True iff the images of apex + lam*r lie on one half-line from f(apex)
    whose direction is extreme in the target cone."""
    apex, r = as_vec(apex), as_vec(r)
    _signed_extreme(spec.source_cone, r)
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
