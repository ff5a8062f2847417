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
``invert`` scale their input, run that core and return Fractions.  The
apexed domain is ``IsoSpec``'s for every kind: it shifts by the apex and
makes the one membership test, and a kind supplies only its map between
the cones.  The
whole check-iso battery stays on the pairs: the sampled battery from draw
to verdict, and the half-line, parallelogram, additivity, g_r, homogeneity
and affine-fit identities from their scaled arguments to the Fractions
they return.

Two numeric regimes coexist: affine and piecewise-linear components are
exact rationals end to end, odd-power components have exact forward
evaluation but approximate inversion, flagged through ``spec.exact`` and
handled at a fixed tolerance where inverses enter a check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, mul, sub

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
    identity_matrix,
    invert_matrix,
    is_zero_vec,
    primitive,
    rref,
    rref_transform,
    scaled_ints,
    scaled_rows,
    transpose,
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


def _minus(x: Scaled, a: Scaled | None) -> Scaled:
    """x - a on scaled vectors; x for a None, a zero apex."""
    if a is None:
        return x
    (xi, xd), (ai, ad) = x, a
    if xd == ad:
        return [p - q for p, q in zip(xi, ai)], xd
    return [p * ad - q * xd for p, q in zip(xi, ai)], xd * ad


def _plus(x: Scaled, a: Scaled | None) -> Scaled:
    """x + a on scaled vectors; x for a None, a zero apex."""
    if a is None:
        return x
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
        """m(0) = 0, decided on integers."""
        return self._eval_ints(0, 1)[0] == 0


def _affine_ints(slope: Fraction, intercept: Fraction) -> tuple[int, int, int]:
    """(a, b, c) with slope*t + intercept == (a*t + b) / c and a, c > 0, so
    t = n/d maps to (a*n + b*d) / (c*d) and u = n/d back to
    (c*n - b*d) / (a*d)."""
    (a, b), c = scaled_ints((slope, intercept))
    return a, b, c


def _piece(n: int, d: int, knots: list[int], kden: int) -> int:
    """Which piece of a piecewise-affine map holds n/d, for knots/kden
    strictly increasing: 0 without knots or left of the first knot
    (inclusive), len(knots) right of the last (inclusive), else k for the
    first segment [knots[k-1], knots[k]] that holds it."""
    t = n * kden
    if not knots or t <= knots[0] * d:
        return 0
    if t >= knots[-1] * d:
        return len(knots)
    return next(k for k in range(1, len(knots)) if t <= knots[k] * d)


class _AffinePieces(MonotoneBijection):
    """A map made of affine pieces (a, b, c) in ``_pieces``, as
    ``_affine_ints`` gives them: piece ``_piece`` of the knots ``_xs``
    forward and of their images ``_ys`` backward."""

    def _eval_ints(self, n, d):
        a, b, c = self._pieces[_piece(n, d, *self._xs)]
        return a * n + b * d, c * d

    def _invert_ints(self, n, d):
        a, b, c = self._pieces[_piece(n, d, *self._ys)]
        return c * n - b * d, a * d


@dataclass(frozen=True)
class AffineMap(_AffinePieces):
    slope: Fraction
    intercept: Fraction = ZERO
    # its one piece, over no knots
    _xs = _ys = ([], 1)

    def __post_init__(self):
        object.__setattr__(self, "slope", frac(self.slope))
        object.__setattr__(self, "intercept", frac(self.intercept))
        if self.slope <= 0:
            raise ValueError("affine bijection needs a positive slope")
        object.__setattr__(self, "_pieces", (_affine_ints(self.slope, self.intercept),))


IDENTITY_MAP = AffineMap(Fraction(1), ZERO)


@dataclass(frozen=True)
class PiecewiseLinearMap(_AffinePieces):
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
        # Perfect powers are recognised on the reduced fraction only.
        g = gcd(n, d)
        p, q = abs(n) // g, d // g
        rp, rq = _int_nth_root(p, k), _int_nth_root(q, k)
        if rp is None or rq is None:
            # p / q is correctly rounded, the same float as float(Fraction(p, q))
            rp, rq = ((p / q) ** (1.0 / k)).as_integer_ratio()
        return (-rp if n < 0 else rp), rq


def _fixes_zero_monotone(m: MonotoneBijection) -> bool:
    """m is an odd-power, affine or piecewise-linear map, each a strictly
    increasing bijection of the line, and m(0) = 0 on integers, so m maps
    [0, oo) onto itself.  The kind is tested exactly: a subclass could
    replace the maps."""
    return type(m) in (OddPowerMap, AffineMap, PiecewiseLinearMap) and m.fixes_zero()


# ---------------------------------------------------------------------------
# Fast exact matrix application


class _IntMatrix:
    """Rational matrix as integer rows over a common denominator, made by
    ``linalg.scaled_rows``: applied to integers x it gives rows·x over den,
    and to x of the wrong length DimensionMismatch.  A matrix with no rows
    maps every x to []."""

    __slots__ = ("cols", "den", "rows")

    def __init__(self, matrix: Matrix):
        self.rows, self.den = scaled_rows(matrix)
        self.cols = len(self.rows[0]) if self.rows else 0

    def apply(self, xi) -> list[int]:
        if len(xi) != self.cols and self.rows:
            raise DimensionMismatch(f"vector of length {len(xi)} for {self.cols} columns")
        return [sum(map(mul, row, xi)) for row in self.rows]


def _columns(frame, dim: int) -> _IntMatrix:
    """The matrix whose columns are the frame's vectors: applied to weights
    it gives sum weights[k] * frame[k]."""
    return _IntMatrix([[w[i] for w in frame] for i in range(dim)])


def _inverse_pair(p: _IntMatrix, q: _IntMatrix, dim: int) -> bool:
    """True iff p and q are dim x dim and p q = I, so also q p = I: the
    integer rows multiply to den_p * den_q times the identity."""
    rows = (*p.rows, *q.rows)
    if len(p.rows) != dim or len(q.rows) != dim or any(len(r) != dim for r in rows):
        return False
    den = p.den * q.den
    return all(sum(map(mul, row, col)) == (den if i == j else 0)
               for i, row in enumerate(p.rows) for j, col in enumerate(zip(*q.rows)))


class _FrameCoords:
    """Coordinates over a frame as integer rows.

    For x in the span of the frame, lam = rows·x / den solves
    sum lam_k frame[k] = x the way ``linalg.solve`` does: a frame vector in
    the span of the ones before it gets coordinate 0.  x is in the span
    iff every row of ``normals`` (a basis of its orthogonal complement)
    vanishes on it.  Both come from ``rref_transform`` of F, the frame
    vectors as columns: E is invertible with E F the reduced form of F,
    whose pivots are the greedy independent part of the frame.  For
    x = F lam, lam zero off them, pivot row j of E x is the j-th pivot's
    lam; E's rows below F's pivots vanish on F and span the normals.
    """

    __slots__ = ("coords", "normals")

    def __init__(self, frame, dim: int):
        _, eye, pivots = rref_transform([[v[i] for v in frame] for i in range(dim)])
        coords = [[ZERO] * dim for _ in frame]
        for j, k in enumerate(pivots):
            coords[k] = eye[j]
        self.coords = _IntMatrix(coords)
        self.normals = _IntMatrix(eye[len(pivots):]).rows

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

    A spec maps the apexed domain a + K onto a' + K', for K and K' its
    source and target cones and a and a' its source and target bases (zero
    for a map between the cones themselves).  The domain is decided here,
    once for every kind: ``_eval_ints`` shifts a scaled vector by a, tests
    it against K (OutOfDomain off it), applies the kind's ``_forward`` and
    shifts the image by a'; ``_invert_ints`` mirrors it with ``_backward``.
    A kind implements only those two maps between the cones, on scaled
    vectors.  Every subclass gets the Fraction wrappers ``eval``/``invert``
    in its own namespace, its own definitions or else the ones it inherits,
    bound by ``__init_subclass__``, so they can be replaced (traced,
    stubbed) for one kind alone.

    A kind may also implement ``_certify``: an integer proof, re-checked on
    the spec's own integer data, that it is an order-isomorphism of its
    source domain onto its target domain.  The proof is about the map, not
    about its inverse's arithmetic: an odd-power part keeps ``exact`` False
    and its float inverse.  Then no sample of ``check_order_iso_sampled``
    can record a violation against it.
    """

    def __init_subclass__(cls):
        for name in ("eval", "invert"):
            setattr(cls, name, getattr(cls, name))

    def __init__(self, source: PolyhedralCone, target: PolyhedralCone, exact: bool,
                 source_base=None, target_base=None):
        self.source_cone = source
        self.target_cone = target
        self.exact = exact
        self.source_base = _base(source, source_base, "source")
        self.target_base = _base(target, target_base, "target")

    @cached_property
    def _bases(self) -> tuple[Scaled | None, Scaled | None]:
        """The scaled source and target bases, None for a zero base."""
        return tuple(None if is_zero_vec(v) else scaled_ints(v)
                     for v in (self.source_base, self.target_base))

    def in_source(self, x) -> bool:
        return _in_domain(self.source_cone, self._bases[0], x)

    def in_target(self, y) -> bool:
        return _in_domain(self.target_cone, self._bases[1], y)

    def _forward(self, x: Scaled) -> Scaled:
        raise NotImplementedError

    def _backward(self, y: Scaled) -> Scaled:
        raise NotImplementedError

    def _eval_ints(self, x: Scaled) -> Scaled:
        a, b = self._bases
        z = _minus(x, a)
        if not self.source_cone._in_cone(z[0]):
            raise OutOfDomain("point outside the source domain")
        return _plus(self._forward(z), b)

    def _invert_ints(self, y: Scaled) -> Scaled:
        a, b = self._bases
        z = _minus(y, b)
        if not self.target_cone._in_cone(z[0]):
            raise OutOfDomain("point outside the target domain")
        return _plus(self._backward(z), a)

    def _certified(self) -> bool:
        """Whether ``_certify`` holds, computed once per spec.  A certified
        spec is proved an order-isomorphism, which is all a caller may
        assume: it is exact only if ``exact`` says so, and only then are its
        round trips identities."""
        cert = self.__dict__.get("_cert")
        if cert is None:
            cert = self._cert = self._certify()
        return cert

    def _certify(self) -> bool:
        return False

    def _affine(self) -> bool:
        """Whether the map is affine by its construction: a matrix, a
        translate of one, or a chain of such maps."""
        return False

    def _certified_affine(self) -> bool:
        """Whether the spec is certified and affine.  Its certificate then
        proves x -> a' + L(x - a) with L K = K', so every identity of the
        check-iso battery holds by linearity: half-lines go to half-lines
        along extreme rays L r, parallelogram and additivity hold, g_r is
        the identity at every basepoint, the map is positively homogeneous
        on a cone and exactly affine."""
        return self._affine() and self._certified()

    def eval(self, x) -> Vec:
        """Exact image of x; OutOfDomain outside the source domain."""
        return _fractions(self._eval_ints(scaled_ints(self.source_cone._check_dim(as_vec(x)))))

    def invert(self, y) -> Vec:
        """Exact preimage (approximate for odd-power components, see exact)."""
        return _fractions(self._invert_ints(scaled_ints(self.target_cone._check_dim(as_vec(y)))))


def _base(cone: PolyhedralCone, base, which: str) -> Vec:
    """The apex of a domain over cone, zero for None."""
    if base is None:
        return zero_vec(cone.dim)
    base = as_vec(base)
    if len(base) != cone.dim:
        raise DimensionMismatch(f"{which} base has wrong length")
    return base


def _in_domain(cone: PolyhedralCone, base: Scaled | None, x) -> bool:
    """x in base + cone, for base scaled (None for zero)."""
    return cone._in_cone(_minus(scaled_ints(cone._check_dim(as_vec(x))), base)[0])


class LinearIso(IsoSpec):
    def __init__(self, matrix, source: PolyhedralCone, target: PolyhedralCone,
                 inverse: Matrix | None = None):
        super().__init__(source, target, True)
        self.matrix = tuple(as_vec(r) for r in matrix)
        inv = inverse if inverse is not None else invert_matrix(self.matrix)
        if inv is None:
            raise NotConeMap("matrix is singular")
        self.inverse = inv
        self._fwd = _IntMatrix(self.matrix)
        self._bwd = _IntMatrix(inv)

    def _forward(self, x):
        return self._fwd.apply(x[0]), self._fwd.den * x[1]

    def _backward(self, y):
        return self._bwd.apply(y[0]), self._bwd.den * y[1]

    def _certify(self):
        """L K = K' on the integer matrices, trusting neither the stored
        inverse nor the constructor: L L^-1 = I, and L g in K' and L^-1 h in
        K for the generators g of K and h of K' (a non-pointed cone's
        generators carry its lineality pairs, so they generate it)."""
        src, tgt = self.source_cone, self.target_cone
        return (src.dim == tgt.dim and _inverse_pair(self._fwd, self._bwd, src.dim)
                and all(tgt._in_cone(self._fwd.apply(g)) for g in src._gen_ints)
                and all(src._in_cone(self._bwd.apply(h)) for h in tgt._gen_ints))

    def _affine(self):
        return True


class AffineIso(IsoSpec):
    """f(x) = target_base + inner(x - source_base) between apexed domains."""

    def __init__(self, inner: IsoSpec, source_base, target_base):
        if inner._bases != (None, None):
            raise ValueError("inner spec of an affine translate must be cone-based")
        super().__init__(inner.source_cone, inner.target_cone, inner.exact,
                         source_base, target_base)
        self.inner = inner
        self._forward = inner._forward
        self._backward = inner._backward

    def _certify(self):
        return self.inner._certified()

    def _affine(self):
        return self.inner._affine()


def _diagonal(x: Scaled, coords: _FrameCoords, maps, frame: _IntMatrix) -> Scaled:
    """sum maps[k](lam_k) * frame[k] for x = sum lam_k v_k, as one integer
    product over the lcm of the mapped coordinates' denominators; maps are
    scalar ``_eval_ints``/``_invert_ints``."""
    xi, xd = x
    d = coords.coords.den * xd
    vals = [m(n, d) for m, n in zip(maps, coords.solve(xi))]
    den = lcm(*[vd for _, vd in vals])
    return frame.apply([vn * (den // vd) for vn, vd in vals]), den * frame.den


def _simplicial_frame(frame, coords: _FrameCoords, cone: PolyhedralCone, n: int) -> bool:
    """The n frame vectors are linearly independent (the span of the frame
    has dim - n normals), so no two share a ray, and their primitive rays
    are the generators of the cone: the cone is simplicial over the frame.
    It is pointed too, since a non-pointed cone's generators hold a +/-
    pair, which no independent frame does."""
    return (len(frame) == n and len(coords.normals) == cone.dim - n
            and {primitive(scaled_ints(v)[0]) for v in frame} == cone._generator_set)


class DiagonalIso(IsoSpec):
    """f(sum lam_i v_i) = sum g_i(lam_i) w_i over a frame of the source.

    make_diagonal_iso accepts a spec exactly when it is certified: the
    frame is the generator list of a simplicial source cone, the target
    frame is independent and each map is one of the three scalar kinds
    fixing 0, which makes f an order-isomorphism onto the simplicial cone
    over the target frame whether or not its inverse is exact.  Direct
    construction with a partial frame is possible (and used to forge
    counterfeit candidates for the battery) but carries no guarantee and
    does not certify.
    """

    def __init__(self, source: PolyhedralCone, source_frame, maps, target_frame,
                 target: PolyhedralCone):
        self.maps = tuple(maps)
        super().__init__(source, target, all(m.exact for m in self.maps))
        self.source_frame = tuple(as_vec(v) for v in source_frame)
        self.target_frame = tuple(as_vec(w) for w in target_frame)
        self._src_coords = _FrameCoords(self.source_frame, source.dim)
        self._tgt_coords = _FrameCoords(self.target_frame, target.dim)
        self._src_cols = _columns(self.source_frame, source.dim)
        self._tgt_cols = _columns(self.target_frame, target.dim)
        self._fwd_maps = tuple(m._eval_ints for m in self.maps)
        self._bwd_maps = tuple(m._invert_ints for m in self.maps)

    def _forward(self, x):
        return _diagonal(x, self._src_coords, self._fwd_maps, self._tgt_cols)

    def _backward(self, y):
        return _diagonal(y, self._tgt_coords, self._bwd_maps, self._src_cols)

    def _certify(self):
        """Each cone is simplicial over its frame, with one map per frame
        vector.  Then the frame coordinates lam >= 0 of a cone point are
        unique and the cone order is their product order, and f acts on
        each coordinate by a strictly increasing bijection of [0, oo)
        fixing 0, the general form of an order-isomorphism of a simplicial
        cone (Artstein-Avidan & Slomka 2012).  Checked on integers, on the
        frames the coordinates and columns were built from."""
        n = len(self.maps)
        return (all(map(_fixes_zero_monotone, self.maps))
                and _simplicial_frame(self.source_frame, self._src_coords, self.source_cone, n)
                and _simplicial_frame(self.target_frame, self._tgt_coords, self.target_cone, n))


class ProductLiftIso(IsoSpec):
    """f(t*r + w) = ray_map(t)*r + sub(w) in the coordinates of a
    disengaged-ray split, pulled back to the original basis."""

    def __init__(self, cone: PolyhedralCone, ray_index: int, ray_map: MonotoneBijection,
                 sub: IsoSpec, split: DisengagedSplit, target: PolyhedralCone):
        super().__init__(cone, target, ray_map.exact and sub.exact)
        self.ray_index = ray_index
        self.ray_map = ray_map
        self.sub = sub
        self.split = split
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

    def _forward(self, x):
        return self._lift(x, self.ray_map._eval_ints, self.sub._eval_ints)

    def _backward(self, y):
        return self._lift(y, self.ray_map._invert_ints, self.sub._invert_ints)

    def _certify(self):
        """The map is ray_map x sub in split coordinates, and both cones are
        products R_+ (ray) x (sub's cone) in them, so it is an
        order-isomorphism when ray_map is a strictly increasing bijection
        fixing 0 and sub is certified.  Checked on integers: the projection
        and unsplit matrices are inverse, both cones split, the ray map is
        odd-power, affine or piecewise linear with ray_map(0) = 0."""
        dim, sub = self.source_cone.dim, self.sub
        return (_fixes_zero_monotone(self.ray_map)
                and self.target_cone.dim == dim
                and sub.source_cone.dim == sub.target_cone.dim == dim - 1
                and sub._bases == (None, None)
                and _inverse_pair(self._proj, self._unsplit, dim)
                and self._splits(self.source_cone, sub.source_cone)
                and self._splits(self.target_cone, sub.target_cone)
                and sub._certified())

    def _splits(self, cone: PolyhedralCone, subcone: PolyhedralCone) -> bool:
        """cone = {unsplit(t, w) : t >= 0, w in subcone}: every generator
        splits into such (t, w), and the ray unsplit(1, 0) and every
        unsplit(0, k), k a generator of subcone, lie in the cone."""
        for g in cone._gen_ints:
            t, *w = self._proj.apply(g)
            if t < 0 or not subcone._in_cone(w):
                return False
        zeros = [0] * (cone.dim - 1)
        return (cone._in_cone(self._unsplit.apply([1, *zeros]))
                and all(cone._in_cone(self._unsplit.apply([0, *k])) for k in subcone._gen_ints))


class ComposeIso(IsoSpec):
    """The parts applied in order; each part checks its own domain, so the
    chain replaces the shared domain check."""

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("composition needs at least one spec")
        for p, q in zip(parts, parts[1:]):
            if p.target_cone != q.source_cone or p.target_base != q.source_base:
                raise NotConeMap("composition domains do not chain")
        super().__init__(parts[0].source_cone, parts[-1].target_cone,
                         all(p.exact for p in parts),
                         parts[0].source_base, parts[-1].target_base)
        self.parts = parts

    def _eval_ints(self, x):
        for p in self.parts:
            x = p._eval_ints(x)
        return x

    def _invert_ints(self, y):
        for p in reversed(self.parts):
            y = p._invert_ints(y)
        return y

    # An affine translate takes only a cone-based composition as its inner
    # spec, and the map between the cones of such a one is the chain itself.
    _forward = _eval_ints
    _backward = _invert_ints

    def _certify(self):
        return all(p._certified() for p in self.parts)

    def _affine(self):
        return all(p._affine() for p in self.parts)


# ---------------------------------------------------------------------------
# Constructors with exact validation


def make_linear_iso(matrix, source: PolyhedralCone, target: PolyhedralCone) -> LinearIso:
    """Linear order-isomorphism candidate, verified on generators both ways
    by the spec's own integer certificate, so the spec comes out certified."""
    rows = tuple(as_vec(r) for r in matrix)
    if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
        raise DimensionMismatch("matrix shape does not match the cones")
    if source.dim != target.dim:
        raise NotConeMap("invertible linear maps need equal dimensions")
    spec = LinearIso(rows, source, target)
    if not spec._certified():
        # the inverse is exact, so a generator leaves the cone on one side
        if not all(target._in_cone(spec._fwd.apply(g)) for g in source._gen_ints):
            raise NotConeMap("image of a source generator leaves the target cone")
        raise NotConeMap("preimage of a target generator leaves the source cone")
    return spec


def identity_iso(cone: PolyhedralCone) -> LinearIso:
    return LinearIso(identity_matrix(cone.dim), cone, cone)


def make_affine_iso(inner: IsoSpec, source_base, target_base) -> AffineIso:
    return AffineIso(inner, source_base, target_base)


def make_diagonal_iso(source: PolyhedralCone, target_frame, maps) -> DiagonalIso:
    """Diagonal order-isomorphism over the generators of a simplicial cone.

    ``maps[i]`` and ``target_frame[i]`` correspond to ``source.generators[i]``
    in the cone's canonical (sorted) generator order.  Each map is an
    odd-power, affine or piecewise-linear map fixing 0 (ValueError else).
    The spec is accepted exactly when its own certificate holds, so it comes
    out certified; NotSimplicial when the source generators or the target
    frame are linearly dependent (the trivial cone has no frame).
    """
    n = len(source._gen_ints)
    if not n:
        raise NotSimplicial("the trivial cone has no generator frame")
    frame = tuple(as_vec(w) for w in target_frame)
    if len(frame) != n:
        raise MapCountMismatch(f"frame has {len(frame)} vectors for {n} generators")
    if len(maps) != n:
        raise MapCountMismatch(f"{len(maps)} maps for {n} generators")
    if not all(map(_fixes_zero_monotone, maps)):
        raise ValueError("diagonal maps must be odd-power, affine or piecewise-linear, fixing 0")
    target = cone_from_generators(len(frame[0]), frame)
    spec = DiagonalIso(source, source.generators, maps, frame, target)
    if not spec._certified():
        raise NotSimplicial("source generators and target frame must be linearly independent")
    return spec


def make_product_lift(cone: PolyhedralCone, ray_index: int,
                      ray_map: MonotoneBijection, sub: IsoSpec) -> ProductLiftIso:
    """Order-isomorphism acting as ray_map on a disengaged ray coordinate and
    as ``sub`` on the complementary subcone."""
    split = disengaged_split(cone, ray_index)
    if not _fixes_zero_monotone(ray_map):
        raise ValueError("ray map must be odd-power, affine or piecewise-linear, fixing 0")
    if sub.source_cone != split.subcone:
        raise NotConeMap("sub iso is not defined on the split subcone")
    if sub.target_cone.dim != cone.dim - 1:
        raise DimensionMismatch(
            f"sub iso target has dimension {sub.target_cone.dim}, expected {cone.dim - 1}")
    if sub._bases != (None, None):
        raise ValueError("sub iso of a product lift must be cone-based")
    tgt_gens = [split.ray] + [split.unsplit(ZERO, k) for k in sub.target_cone._gen_ints]
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


def _leq_tol(cone: PolyhedralCone, x, y) -> bool:
    """Order test with float slack, for approximate preimages only.

    The facet normals are read as ints: an int times a float rounds the int
    the way float() does, so the sums are those of the float normals."""
    z = [float(b) - float(a) for a, b in zip(x, y)]
    scale = max(1.0, max(abs(c) for c in z))
    for h in cone._facet_ints:
        if sum(map(mul, h, z)) < -_FLOAT_TOL * scale:
            return False
    return True


_CHUNK = 256


def _check_samples(n: int) -> None:
    """A battery that runs no samples must not pass."""
    if n < 1:
        raise ValueError(f"samples must be at least 1, got {n}")


def check_order_iso_sampled(spec: IsoSpec, n: int = 10000, seed: int = 0, *,
                            limit: int | None = None) -> IsoReport:
    """Sampled order-isomorphism battery.

    Draws pairs with known order relation in the source (comparable pairs as
    x and x + c with c in the cone, incomparable pairs by rejection) and in
    the target, and asserts that the relation is preserved forward and
    reflected through the inverse; images must stay inside the target
    domain.  Sampling can refute but never prove, hence the verdict wording.

    Sampling is seeded per fixed-size index chunk of 256 samples, so sample
    i draws the same values whatever n is.  n < 1 is a ValueError.

    ``limit`` is the one stopping rule: drawing stops once both violation
    lists hold ``limit`` pairs, and the first ``limit`` of each are kept;
    these, and the verdict, are those of all n samples, since later samples
    only append.  ``samples_run`` stays n, the samples the verdict covers,
    not the samples drawn.  None means n, which draws all n samples, since
    one side can hold no more than n pairs; a limit below 1 is a
    ValueError, since it would keep no pair of a violating spec.

    Every spec kind runs on scaled integer vectors from draw to verdict:
    points are integer cone points shifted by the apex, images and
    preimages are the spec's ``_eval_ints``/``_invert_ints``, and an order
    test x <= y is one ``_in_cone`` test of ``_minus(y, x)``, and an exact
    round trip holds when ``_minus`` of its two ends is zero.  An
    inexact spec's source order test takes floats n / d, which equal
    float(Fraction(n, d)) bit for bit.  Fractions are built only for a
    recorded violation, one of the first ``limit`` of its side.
    tests/oracles.py keeps the Fraction battery this replaced; both make the
    same draws and give the same report.
    """
    _check_samples(n)
    limit = n if limit is None else limit
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    src, tgt = spec.source_cone, spec.target_cone
    a, b = spec._bases
    fwd, inv = spec._eval_ints, spec._invert_ints

    if spec.exact:
        def src_leq(x, y):
            return src._in_cone(_minus(y, x)[0])

        def round_trip(x1, x2, r2):
            return not any(_minus(r2, x2)[0])
    else:
        def src_leq(x, y):
            return _leq_tol(src, [c / x[1] for c in x[0]], [c / y[1] for c in y[0]])

        def round_trip(x1, x2, r2):
            return src_leq(x1, r2)

    def run_index(i, rng):
        """(0, source pair) for a forward violation, (1, target pair) for an
        inverse one, None when sample i holds."""
        mode = i % 3
        if mode == 0:
            x1 = _plus((cone_point_ints(src, rng), 1), a)
            x2 = _plus(x1, (cone_point_ints(src, rng), 1))
            try:
                y1, y2 = fwd(x1), fwd(x2)
            except OutOfDomain:
                return 0, (x1, x2)
            # y2 in the target domain is implied by y1 in it plus y2 - y1 in K
            if not tgt._in_cone(_minus(y1, b)[0]) or not tgt._in_cone(_minus(y2, y1)[0]):
                return 0, (x1, x2)
            try:
                r2 = inv(y2)
            except OutOfDomain:
                return 1, (y1, y2)
            if not round_trip(x1, x2, r2):
                return 1, (y1, y2)
        elif mode == 1:
            pair = incomparable_pair_ints(src, rng)
            if pair is None:
                return None
            x1, x2 = _plus((pair[0], 1), a), _plus((pair[1], 1), a)
            try:
                y1, y2 = fwd(x1), fwd(x2)
            except OutOfDomain:
                return 0, (x1, x2)
            if tgt._in_cone(_minus(y2, y1)[0]) or tgt._in_cone(_minus(y1, y2)[0]):
                return 0, (x1, x2)
        else:
            y1 = _plus((cone_point_ints(tgt, rng), 1), b)
            y2 = _plus(y1, (cone_point_ints(tgt, rng), 1))
            try:
                r1, r2 = inv(y1), inv(y2)
            except OutOfDomain:
                return 1, (y1, y2)
            if not src_leq(r1, r2):
                return 1, (y1, y2)
        return None

    found = ([], [])  # forward and inverse violation pairs
    for i in range(n):
        if i % _CHUNK == 0:
            rng = rng_for(seed, "battery", i // _CHUNK)
        hit = run_index(i, rng)
        if hit is not None:
            side, (p, q) = hit
            if len(found[side]) < limit:
                found[side].append((_fractions(p), _fractions(q)))
                if min(map(len, found)) >= limit:
                    break
    verdict = "Violation" if found[0] or found[1] else "PassedSampling"
    return IsoReport(tuple(found[0]), tuple(found[1]), n, verdict)


# ---------------------------------------------------------------------------
# Exact identities
#
# Like the battery, the identities run on scaled integers: their vector
# arguments are scaled over one denominator, and every point they evaluate
# is one integer combination of those (x + lam*r is one axpy).  Images are
# compared through the scaled-vector helpers alone: a difference of two
# images is ``_minus``, ``_ratio`` gives the c with one difference equal to
# c times another, and the ray through a difference is ``primitive``.
# Fractions are built only for what a function returns.


def _scaled(cone: PolyhedralCone, vectors) -> tuple[list[tuple[int, ...]], int]:
    """Vectors of the cone's space as integers over one common den > 0.

    Entries may be ints or Fractions, or anything ``frac`` reads, such as
    '1/2'; a vector of the wrong length is DimensionMismatch."""
    vecs = [cone._check_dim(v) for v in vectors]
    try:
        return scaled_rows(vecs)
    except AttributeError:
        return scaled_rows([as_vec(v) for v in vecs])


def _common(images: list[Scaled]) -> tuple[list[list[int]], int]:
    """Scaled vectors as integers over the lcm of their denominators."""
    den = lcm(*[d for _, d in images])
    return [v if d == den else [c * (den // d) for c in v] for v, d in images], den


def _ratio(u: Scaled, v: Scaled) -> Fraction | None:
    """The exact c with u = c*v, for scaled vectors u and nonzero v; None
    when u is no multiple of v."""
    (ui, ud), (vi, vd) = u, v
    j = next(k for k, c in enumerate(vi) if c)
    if any(a * vi[j] != b * ui[j] for a, b in zip(ui, vi)):
        return None
    return Fraction(ui[j] * vd, vi[j] * ud)


def _signed_extreme(cone: PolyhedralCone, vi) -> tuple[int, ...]:
    """The primitive ray of integers vi or -vi, whichever lies in the cone;
    NotExtreme unless it is an extreme ray."""
    if not any(vi):
        raise NotExtreme("zero vector is not extreme")
    for cand in (vi, [-c for c in vi]):
        if cone._in_cone(cand):
            ray = cone._extreme_ray(cand)
            if ray is None:
                raise NotExtreme("vector lies in the cone but is not extreme")
            return ray
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
    src = spec.source_cone
    (xi, *ss), den = _scaled(src, [x, *s_list])
    rays = [_signed_extreme(src, s) for s in ss]
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            if rays[i] == rays[j]:
                raise SameRay(f"s_{i} and s_{j} lie on the same ray")
    f = spec._eval_ints
    total = [sum(c) for c in zip(xi, *ss)]
    (fx, ft, *fs), _ = _common([f((xi, den)), f((total, den))]
                               + [f((list(map(add, xi, s)), den)) for s in ss])
    # f(total) + (len(ss) - 1) f(x) == sum f(x + s_i), on one denominator
    k = len(ss) - 1
    return all(t + k * a == sum(col) for a, t, *col in zip(fx, ft, *fs))


@dataclass(frozen=True)
class GRow:
    lam: Fraction
    basepoint: Vec
    value: Fraction


def _axpy(xi, lam: Fraction, ri, den: int) -> Scaled:
    """x + lam*r for integers xi, ri over den."""
    p, q = lam.numerator, lam.denominator
    return [q * a + p * b for a, b in zip(xi, ri)], q * den


def extract_g_r(spec: IsoSpec, r, basepoints, lambdas) -> list[GRow]:
    """Solve f(x + lam*r) - f(x) = g * (f(x+r) - f(x)) exactly per (x, lam).

    The two difference vectors must be colinear for an order-isomorphism
    (images of a half-line stay on a half-line); NotColinear therefore flags
    a non-isomorphism.
    """
    src = spec.source_cone
    (ri, *xs), den = _scaled(src, [r, *basepoints])
    _signed_extreme(src, ri)
    f = spec._eval_ints
    rows: list[GRow] = []
    for xi in xs:
        fx = f((xi, den))
        d0 = _minus(f((list(map(add, xi, ri)), den)), fx)
        if not any(d0[0]):
            raise NotColinear("f(x + r) equals f(x); map cannot be injective")
        basepoint = _fractions((xi, den))
        for lam in lambdas:
            lam = frac(lam)
            g = _ratio(_minus(f(_axpy(xi, lam, ri, den)), fx), d0)
            if g is None:
                raise NotColinear("difference vectors are not parallel")
            rows.append(GRow(lam, basepoint, g))
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


def affine_span(cone: PolyhedralCone, points, image=None):
    """The span test of an affine fit, which reads the points alone.

    Returns (pts, den, images, red, sel): the points as integers over one
    den; their images under ``image``, a spec's ``_eval_ints``, as integers
    over one den (None without ``image``); and one elimination of the
    differences from the first point (one common scale leaves the reduced
    form alone), whose pivots sel pick an affinely independent subset and
    whose column j holds difference j's coordinates over it.

    DegenerateSpan for fewer than two points, and then for fewer than k + 2
    points of affine dimension k, so that at least one point cross-validates
    a fit.  The images are taken between the two tests: where the spec is
    undefined at a point of a set of two or more, that error comes first.
    """
    pts, den = _scaled(cone, points)
    if len(pts) < 2:
        raise DegenerateSpan("need at least two points")
    images = None if image is None else _common([image((p, den)) for p in pts])
    red, sel = rref(transpose([list(map(sub, p, pts[0])) for p in pts[1:]]))
    k = len(sel)
    if len(pts) < k + 2:
        raise DegenerateSpan(f"need at least {k + 2} points for affine dimension {k}")
    return pts, den, images, red, sel


def check_affine_on(spec: IsoSpec, points) -> AffineFit:
    """Fit the unique affine map through an affinely independent subset of the
    points and measure exact residuals at the rest.  Forward images are exact
    for every kind, odd powers included, so the map is affine on the points
    iff every residual is 0; the witness is a point of largest residual.

    The fit lives in the affine hull of the supplied points, so restricting
    to a low-dimensional stratum (for example the engaged span) works
    without the points spanning the ambient space.  The points must pass
    the span test of ``affine_span``.
    """
    pts, den, (images, iden), red, sel = affine_span(spec.source_cone, points, spec._eval_ints)
    p0, y0 = pts[0], images[0]
    k = len(sel)

    steps = [list(map(sub, images[i + 1], y0)) for i in sel]
    basis_set = {0} | {i + 1 for i in sel}
    max_res = ZERO
    witness = None
    for idx in range(1, len(pts)):
        if idx in basis_set:
            continue
        # With coordinates t = tn / tden, the residual image - fit is
        # (tden*(y - y0) - sum tn_j steps_j) / (tden*iden).
        tn, tden = scaled_ints([row[idx - 1] for row in red[:k]])
        res = Fraction(max(abs(tden * (c - c0) - sum(map(mul, tn, col)))
                           for c, c0, *col in zip(images[idx], y0, *steps)), tden * iden)
        if res > max_res:
            max_res, witness = res, _fractions((pts[idx], den))
    return AffineFit(max_res == 0, max_res, _fractions((p0, den)),
                     tuple(_fractions((pts[i + 1], den)) for i in sel), _fractions((y0, iden)),
                     tuple(_fractions((images[i + 1], iden)) for i in sel), witness)


def check_positively_homogeneous(spec: IsoSpec, samples, scalars) -> bool:
    """Exact test of f(lam * u) == lam * f(u) over all sample/scalar pairs."""
    f = spec._eval_ints
    for u in samples:
        (ui,), ud = _scaled(spec.source_cone, [u])
        fu, fd = f((ui, ud))
        for lam in scalars:
            p, q = frac(lam).as_integer_ratio()
            if any(_minus(f(([p * c for c in ui], q * ud)), ([p * c for c in fu], q * fd))[0]):
                return False
    return True


def halfline_image_check(spec: IsoSpec, apex, r, lambdas) -> bool:
    """True iff the images of apex + lam*r lie on one half-line from f(apex)
    whose direction is extreme in the target cone."""
    src, tgt = spec.source_cone, spec.target_cone
    (ai, ri), den = _scaled(src, [apex, r])
    _signed_extreme(src, ri)
    f = spec._eval_ints
    base = f((ai, den))
    ray = None
    for lam in lambdas:
        lam = frac(lam)
        diff = _minus(f(_axpy(ai, lam, ri, den)), base)[0]
        if not any(diff):
            if lam != 0:
                return False
        elif ray is None:
            ray = primitive(diff)
        elif primitive(diff) != ray:
            return False
    return ray is None or tgt._in_cone(ray) and tgt._extreme_ray(ray) is not None
