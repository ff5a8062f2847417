"""Floating-point model of symmetric matrices under the Loewner order.

This is the finite-dimensional stand-in for the space of bounded
self-adjoint operators ordered by the positive semidefinite cone: rank-one
projections span the extreme rays, every such ray is engaged via an explicit
three-projection identity, the identity matrix is the supremum of all
rank-one projections, conjugation by the square root of a positive definite
matrix is a linear order-isomorphism, and arbitrary PSD matrices are
approximated by monotone inf/sup families.

Eigendecompositions use cyclic Jacobi rotations implemented here.  The order
predicate is decided through a semidefinite-aware Cholesky factorization of
the shifted difference (Higham 1990), much cheaper than a full
eigendecomposition.  It tests lambda_min(B - A) >= -tol up to a slack: a
pivot within 1e-14 times max(1, the largest entry) of zero counts as zero,
so with an entry of 1e10 a pair whose lambda_min(B - A) is -1e-6 is
ordered.  identity_sup_check's INCONSISTENT verdict is the check that
catches that slack.

At 2 <= n <= 8 a numpy call costs more than the arithmetic it does, so the
Jacobi sweep and the factorization run on Python floats, and the other
repeated paths use array methods and broadcasts instead of numpy's
functions.  numpy holds the matrices and makes the seeded draws and the
matrix products whose bits reach a report; a norm is _norm, the float
operations of np.linalg.norm.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnit,
)

MIN_N = 2
MAX_N = 8
_HALF_FLOAT_MAX = sys.float_info.max / 2
# Above this peak entry, eigh_jacobi and _psd_cholesky work on the matrix
# divided by a power of two, because sums of squares and products of entries
# would leave the float range; at or below it they run unscaled.
_RESCALE_PEAK = 2.0 ** 500
_MAX_SWEEPS = 50
# A Cholesky pivot at most this times the peak entry counts as zero.
_PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class PsdTolerance:
    """Tolerances for the floating-point backend."""

    eig_tol: float = 1e-10
    cmp_tol: float = 1e-9

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.eig_tol, self.cmp_tol)):
            raise ValueError("tolerances must be finite and positive")


DEFAULT_TOL = PsdTolerance()


def check_size(n: int) -> None:
    """DimensionMismatch unless MIN_N <= n <= MAX_N, the sizes every psd
    routine supports."""
    if not MIN_N <= n <= MAX_N:
        raise DimensionMismatch(f"supported sizes are {MIN_N} <= n <= {MAX_N}")


class SymMatrix:
    """Dense symmetric float64 matrix, 2 <= n <= 8.

    Construction symmetrizes the input after checking that the asymmetry is
    below 1e-14 relative to the magnitude of the entries.
    """

    __slots__ = ("n", "array")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("square matrix required")
        n = a.shape[0]
        check_size(n)
        peak = _finite_peak(a)
        scale = max(1.0, peak)
        if float(np.abs(a - a.T).max()) >= 1e-14 * scale:
            raise NotSymmetric("asymmetry exceeds 1e-14 relative tolerance")
        if peak > _HALF_FLOAT_MAX:
            # a + a.T below would overflow
            raise ValueError("matrix entries overflow the float range when symmetrized")
        sym = (a + a.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "array", sym)

    @classmethod
    def _exact(cls, sym: np.ndarray) -> SymMatrix:
        """The SymMatrix of sym, an exactly symmetric float array of a
        supported size that nothing else holds.  SymMatrix(sym) would check
        the same entries and symmetrize them to the same bits; only the
        finiteness check can refuse it, so only that one runs."""
        _finite_peak(sym)
        sym.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "n", sym.shape[0])
        object.__setattr__(m, "array", sym)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


def _finite_peak(a: np.ndarray) -> float:
    """The largest entry of a in size; ValueError unless it is finite."""
    peak = float(np.abs(a).max())
    if not math.isfinite(peak):
        raise ValueError("matrix entries must be finite")
    return peak


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of a 1-D float array: sqrt(v . v), the float
    operations of np.linalg.norm without its dispatch."""
    return math.sqrt(v.dot(v))


def _as_array(m) -> np.ndarray:
    if isinstance(m, SymMatrix):
        return m.array
    return SymMatrix(m).array


def _leads_negative(v) -> bool:
    """The sign convention of eigenvectors and witness directions: v is
    flipped when its first entry above 1e-12 in size is negative."""
    return next((c for c in v if abs(c) > 1e-12), 1.0) < 0


def _rescale_exponent(peak: float) -> int:
    """0 for a peak entry up to _RESCALE_PEAK; above it, the even k with
    1 <= peak / 2**k < 4.  Dividing by an even power of two divides square
    roots by a power of two as well, so each float operation of the sweep and
    the factorization is the unscaled one times a power of two."""
    if not _RESCALE_PEAK < peak < math.inf:
        return 0
    k = math.frexp(peak)[1] - 1
    return k - k % 2


def eigh_jacobi(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below 1e-14 times the
    matrix norm (at most _MAX_SWEEPS sweeps).  Returns eigenvalues ascending
    and the orthogonal matrix of eigenvectors as columns, each column sign
    fixed so its first significant entry is positive.  A matrix with an entry
    above 2**500 is swept divided by a power of two, and an eigenvalue beyond
    the float range comes back as inf.
    """
    # Python floats, not numpy scalars: a square past the float range is a
    # silent inf, which keeps the sweep going instead of warning.
    m = np.asarray(a.array if isinstance(a, SymMatrix) else a, dtype=float).tolist()
    n = len(m)
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    norm = math.hypot(*(x for row in m for x in row))
    # the peak entry is at most the norm, so only a large norm asks for it
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
                mp, mr = m[p], m[r]
                apr = mp[r]
                if apr == 0.0:
                    continue
                theta = (mr[r] - mp[p]) / (2.0 * apr)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in m:
                    mkp, mkr = row[p], row[r]
                    row[p] = c * mkp - s * mkr
                    row[r] = s * mkp + c * mkr
                for k in range(n):
                    mpk, mrk = mp[k], mr[k]
                    mp[k] = c * mpk - s * mrk
                    mr[k] = s * mpk + c * mrk
                for row in v:
                    vkp, vkr = row[p], row[r]
                    row[p] = c * vkp - s * vkr
                    row[r] = s * vkp + c * vkr
    # a product past the float range is inf, as a Python float, without a warning
    evals = np.array([m[i][i] * 2.0 ** e for i in range(n)])
    vecs = np.array(v)
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    vecs = vecs[:, order]
    for j in range(n):
        if _leads_negative(vecs[:, j]):
            vecs[:, j] = -vecs[:, j]
    return evals, vecs


def lambda_min(m) -> float:
    return float(eigh_jacobi(m)[0][0])


def lambda_max(m) -> float:
    return float(eigh_jacobi(m)[0][-1])


def _psd_cholesky(m: list[list[float]]) -> bool:
    """Semidefinite-aware Cholesky feasibility: True iff m, a list of rows of
    Python floats, is PSD up to _PIVOT_TOL on the diagonal.

    Only the upper triangle is factored, each row held from its diagonal
    entry on.  Every entry goes through the float operations, in the order,
    of the numpy row-operation form in tests/oracles.py.
    """
    peak = max(max(map(max, m)), -min(map(min, m)))
    e = _rescale_exponent(peak)
    if e:
        peak = math.ldexp(peak, -e)
        rows = [[math.ldexp(x, -e) for x in row[j:]] for j, row in enumerate(m)]
    else:
        rows = [row[j:] for j, row in enumerate(m)]
    scale = max(1.0, peak)
    lim = _PIVOT_TOL * scale
    for k in range(len(rows)):
        row = rows[k]  # as the steps before k left it
        d = row[0]
        if d < -lim:
            return False
        if d <= lim:
            # semidefinite pivot: the rest of the row must vanish too
            bound = math.sqrt(max(d, 0.0) * scale) + lim
            if any(abs(x) > bound for x in row[1:]):
                return False
            continue
        r = math.sqrt(d)
        tail = [x / r for x in row[1:]]
        for i, c in enumerate(tail):
            j = k + 1 + i
            rows[j] = [x - c * y for x, y in zip(rows[j], tail[i:])]
    return True


def psd_leq(a, b, tol: float = DEFAULT_TOL.eig_tol) -> bool:
    """Loewner order test: lambda_min(b - a) >= -tol, up to the pivot slack.

    Decided through the shifted Cholesky predicate on m + tol*I, m = b - a,
    which is PSD iff lambda_min(m) >= -tol.  A pivot within _PIVOT_TOL
    times max(1, the largest entry of m + tol*I) of zero counts as zero, so
    a pair can be ordered although lambda_min(m) is below -tol by about that
    much: psd_leq(diag(1, 0), diag(0.999999, 1e10)) is True, with
    lambda_min(m) = -1e-6.
    A tol that is not finite is a ValueError: a NaN would pass every pair.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise DimensionMismatch("matrices must have the same size")
    return _shifted_psd((b - a).tolist(), tol)


def _shifted_psd(m: list[list[float]], tol: float) -> bool:
    """_psd_cholesky of m + tol*I, with tol added to the diagonal of m in
    place.  Only the diagonal changes: off it, tol*I would add 0.0, which
    at most turns a -0.0 into 0.0, and no sign of a zero reaches the
    verdict."""
    for i, row in enumerate(m):
        row[i] += tol
    return _psd_cholesky(m)


def _check_unit(x: np.ndarray) -> None:
    """NotUnit unless |x| is within 1e-12 of 1."""
    nrm = _norm(x)
    if not (1 - 1e-12 <= nrm <= 1 + 1e-12):
        raise NotUnit(f"|x| = {nrm!r} is not within 1e-12 of 1")


def rank_one_projection(x) -> SymMatrix:
    """P = x x^T for a unit vector x; idempotent and trace one by construction."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("vector required")
    _check_unit(x)
    return SymMatrix(np.outer(x, x))


@dataclass(frozen=True)
class EngagementWitness:
    """Vectors realizing P_x = P_y + P_z - P_w inside a plane containing x."""

    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    residual: float


def engagement_witness(x) -> EngagementWitness:
    """Three rank-one projections witnessing that the ray of P_x is engaged.

    Chooses the plane V spanned by x and the coordinate direction least
    aligned with x, takes w as the normalized complement of x in V (sign
    fixed on its first significant coordinate) and y, z as the two diagonal
    unit vectors of the (x, w) frame; then P_y + P_z = P_V and subtracting
    P_w leaves exactly P_x.
    """
    x = np.asarray(x, dtype=float)
    check_size(x.shape[0])
    _check_unit(x)
    size = np.abs(x).tolist()
    j = size.index(min(size))  # the first smallest, as np.argmin
    # e_j - x[j] x without e_j: where p = x[j] x[i] is zero, 0.0 - p is the
    # +0.0 that e_i - p gives, and -p would be -0.0
    u = 0.0 - x[j] * x
    u[j] += 1.0
    w = u / _norm(u)
    if _leads_negative(w.tolist()):
        w = -w
    y = (x + w) / math.sqrt(2.0)
    z = (x - w) / math.sqrt(2.0)
    # the broadcasts make np.outer's products
    px = x[:, None] * x
    combo = y[:, None] * y + z[:, None] * z - w[:, None] * w
    residual = _norm((px - combo).ravel())
    return EngagementWitness(y=y, z=z, w=w, residual=residual)


CONSISTENT = "CONSISTENT"
NOT_UPPER_BOUND = "NOT_UPPER_BOUND"
INCONSISTENT = "INCONSISTENT"


@dataclass(frozen=True)
class SupCheckVerdict:
    verdict: str
    lambda_min: float
    samples: int
    witness: np.ndarray | None = None


def identity_sup_check(n: int, b, m: int = 10000, seed: int = 0,
                       tol: PsdTolerance = DEFAULT_TOL) -> SupCheckVerdict:
    """Sampled shadow of the identity-as-supremum-of-projections fact.

    Tests whether b dominates the rank-one projections along m sampled unit
    vectors (the bottom eigenvector of b is always included, which makes the
    upper-bound screen decisive).  If b dominates all of them, b must be
    above the identity: lambda_min(b) >= 1 - cmp_tol gives CONSISTENT, and a
    smaller lambda_min is reported INCONSISTENT.  With exact arithmetic it
    would falsify the supremum identity; here it is psd_leq's pivot slack
    showing, which the eigenvalue test catches: b = diag(0.999999, 1e10)
    dominates every sampled projection up to the slack, and its lambda_min
    is 0.999999.
    """
    b = _as_array(b)
    if b.shape[0] != n:
        raise DimensionMismatch("matrix size does not match n")
    rng = np.random.default_rng(seed)
    lam_min, vecs = eigh_jacobi(b)
    bottom = vecs[:, 0]
    samples = [bottom]
    for _ in range(m):
        v = rng.normal(size=n)
        nrm = _norm(v)
        if nrm > 1e-12:
            samples.append(v / nrm)
    # psd_leq(np.outer(x, x), b) entry by entry, with b validated once: the
    # products p * q are np.outer's, and they are exactly symmetric, so the
    # symmetrization SymMatrix would apply leaves them unchanged
    rows = b.tolist()
    for x in samples:
        xs = x.tolist()
        diff = [[bij - p * q for bij, q in zip(brow, xs)] for brow, p in zip(rows, xs)]
        if not _shifted_psd(diff, tol.eig_tol):
            return SupCheckVerdict(NOT_UPPER_BOUND, float(lam_min[0]), len(samples), x)
    if float(lam_min[0]) >= 1.0 - tol.cmp_tol:
        return SupCheckVerdict(CONSISTENT, float(lam_min[0]), len(samples))
    return SupCheckVerdict(INCONSISTENT, float(lam_min[0]), len(samples), bottom)


class ConjugationMap:
    """T_A(Q) = A^(1/2) Q A^(1/2), a linear order-isomorphism of the PSD cone."""

    __slots__ = ("sqrt", "inv_sqrt")

    def __init__(self, sqrt: np.ndarray, inv_sqrt: np.ndarray):
        self.sqrt = sqrt
        self.inv_sqrt = inv_sqrt

    def apply(self, q) -> SymMatrix:
        return _congruence(self.sqrt, _as_array(q))

    def invert(self, q) -> SymMatrix:
        return _congruence(self.inv_sqrt, _as_array(q))


def _congruence(s: np.ndarray, q: np.ndarray) -> SymMatrix:
    """s q s for symmetric s and q.  The float product is symmetric only up
    to rounding, so it is symmetrized here instead of being checked like
    outside input.  The average is exactly symmetric, and a finite one has
    no entry above half the float range, so SymMatrix._exact holds it with
    only the finiteness check: a product past the float range is refused as
    non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = s @ q @ s
        return SymMatrix._exact((m + m.T) / 2)


def conjugation_iso(a, tol: PsdTolerance = DEFAULT_TOL) -> ConjugationMap:
    """Conjugation by the square root of a positive definite matrix."""
    a = _as_array(a)
    evals, vecs = eigh_jacobi(a)
    if float(evals[0]) <= tol.eig_tol:
        raise NotPositiveDefinite(f"lambda_min = {float(evals[0])!r}")
    sqrt = vecs @ np.diag(np.sqrt(evals)) @ vecs.T
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(evals)) @ vecs.T
    return ConjugationMap((sqrt + sqrt.T) / 2, (inv_sqrt + inv_sqrt.T) / 2)


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    d_k: float
    e_k: float


def infsup_approx(a, k_max: int = 16, seed: int = 0) -> list[ConvergenceRow]:
    """Monotone approximation of a PSD matrix by inf/sup families.

    The schedule grows a nested chain of subspaces V_1 < V_2 < ... from a
    seeded direction grid.  The sup side uses the increasing chain
    Q_k = T_{A+I}(P_k) <= A + I with d_k = lambda_max(A + I - Q_k); the inf
    side uses the decreasing chain A + I - P_k >= A with
    e_k = lambda_max(I - P_k).  Both indicators are nonincreasing by
    construction and reach zero once the chain fills the space.  The
    schedule (which projections enter at step k) is a reporting choice; any
    nested chain exhibits the same monotone convergence.

    Rows 1..min(k_max, n) are computed, each from I - P_k formed once;
    V_n is the whole space, so rows n+1..k_max repeat row n with their own k.
    """
    a = _as_array(a)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    dirs: list[np.ndarray] = []
    while len(dirs) < n:
        v = rng.normal(size=n)
        for u in dirs:
            v = v - np.dot(u, v) * u
        nrm = _norm(v)
        if nrm > 1e-8:
            dirs.append(v / nrm)
    ident = np.eye(n)
    try:
        s = conjugation_iso(a + ident).sqrt
    except NotPositiveDefinite:
        if psd_leq(np.zeros((n, n)), a):
            raise ValueError("A + I is not positive definite in float precision: "
                             "the entries of A are too large for the added I") from None
        raise
    rows: list[ConvergenceRow] = []
    basis = np.zeros((n, 0))
    for k in range(1, min(k_max, n) + 1):
        basis = np.column_stack([basis, dirs[k - 1]])
        rest = ident - basis @ basis.T
        rows.append(ConvergenceRow(k, max(lambda_max(s @ rest @ s), 0.0),
                                   max(lambda_max(rest), 0.0)))
    return rows + [ConvergenceRow(k, rows[-1].d_k, rows[-1].e_k) for k in range(n + 1, k_max + 1)]
