"""Floating-point model of symmetric matrices under the Loewner order.

This is the finite-dimensional stand-in for the space of bounded
self-adjoint operators ordered by the positive semidefinite cone: rank-one
projections span the extreme rays, every such ray is engaged via an explicit
three-projection identity, the identity matrix is the supremum of all
rank-one projections, conjugation by the square root of a positive definite
matrix is a linear order-isomorphism, and arbitrary PSD matrices are
approximated by monotone inf/sup families.

Eigendecompositions use cyclic Jacobi rotations implemented here; numpy is
used only as array plumbing.  The order predicate is decided through a
semidefinite-aware Cholesky factorization of the shifted difference, which
tests lambda_min(B - A) >= -tol exactly as stated but much cheaper than a
full eigendecomposition.
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


@dataclass(frozen=True)
class PsdTolerance:
    """Tolerances for the floating-point backend."""

    eig_tol: float = 1e-10
    cmp_tol: float = 1e-9

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.eig_tol, self.cmp_tol)):
            raise ValueError("tolerances must be finite and positive")


DEFAULT_TOL = PsdTolerance()


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
        if not MIN_N <= n <= MAX_N:
            raise DimensionMismatch(f"supported sizes are {MIN_N} <= n <= {MAX_N}")
        peak = float(np.max(np.abs(a)))
        if not math.isfinite(peak):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, peak)
        if float(np.max(np.abs(a - a.T))) >= 1e-14 * scale:
            raise NotSymmetric("asymmetry exceeds 1e-14 relative tolerance")
        if peak > _HALF_FLOAT_MAX:
            # a + a.T below would overflow
            raise ValueError("matrix entries overflow the float range when symmetrized")
        sym = (a + a.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "array", sym)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


def _as_array(m) -> np.ndarray:
    if isinstance(m, SymMatrix):
        return m.array
    return SymMatrix(m).array


def eigh_jacobi(a, max_sweeps: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below 1e-14 times the
    matrix norm (at most max_sweeps sweeps).  Returns eigenvalues ascending
    and the orthogonal matrix of eigenvectors as columns, each column sign
    fixed so its first significant entry is positive.
    """
    # Python floats, not numpy scalars: a square past the float range is a
    # silent inf, which keeps the sweep going instead of warning.
    m = np.array(_as_array(a) if isinstance(a, SymMatrix) else a, dtype=float).tolist()
    n = len(m)
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    norm = max(math.hypot(*(x for row in m for x in row)), 1e-300)
    for _ in range(max_sweeps):
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
    evals = np.array([m[i][i] for i in range(n)])
    vecs = np.array(v)
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    vecs = vecs[:, order]
    for j in range(n):
        col = vecs[:, j]
        lead = next((c for c in col if abs(c) > 1e-12), 1.0)
        if lead < 0:
            vecs[:, j] = -col
    return evals, vecs


def lambda_min(m) -> float:
    return float(eigh_jacobi(m)[0][0])


def lambda_max(m) -> float:
    return float(eigh_jacobi(m)[0][-1])


def _psd_cholesky(m: np.ndarray, pivot_tol: float) -> bool:
    """Semidefinite-aware Cholesky feasibility: True iff m is PSD up to
    pivot_tol on the diagonal."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    for k in range(n):
        d = a[k, k]
        if d < -pivot_tol * scale:
            return False
        if d <= pivot_tol * scale:
            # semidefinite pivot: the rest of the row must vanish too
            if k + 1 < n and float(np.max(np.abs(a[k, k + 1:]))) > (
                math.sqrt(max(d, 0.0) * scale) + pivot_tol * scale
            ):
                return False
            a[k, k:] = 0.0
            continue
        a[k, k] = math.sqrt(d)
        a[k, k + 1:] /= a[k, k]
        for j in range(k + 1, n):
            a[j, j:] -= a[k, j] * a[k, j:]
    return True


def psd_leq(a, b, tol: float = DEFAULT_TOL.eig_tol) -> bool:
    """Loewner order test: True iff lambda_min(b - a) >= -tol.

    Decided through the shifted Cholesky predicate, which is equivalent to
    the eigenvalue statement: m + tol*I is PSD iff lambda_min(m) >= -tol.
    """
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise DimensionMismatch("matrices must have the same size")
    diff = b - a + tol * np.eye(a.shape[0])
    return _psd_cholesky(diff, 1e-14)


def rank_one_projection(x) -> SymMatrix:
    """P = x x^T for a unit vector x; idempotent and trace one by construction."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("vector required")
    nrm = float(np.linalg.norm(x))
    if not (1 - 1e-12 <= nrm <= 1 + 1e-12):
        raise NotUnit(f"|x| = {nrm!r} is not within 1e-12 of 1")
    return SymMatrix(np.outer(x, x))


@dataclass(frozen=True)
class EngagementWitness:
    """Vectors realizing P_x = P_y + P_z - P_w inside a plane containing x."""

    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    residual: float


def engagement_witness(x, tol: PsdTolerance = DEFAULT_TOL) -> EngagementWitness:
    """Three rank-one projections witnessing that the ray of P_x is engaged.

    Chooses the plane V spanned by x and the coordinate direction least
    aligned with x, takes w as the normalized complement of x in V (sign
    fixed on its first significant coordinate) and y, z as the two diagonal
    unit vectors of the (x, w) frame; then P_y + P_z = P_V and subtracting
    P_w leaves exactly P_x.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < MIN_N:
        raise DimensionMismatch("need dimension at least 2")
    nrm = float(np.linalg.norm(x))
    if not (1 - 1e-12 <= nrm <= 1 + 1e-12):
        raise NotUnit(f"|x| = {nrm!r} is not within 1e-12 of 1")
    j = int(np.argmin(np.abs(x)))
    e = np.zeros(n)
    e[j] = 1.0
    u = e - x[j] * x
    w = u / float(np.linalg.norm(u))
    lead = next((c for c in w if abs(c) > 1e-12), 1.0)
    if lead < 0:
        w = -w
    y = (x + w) / math.sqrt(2.0)
    z = (x - w) / math.sqrt(2.0)
    px = np.outer(x, x)
    combo = np.outer(y, y) + np.outer(z, z) - np.outer(w, w)
    residual = float(np.linalg.norm(px - combo))
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
    smaller lambda_min would falsify the supremum identity and is reported
    INCONSISTENT (unreachable by construction).
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
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-12:
            samples.append(v / nrm)
    for x in samples:
        if not psd_leq(np.outer(x, x), b, tol.eig_tol):
            return SupCheckVerdict(NOT_UPPER_BOUND, float(lam_min[0]), len(samples), x)
    if float(lam_min[0]) >= 1.0 - tol.cmp_tol:
        return SupCheckVerdict(CONSISTENT, float(lam_min[0]), len(samples))
    return SupCheckVerdict(INCONSISTENT, float(lam_min[0]), len(samples), bottom)


class ConjugationMap:
    """T_A(Q) = A^(1/2) Q A^(1/2), a linear order-isomorphism of the PSD cone."""

    __slots__ = ("matrix", "sqrt", "inv_sqrt")

    def __init__(self, matrix: np.ndarray, sqrt: np.ndarray, inv_sqrt: np.ndarray):
        self.matrix = matrix
        self.sqrt = sqrt
        self.inv_sqrt = inv_sqrt

    def apply(self, q) -> SymMatrix:
        q = _as_array(q)
        return SymMatrix(self.sqrt @ q @ self.sqrt)

    def invert(self, q) -> SymMatrix:
        q = _as_array(q)
        return SymMatrix(self.inv_sqrt @ q @ self.inv_sqrt)


def conjugation_iso(a, tol: PsdTolerance = DEFAULT_TOL) -> ConjugationMap:
    """Conjugation by the square root of a positive definite matrix."""
    a = _as_array(a)
    evals, vecs = eigh_jacobi(a)
    if float(evals[0]) <= tol.eig_tol:
        raise NotPositiveDefinite(f"lambda_min = {float(evals[0])!r}")
    sqrt = vecs @ np.diag(np.sqrt(evals)) @ vecs.T
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(evals)) @ vecs.T
    return ConjugationMap(np.array(a), (sqrt + sqrt.T) / 2, (inv_sqrt + inv_sqrt.T) / 2)


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
    """
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
