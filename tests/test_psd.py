import math

import numpy as np
import pytest

from coneorder.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnit,
)
from coneorder.psd import (
    CONSISTENT,
    INCONSISTENT,
    NOT_UPPER_BOUND,
    PsdTolerance,
    SymMatrix,
    _congruence,
    _norm,
    _psd_cholesky,
    conjugation_iso,
    eigh_jacobi,
    engagement_witness,
    identity_sup_check,
    infsup_approx,
    lambda_max,
    lambda_min,
    psd_leq,
    rank_one_projection,
)

from oracles import (
    congruence_reference,
    eigh_jacobi_reference,
    eigh_oracle,
    engagement_witness_reference,
    identity_sup_check_reference,
    infsup_approx_reference,
    norm_reference,
    psd_cholesky_reference,
    psd_leq_reference,
)


def random_sym(rng, n):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


class TestSymMatrix:
    def test_construction_and_immutability(self):
        m = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
        assert m.n == 2
        with pytest.raises(AttributeError):
            m.n = 3
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_small_asymmetry_symmetrized(self):
        m = SymMatrix([[1.0, 0.5 + 1e-16], [0.5, 2.0]])
        assert m.array[0, 1] == m.array[1, 0]

    def test_large_asymmetry_rejected(self):
        with pytest.raises(NotSymmetric):
            SymMatrix([[1.0, 0.5], [0.6, 2.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN compares false with everything, so without this check it would
        # pass the asymmetry test and reach every verdict
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            SymMatrix([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            SymMatrix([[1.0, bad], [bad, 1.0]])

    def test_size_limits(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix([[1.0]])
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.eye(9))


class TestJacobiEigendecomposition:
    def test_matches_numpy_oracle_across_sizes(self):
        # 1000 random symmetric matrices over all supported sizes; residual
        # bound 1e-10 * |A| per the construction contract
        rng = np.random.default_rng(0)
        worst = 0.0
        for n in range(2, 9):
            for _ in range(143):
                a = random_sym(rng, n)
                w, q = eigh_jacobi(a)
                w_np, _ = eigh_oracle(a)
                assert np.allclose(w, w_np, atol=1e-9)
                res = np.linalg.norm(a - q @ np.diag(w) @ q.T)
                worst = max(worst, res / max(np.linalg.norm(a), 1e-300))
                assert np.allclose(q @ q.T, np.eye(n), atol=1e-12)
        assert worst <= 1e-10

    def test_deterministic_eigenvector_signs(self):
        a = np.diag([3.0, 1.0, 2.0])
        _, q1 = eigh_jacobi(a)
        _, q2 = eigh_jacobi(a)
        assert np.array_equal(q1, q2)

    def test_already_diagonal(self):
        w, q = eigh_jacobi(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0])

    def test_entries_near_the_float_range(self):
        # the squares of 1e200-sized entries overflow; the sweep must still
        # converge to the scaled eigenpairs, without a numpy warning
        a = random_sym(np.random.default_rng(3), 4)
        w, q = eigh_jacobi(a)
        w_big, q_big = eigh_jacobi(a * 1e200)
        assert np.allclose(w_big / 1e200, w, rtol=1e-12, atol=1e-12)
        assert np.allclose(q_big, q, atol=1e-10)

    def test_peak_entry_near_the_float_limit(self):
        # the Frobenius norm of an 8x8 matrix with entries up to 8e307
        # overflows; the sweep runs on the matrix divided by a power of two
        a = random_sym(np.random.default_rng(1), 8)
        scale = 8e307 / np.max(np.abs(a))
        w, q = eigh_jacobi(a)
        w_big, q_big = eigh_jacobi(SymMatrix(a * scale))
        assert np.allclose(w_big / scale, w, rtol=1e-12, atol=1e-12 * np.max(np.abs(w)))
        assert np.allclose(q_big, q, atol=1e-10)

    def test_bytes_equal_the_indexed_reference(self):
        # the sweep on bound rows makes the float operations of the indexed
        # sweep in the same order: random matrices, matrices rescaled above
        # 2**500, and diagonal ones, which no rotation touches
        rng = np.random.default_rng(39)
        for n in range(2, 9):
            for _ in range(40):
                a = random_sym(rng, n)
                for m in (a, a * 2.0 ** 520, np.diag(np.diag(a))):
                    w, q = eigh_jacobi(m)
                    w_ref, q_ref = eigh_jacobi_reference(m)
                    assert w.tobytes() == w_ref.tobytes() and q.tobytes() == q_ref.tobytes()


class TestLoewnerOrder:
    def test_examples(self):
        assert psd_leq(np.zeros((2, 2)), np.eye(2))
        assert not psd_leq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        rng = np.random.default_rng(1)
        for n in (2, 4, 8):
            for _ in range(20):
                x = rng.normal(size=n)
                x /= np.linalg.norm(x)
                assert psd_leq(rank_one_projection(x), np.eye(n))

    def test_reflexive_and_shift(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert psd_leq(a, a)
        assert psd_leq(a, a + 1e-3 * np.eye(2))
        assert not psd_leq(a + 1e-3 * np.eye(2), a)

    def test_matches_eigenvalue_definition(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = rng.integers(2, 6)
            a, b = random_sym(rng, n), random_sym(rng, n)
            lam = float(eigh_oracle(b - a)[0][0])
            if abs(lam + 1e-10) > 1e-12:  # stay off the tolerance boundary
                assert psd_leq(a, b) == (lam >= -1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psd_leq(np.eye(2), np.eye(3))

    def test_zero_pivot_in_last_position(self):
        # exercises the semidefinite pivot branch on the final row
        assert psd_leq(np.diag([0.0, 1e-10]), np.zeros((2, 2)))
        assert psd_leq(np.zeros((2, 2)), np.diag([1.0, 0.0]))
        assert not psd_leq(np.diag([0.0, 1e-3]), np.zeros((2, 2)))

    def test_zero_pivot_with_a_nonzero_row_is_not_psd(self):
        # the semidefinite pivot's row test: [[0, 1], [1, 1]] has a zero
        # pivot, and its next pivot is positive, but it is indefinite
        m = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert not psd_leq(np.zeros((2, 2)), m, 0.0)
        assert not _psd_cholesky(m.tolist())

    def test_a_pivot_at_minus_the_tolerance_counts_as_zero(self):
        # -_PIVOT_TOL * scale itself is a semidefinite pivot, not a negative one
        m = [[-1e-14, 0.0], [0.0, 1.0]]
        assert _psd_cholesky(m) and psd_cholesky_reference(m)
        assert psd_leq(np.diag([1e-14, 0.0]), np.diag([0.0, 1.0]), 0.0)
        assert not _psd_cholesky([[-2e-14, 0.0], [0.0, 1.0]])

    def test_rescaled_semidefinite_pivot_checks_its_row(self):
        # above 2**500 the matrix is factored divided by a power of two;
        # unscaled, the pivot times scale overflows, so the row bound is inf
        # and this indefinite matrix would pass
        big = 2.0 ** 1000
        m = np.array([[1e-15 * big, big], [big, big]])
        assert not psd_leq(np.zeros((2, 2)), m)
        assert psd_leq(np.zeros((2, 2)), np.array([[big, big], [big, big]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_refused(self, bad):
        # a NaN tol passed every pair, and an infinite one warned in tol * I
        with pytest.raises(ValueError, match="tol must be finite"):
            psd_leq(np.eye(2), np.zeros((2, 2)), bad)


def _kernel_cases(rng, count):
    """count seeded symmetric matrices, n = 2..8, of six kinds in turn:
    positive definite, rank-deficient PSD, rank-deficient shifted by
    +-1e-12 of its trace, indefinite, PSD with one pivot set to zero or just
    above it (a semidefinite pivot over a nonzero row), and one of the
    others rescaled by 2**k for 500 <= k < 1000."""
    for i in range(count):
        n = int(rng.integers(2, 9))
        kind = i % 6
        if kind == 5:
            kind = int(rng.integers(0, 5))
            scale = 2.0 ** int(rng.integers(500, 1000))
        else:
            scale = 1.0
        if kind == 3:
            g = rng.normal(size=(n, n))
            m = (g + g.T) / 2
        else:
            g = rng.normal(size=(n, n if kind in (0, 4) else int(rng.integers(0, n))))
            m = g @ g.T
        if kind == 2:
            m = m + float(rng.choice([-1e-12, 1e-12])) * np.trace(m) * np.eye(n)
        elif kind == 4:
            k = int(rng.integers(0, n))
            m[k, k] = float(rng.choice([0.0, 1e-15 * np.max(np.abs(m))]))
        yield m * scale


class TestCholeskyKernel:
    """The list-of-floats factorization against the numpy one it replaced."""

    def test_matches_numpy_reference(self):
        outcomes = {True: 0, False: 0}
        for m in _kernel_cases(np.random.default_rng(36), 20000):
            want = psd_cholesky_reference(m)
            assert _psd_cholesky(m.tolist()) == want, m.tolist()
            outcomes[want] += 1
        assert min(outcomes.values()) > 5000


def _unit_cases(rng, n, count):
    """count seeded unit vectors of size n, four kinds in turn: gaussian,
    small integers with exact zeros of either sign, a signed basis vector,
    and nonzero small integers, whose sizes tie."""
    for i in range(count):
        kind = i % 4
        if kind == 0:
            x = rng.normal(size=n)
        elif kind == 2:
            x = np.zeros(n)
            x[rng.integers(n)] = rng.choice([-1.0, 1.0])
        else:
            x = rng.integers(0 if kind == 1 else 1, 4, size=n) * rng.choice([-1.0, 1.0], n)
            if not x.any():
                x[rng.integers(n)] = 1.0
        yield x / np.linalg.norm(x)


class TestFastPathBits:
    """Each psd fast path against the numpy form it replaced, in bytes."""

    def test_norm_is_np_linalg_norm(self):
        rng = np.random.default_rng(41)
        for n in range(2, 9):
            for i in range(200):
                # sizes from subnormal squares to squares past the float range
                with np.errstate(over="ignore"):
                    v = rng.normal(size=n) * 2.0 ** int(rng.integers(-1060, 1020))
                    m = rng.normal(size=(n, n)) * 2.0 ** int(rng.integers(-530, 520))
                    assert repr(_norm(v)) == repr(norm_reference(v))
                    assert repr(_norm(m.ravel())) == repr(norm_reference(m))

    def test_engagement_witness_bytes(self):
        rng = np.random.default_rng(41)
        for n in range(2, 9):
            for x in _unit_cases(rng, n, 200):
                got, want = engagement_witness(x), engagement_witness_reference(x)
                for v, v_ref in ((got.y, want.y), (got.z, want.z), (got.w, want.w)):
                    assert v.tobytes() == v_ref.tobytes(), x.tolist()
                assert repr(got.residual) == repr(want.residual)

    def test_e1_witness_keeps_positive_zeros(self):
        w = engagement_witness(np.array([1.0, 0.0, 0.0])).w
        assert [math.copysign(1.0, c) for c in w] == [1.0, 1.0, 1.0]

    def test_ties_take_the_first_smallest_coordinate(self):
        # |x| ties at coordinates 1 and 2: the plane is spanned by x and e_1
        x = np.array([2.0, -1.0, 1.0]) / math.sqrt(6.0)
        w = engagement_witness(x).w
        assert w[1] != 0.0 and w[2] != 0.0 and abs(w[1]) > abs(w[2])

    def test_psd_leq_equals_the_eye_shift(self):
        rng = np.random.default_rng(41)
        outcomes = {True: 0, False: 0}
        for n in range(2, 9):
            for i in range(200):
                tol = [1e-10, 0.0, 1e-9, 1e-3][i % 4]
                a = random_sym(rng, n)
                if i % 5 == 4:
                    # diagonal pairs whose difference has -0.0 off the diagonal
                    a = np.diag(np.diag(a))
                    b = np.diag(rng.normal(size=n)) + np.where(np.eye(n) == 1, 0.0, -0.0)
                else:
                    # a difference whose lambda_min is at or near -tol
                    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                    lams = np.abs(rng.normal(size=n))
                    lams[0] = -tol * (1.0 + float(rng.choice([-1e-3, 0.0, 1e-3, 1.0])))
                    b = a + q @ np.diag(lams) @ q.T
                want = psd_leq_reference(a, b, tol)
                assert psd_leq(a, b, tol) == want
                outcomes[want] += 1
        assert min(outcomes.values()) > 300

    def test_congruence_bytes_and_overflow_messages(self):
        rng = np.random.default_rng(41)
        refused = 0
        for n in range(2, 9):
            for i in range(200):
                g = rng.normal(size=(n, n))
                s = conjugation_iso(np.eye(n) + g @ g.T).sqrt * [1.0, 2.0 ** 500, 1e154][i % 3]
                q = random_sym(rng, n) * [1.0, 1e300, 3e307][i // 3 % 3]
                try:
                    want = congruence_reference(s, q)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        _congruence(s, q)
                    assert str(got.value) == str(exc)
                    refused += 1
                    continue
                got = _congruence(s, q)
                assert got.n == want.n and got.array.tobytes() == want.array.tobytes()
                assert not got.array.flags.writeable
        assert 200 < refused < 7 * 200 - 200
        # the conj rows of the command-line overflow test
        for a, q in ((np.diag([4.0, 4.0]), np.diag([3e307, 3e307])),
                     (np.diag([1e300, 1.0]), np.diag([1e300, 1.0]))):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                conjugation_iso(a).apply(q)


class TestRankOneProjection:
    def test_examples(self):
        assert np.array_equal(rank_one_projection([1.0, 0.0]).array, np.diag([1.0, 0.0]))
        p = rank_one_projection(np.array([1.0, 1.0]) / math.sqrt(2))
        assert np.allclose(p.array, [[0.5, 0.5], [0.5, 0.5]])

    def test_idempotent_and_trace_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(2, 9)
            x = rng.normal(size=n)
            x /= np.linalg.norm(x)
            p = rank_one_projection(x).array
            assert abs(np.trace(p) - 1.0) < 1e-12
            assert np.max(np.abs(p @ p - p)) < 1e-12

    def test_not_unit(self):
        with pytest.raises(NotUnit):
            rank_one_projection([1.0, 1.0])


class TestEngagementWitness:
    def test_concrete_e1_case(self):
        w = engagement_witness(np.array([1.0, 0.0, 0.0]))
        s = 1 / math.sqrt(2)
        assert np.allclose(w.y, [s, s, 0.0])
        assert np.allclose(w.z, [s, -s, 0.0])
        assert np.allclose(w.w, [0.0, 1.0, 0.0])
        combo = np.outer(w.y, w.y) + np.outer(w.z, w.z) - np.outer(w.w, w.w)
        assert np.allclose(combo, np.diag([1.0, 0.0, 0.0]), atol=1e-14)
        assert w.residual <= 1e-10

    def test_n2_case(self):
        w = engagement_witness(np.array([0.0, 1.0]))
        assert w.residual <= 1e-10

    @pytest.mark.parametrize("n", [1, 9])
    def test_refuses_the_sizes_sym_matrix_refuses(self, n):
        x = np.zeros(n)
        x[0] = 1.0
        for build in (engagement_witness, lambda x: SymMatrix(np.outer(x, x))):
            with pytest.raises(DimensionMismatch, match="supported sizes are 2 <= n <= 8"):
                build(x)

    def test_random_trials_residual_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            x = rng.normal(size=n)
            x /= np.linalg.norm(x)
            assert engagement_witness(x).residual <= 1e-10

    def test_witness_vectors_are_units_and_orthogonal(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            x = rng.normal(size=n)
            x /= np.linalg.norm(x)
            w = engagement_witness(x)
            for v in (w.y, w.z, w.w):
                assert abs(np.linalg.norm(v) - 1) < 1e-12
            assert abs(np.dot(w.w, x)) < 1e-12
            assert abs(np.dot(w.y, w.z)) < 1e-12


class TestExtremeRayCharacterization:
    def test_psd_below_a_projection_is_a_multiple_of_it(self):
        # sampled shadow of extremality: accepted candidates Q <= P_x must
        # align their top eigenvector with x and equal lambda * P_x
        rng = np.random.default_rng(12)
        accepted = 0
        for trial in range(400):
            n = int(rng.integers(2, 9))
            x = rng.normal(size=n)
            x /= np.linalg.norm(x)
            p = np.outer(x, x)
            if trial % 2 == 0:
                q = float(rng.uniform(0.05, 1.0)) * p
            else:
                g = rng.normal(size=(n, n)) * 0.3
                q = g @ g.T
            if not psd_leq(q, p):
                continue
            accepted += 1
            w, vecs = eigh_jacobi(q)
            lam = float(w[-1])
            if lam < 1e-12:
                continue
            top = vecs[:, -1]
            assert abs(float(np.dot(top, x))) >= 1 - 1e-6
            assert np.max(np.abs(q - lam * p)) <= 1e-8
        assert accepted >= 100


class TestIdentitySupCheck:
    def test_identity_consistent(self):
        v = identity_sup_check(2, np.eye(2), m=500, seed=0)
        assert v.verdict == CONSISTENT
        assert abs(v.lambda_min - 1.0) < 1e-12

    def test_flags_non_upper_bound_with_witness(self):
        v = identity_sup_check(2, np.diag([1.0, 0.5]), m=500, seed=0)
        assert v.verdict == NOT_UPPER_BOUND
        x = v.witness
        b = np.diag([1.0, 0.5])
        assert not psd_leq(np.outer(x, x), b)
        assert float(x @ b @ x) < 1.0

    def test_scaled_identity_consistent(self):
        assert identity_sup_check(2, 1.5 * np.eye(2), m=300, seed=1).verdict == CONSISTENT

    def test_never_inconsistent_for_true_upper_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            noise = random_sym(rng, n)
            b = np.eye(n) + noise @ noise.T  # identity plus PSD noise
            v = identity_sup_check(n, b, m=40, seed=int(rng.integers(0, 10**6)))
            assert v.verdict == CONSISTENT

    def test_inconsistent_catches_the_pivot_slack_of_psd_leq(self):
        # A pivot within 1e-14 * 1e10 = 1e-4 of zero counts as zero, so
        # diag(0.999999, 1e10) dominates the projection on e1 by psd_leq
        # although lambda_min of the difference is -1e-6, far below -tol;
        # it dominates every sampled projection, and the eigenvalue test
        # then reports the slack as INCONSISTENT.
        b = np.diag([0.999999, 1e10])
        assert psd_leq(np.diag([1.0, 0.0]), b)
        assert lambda_min(b - np.diag([1.0, 0.0])) < -1e-7
        v = identity_sup_check(2, b, m=50, seed=0)
        assert (v.verdict, v.lambda_min, v.samples) == (INCONSISTENT, 0.999999, 51)
        assert v.witness.tolist() == [1.0, 0.0]

    def test_equals_a_loop_through_psd_leq(self):
        # the sample loop tests b - x x^T + tol*I on lists, validating b
        # once; it must report what testing each sample through the public
        # psd_leq reports, witness bytes included
        rng = np.random.default_rng(7)
        verdicts = set()
        for n in range(2, 9):
            noise = random_sym(rng, n)
            for b in (np.eye(n), 1.5 * np.eye(n), np.eye(n) + noise @ noise.T,
                      np.eye(n) + 0.2 * noise, np.diag(np.linspace(0.5, 2.0, n))):
                for seed in (0, 1, 2):
                    got = identity_sup_check(n, b, m=60, seed=seed)
                    want = identity_sup_check_reference(n, b, m=60, seed=seed)
                    assert (got.verdict, got.lambda_min, got.samples) == (
                        want.verdict, want.lambda_min, want.samples)
                    assert (got.witness is None) == (want.witness is None)
                    if got.witness is not None:
                        assert got.witness.tobytes() == want.witness.tobytes()
                    verdicts.add(got.verdict)
        assert verdicts == {CONSISTENT, NOT_UPPER_BOUND}


class TestConjugation:
    def test_examples(self):
        t = conjugation_iso(np.diag([4.0, 1.0]))
        assert np.allclose(t.apply(np.diag([1.0, 0.0])).array, np.diag([4.0, 0.0]))
        assert np.allclose(t.apply(np.eye(2)).array, np.diag([4.0, 1.0]))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            conjugation_iso(np.diag([1.0, 0.0]))

    def test_preserves_psd_and_rank_one_images(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            g = rng.normal(size=(n, n))
            a = g @ g.T + 0.5 * np.eye(n)
            t = conjugation_iso(a)
            q = rng.normal(size=(n, n))
            q = q @ q.T
            assert lambda_min(t.apply(q).array) >= -1e-9
            x = rng.normal(size=n)
            x /= np.linalg.norm(x)
            image = t.apply(rank_one_projection(x)).array
            w, _ = eigh_jacobi(image)
            assert sum(1 for lam in w if abs(lam) > 1e-8) == 1

    def test_roundtrip_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            g = rng.normal(size=(n, n))
            a = g @ g.T + 0.3 * np.eye(n)
            t = conjugation_iso(a)
            q = random_sym(rng, n)
            back = t.invert(t.apply(q + np.eye(n) * (1 + abs(lambda_min(q)))))
            target = q + np.eye(n) * (1 + abs(lambda_min(q)))
            assert np.max(np.abs(back.array - target)) <= 1e-8 * max(1.0, np.max(np.abs(target)))

    def test_order_battery(self):
        rng = np.random.default_rng(9)
        t = conjugation_iso(np.array([[2.0, 0.5], [0.5, 1.0]]))
        for _ in range(300):
            a, b = random_sym(rng, 2), random_sym(rng, 2)
            lam = float(eigh_oracle(b - a)[0][0])
            if abs(lam) < 1e-6:
                continue
            forward = psd_leq(t.apply(a), t.apply(b), 1e-9)
            assert forward == (lam >= 0)


class TestInfSupApprox:
    def test_zero_matrix_table(self):
        rows = infsup_approx(np.zeros((2, 2)), k_max=64, seed=0)
        assert rows[0].e_k == pytest.approx(1.0, abs=1e-12)
        assert rows[-1].e_k <= 0.2
        es = [r.e_k for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(es, es[1:]))

    def test_identity_reaches_zero_when_full_projection_included(self):
        rows = infsup_approx(np.eye(3), k_max=6, seed=0)
        assert rows[-1].d_k <= 1e-12
        assert rows[2].d_k <= 1e-12  # k = n fills the space

    def test_monotone_for_random_psd(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            g = rng.normal(size=(3, 3))
            a = g @ g.T
            rows = infsup_approx(a, k_max=8, seed=trial)
            ds = [r.d_k for r in rows]
            es = [r.e_k for r in rows]
            assert all(x >= y - 1e-9 for x, y in zip(ds, ds[1:]))
            assert all(x >= y - 1e-9 for x, y in zip(es, es[1:]))

    def test_inf_side_against_direction_grid_oracle(self):
        # e_k should match the largest quadratic form of I - P_k over a grid
        rows = infsup_approx(np.zeros((2, 2)), k_max=2, seed=3)
        rng = np.random.default_rng(11)
        # reconstruct P_1 from the same seeded schedule
        sched = np.random.default_rng(3)
        v1 = sched.normal(size=2)
        v1 /= np.linalg.norm(v1)
        p1 = np.outer(v1, v1)
        grid = [np.array([math.cos(t), math.sin(t)]) for t in np.linspace(0, math.pi, 181)]
        oracle = max(float(u @ (np.eye(2) - p1) @ u) for u in grid)
        assert rows[0].e_k == pytest.approx(oracle, abs=1e-3)

    def test_equals_a_table_computed_row_by_row(self):
        # The reference computes every row, those past n too; its table for
        # k_max = 16 holds the table of every smaller k_max as a prefix.
        # Rows are compared as the CSV prints them, repr of each float.
        rng = np.random.default_rng(2026)
        mismatches = []
        for n in range(2, 9):
            for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
                for _ in range(2):
                    g = rng.normal(size=(n, int(rng.integers(1, n + 1))))
                    a, seed = scale * (g @ g.T), int(rng.integers(1 << 31))
                    want = [(r.k, repr(r.d_k), repr(r.e_k))
                            for r in infsup_approx_reference(a, 16, seed)]
                    for k_max in {1, 2, n - 1, n, n + 1, 12, 16}:
                        got = [(r.k, repr(r.d_k), repr(r.e_k))
                               for r in infsup_approx(a, k_max, seed)]
                        if got != want[:k_max]:
                            mismatches.append((n, scale, seed, k_max))
        assert mismatches == []


def test_tolerances_validated():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PsdTolerance(eig_tol=bad)
        with pytest.raises(ValueError):
            PsdTolerance(cmp_tol=bad)
