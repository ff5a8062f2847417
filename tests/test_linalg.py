from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coneorder.linalg import (
    as_vec,
    identity_matrix,
    independent_subset,
    invert_matrix,
    kernel_basis,
    mat_mul,
    mat_rank,
    mat_vec,
    normalize_ray,
    normalize_sign_free,
    rref,
    scaled_ints,
    solve,
    transpose,
    vec_dot,
)

small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def matrices(n, m):
    return st.lists(st.lists(small_frac, min_size=m, max_size=m), min_size=n, max_size=n)


def test_rank_basics():
    assert mat_rank([(1, 0), (0, 1)]) == 2
    assert mat_rank([(1, 1), (2, 2)]) == 1
    assert mat_rank([]) == 0
    assert mat_rank([(0, 0, 0)]) == 0


def test_solve_consistent_and_inconsistent():
    a = [as_vec((1, 1)), as_vec((0, 1))]
    x = solve(a, as_vec((3, 1)))
    assert mat_vec(a, x) == as_vec((3, 1))
    assert solve([as_vec((1, 1)), as_vec((2, 2))], as_vec((1, 3))) is None


def test_kernel_basis_members_annihilate():
    a = [as_vec((1, 1, 0)), as_vec((0, 1, 1))]
    basis = kernel_basis(a, 3)
    assert len(basis) == 1
    assert all(vec_dot(row, basis[0]) == 0 for row in a)


def test_invert_matrix():
    m = [as_vec((2, 1)), as_vec((1, 1))]
    inv = invert_matrix(m)
    assert mat_mul(m, inv) == identity_matrix(2)
    assert invert_matrix([as_vec((1, 2)), as_vec((2, 4))]) is None
    with pytest.raises(ValueError):
        invert_matrix([as_vec((1, 2, 3))])


def test_normalize_ray_scaling_and_sign():
    assert normalize_ray(as_vec((Fraction(2, 3), Fraction(4, 3)))) == as_vec((1, 2))
    assert normalize_ray(as_vec((-2, 4))) == as_vec((-1, 2))
    assert normalize_sign_free(as_vec((-2, 4))) == as_vec((1, -2))
    with pytest.raises(ValueError):
        normalize_ray(as_vec((0, 0)))


def test_scaled_ints():
    assert scaled_ints(()) == ([], 1)
    assert scaled_ints(as_vec((3, -2, 0))) == ([3, -2, 0], 1)
    mixed = as_vec((Fraction(1, 2), Fraction(-2, 3), 5, 0, Fraction(-7, 4)))
    assert scaled_ints(mixed) == ([6, -8, 60, 0, -21], 12)
    big = as_vec((Fraction(2**70 + 1, 3), Fraction(-1, 2**65)))
    ints, den = scaled_ints(big)
    assert den == 3 * 2**65
    assert tuple(Fraction(a, den) for a in ints) == big


def test_independent_subset_greedy():
    vs = [as_vec((1, 0)), as_vec((2, 0)), as_vec((0, 1)), as_vec((1, 1))]
    assert independent_subset(vs) == [0, 2]


@given(matrices(3, 3))
def test_rref_is_idempotent(rows):
    first, piv1 = rref(rows)
    second, piv2 = rref(first)
    assert [r for r in first if any(r)] == [r for r in second if any(r)]
    assert piv1 == piv2


@given(matrices(3, 3), st.lists(small_frac, min_size=3, max_size=3))
def test_solve_returns_actual_solutions(rows, b):
    rows = [as_vec(r) for r in rows]
    b = as_vec(b)
    x = solve(rows, b)
    if x is not None:
        assert mat_vec(rows, x) == b


@given(matrices(3, 3))
def test_kernel_vectors_are_in_kernel(rows):
    rows = [as_vec(r) for r in rows]
    for v in kernel_basis(rows, 3):
        assert all(vec_dot(r, v) == 0 for r in rows)
    assert mat_rank(rows) + len(kernel_basis(rows, 3)) == 3


@given(matrices(3, 3))
def test_inverse_multiplies_to_identity(rows):
    rows = tuple(as_vec(r) for r in rows)
    inv = invert_matrix(rows)
    if inv is not None:
        assert mat_mul(rows, inv) == identity_matrix(3)
        assert mat_mul(inv, rows) == identity_matrix(3)


def test_transpose_shapes():
    assert transpose([(1, 2, 3)]) == ((1,), (2,), (3,))
    assert transpose(()) == ()
