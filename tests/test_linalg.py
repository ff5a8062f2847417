from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from coneorder.linalg import (
    ZERO,
    as_vec,
    identity_matrix,
    independent_subset,
    invert_matrix,
    kernel_basis,
    mat_mul,
    mat_rank,
    mat_vec,
    rref,
    scaled_ints,
    scaled_rows,
    solve,
    transpose,
    vec_dot,
)
from oracles import (
    kernel_reference,
    normalize_ray,
    rank_reference,
    rref_reference,
    solve_reference,
)

small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# Small rationals, integers past 2^64 and fractions with denominators past
# 2^64, so one matrix mixes tiny and huge denominators.
entry = st.one_of(
    small_frac,
    st.integers(-2**70, 2**70).map(Fraction),
    st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**65)),
)


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


# Plain ints and Fractions, each of any size, in vectors of mixed lengths.
vector_lists = st.lists(st.lists(st.one_of(st.integers(-2**70, 2**70), entry), max_size=5),
                        max_size=6)


@given(vector_lists)
@example([])
@example([[], []])
@example([[Fraction(1, 2), 3], [], [Fraction(-2, 3)], [4, Fraction(8, 4)]])
def test_scaled_rows_puts_the_vectors_over_their_lcm(vectors):
    rows, den = scaled_rows(vectors)
    dens = [Fraction(a).denominator for v in vectors for a in v]
    assert den == reduce(lambda a, b: a * b // gcd(a, b), dens, 1)
    assert type(rows) is list and len(rows) == len(vectors)
    for row, v in zip(rows, vectors):
        assert type(row) is tuple and len(row) == len(v)
        assert all(type(c) is int for c in row)
        assert all(Fraction(c, den) == a for c, a in zip(row, v))


@given(st.lists(st.lists(st.integers(-2**70, 2**70), max_size=5), max_size=6))
@example([])
def test_scaled_rows_of_ints_keeps_them(vectors):
    # [] gives ([], 1); plain ints and integral Fractions alike give den 1.
    assert scaled_rows(vectors) == ([tuple(v) for v in vectors], 1)
    assert scaled_rows([as_vec(v) for v in vectors]) == ([tuple(v) for v in vectors], 1)


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


def test_int_rows_give_exact_fractions():
    """Plain int rows come back as exact Fractions, never as floats."""
    def fractions_only(*values):
        return all(type(a) is Fraction for a in values)

    red, pivots = rref([(2, 1), (1, 1)])
    assert (red, pivots) == ([[1, 0], [0, 1]], [0, 1])
    assert fractions_only(*red[0], *red[1])
    x = solve([(2, 1), (1, 3)], (1, 1))
    assert x == (Fraction(2, 5), Fraction(1, 5)) and fractions_only(*x)
    basis = kernel_basis([(2, 1, 3)], 3)
    assert basis == [(Fraction(-1, 2), 1, 0), (Fraction(-3, 2), 0, 1)]
    assert fractions_only(*basis[0], *basis[1])
    inv = invert_matrix([(2, 1), (1, 1)])
    assert inv == ((1, -1), (-1, 2)) and fractions_only(*inv[0], *inv[1])


@st.composite
def dependent_matrices(draw):
    """Up to 8 rows of up to 8 columns: a few drawn rows, then rational
    combinations of them (duplicates and scaled copies included) and zero
    rows, in a drawn order."""
    ncols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4))
    for _ in range(draw(st.integers(0, 8 - len(rows)))):
        if rows and draw(st.booleans()):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(small_frac), draw(small_frac)
            rows.append([s * a + t * b for a, b in zip(u, v)])
        else:
            rows.append([ZERO] * ncols)
    return draw(st.permutations(rows))


@st.composite
def any_matrices(draw):
    """Independent entries, wide or tall, 0-8 rows by 0-8 columns."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


def _as_given(rows, ints):
    """rows with every integral entry a plain int when ints is set."""
    if not ints:
        return rows
    return [[int(a) if a.denominator == 1 else a for a in r] for r in rows]


@settings(max_examples=300)
@given(st.one_of(dependent_matrices(), any_matrices()), st.booleans())
@example([], False)
@example([[]], False)
@example([[], []], False)
@example([[ZERO] * 3] * 4, False)
@example([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)], [Fraction(-2), Fraction(-4)]],
         True)
@example([[Fraction(0), Fraction(0), Fraction(3)], [Fraction(0), Fraction(0), Fraction(-6)]], True)
@example([[Fraction(2**70 + 1, 3), Fraction(-1, 2**65)], [Fraction(1, 2), Fraction(2**64)]], False)
def test_rref_matches_fraction_gauss_jordan(rows, ints):
    """The fraction-free rref returns exactly the rows and pivots of the
    Fraction Gauss-Jordan, every entry a Fraction, on Fraction or int input."""
    red, pivots = rref(_as_given(rows, ints))
    assert (red, pivots) == rref_reference(rows)
    assert all(type(a) is Fraction for r in red for a in r)


@settings(max_examples=100)
@given(dependent_matrices(), st.lists(entry, min_size=8, max_size=8))
def test_rank_solve_kernel_match_the_oracle_elimination(rows, b):
    """mat_rank, solve and kernel_basis on linalg.rref agree with their
    counterparts on the Fraction Gauss-Jordan of tests/oracles.py."""
    ncols = len(rows[0]) if rows else 0
    b = tuple(b[:len(rows)])
    assert mat_rank(rows) == rank_reference(rows)
    assert solve(rows, b) == solve_reference(rows, b)
    assert kernel_basis(rows, ncols) == kernel_reference(rows, ncols)
