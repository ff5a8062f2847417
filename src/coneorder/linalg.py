"""Exact linear algebra over rationals.

Vectors are tuples of Fraction, matrices are tuples of row vectors.
Everything here is exact; there are no tolerances anywhere.  Every
elimination goes through ``rref``, which is fraction-free: rows are scaled
to integers, eliminated with integer row operations and divided by their
gcd, and turned into Fractions only on return.  The reduced row echelon
form is unique, so its output is the one Gauss-Jordan on Fractions gives,
and every elimination returns Fractions, on plain int input too.  An
elimination that also needs its row operations, E A = rref(A), gets them
from ``rref_transform``.  Several vectors go over one common denominator
only through ``scaled_rows``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError

Vec = tuple[Fraction, ...]
Matrix = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# A rational string builds ints with about as many digits as its length
# plus its decimal exponent ("1e999999999" is a 10^9-digit power of ten).
# Both are bounded by the interpreter's default limit on the digits of an
# int converted to or from a string; no report could print more anyway.
MAX_RATIONAL_DIGITS = 4300


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', '-2' or '1.5e-3', and Fractions;
    floats are refused.  ParseError for a string longer than
    MAX_RATIONAL_DIGITS or with an exponent beyond it."""
    # Fraction's metaclass is ABCMeta, so isinstance(x, Fraction) is slow
    # when it fails; the strings of an input file do not take that test.
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        _, e, exp = x.lower().partition("e")
        if len(x) > MAX_RATIONAL_DIGITS or e and abs(int(exp)) > MAX_RATIONAL_DIGITS:
            raise ParseError(f"a rational string may have at most {MAX_RATIONAL_DIGITS} "
                             f"characters and an exponent of at most {MAX_RATIONAL_DIGITS}")
        return Fraction(x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def as_vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in v)


def vec_neg(v: Vec) -> Vec:
    return tuple(-a for a in v)


def vec_dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def scaled_ints(v) -> tuple[list[int], int]:
    """(numerators, den) with v == numerators / den, den the lcm of v's
    denominators.  den is positive, so the numerators lie on v's ray; an
    all-integer v, the common case, skips the lcm."""
    for a in v:
        if a.denominator != 1:
            den = lcm(*[b.denominator for b in v])
            return [b.numerator * (den // b.denominator) for b in v], den
    return [a.numerator for a in v], 1


def scaled_rows(vectors) -> tuple[list[tuple[int, ...]], int]:
    """(rows, den): each vector as an int tuple over den > 0, the lcm of all
    their denominators, so vectors[k] == rows[k] / den."""
    den = lcm(*[a.denominator for v in vectors for a in v])
    if den == 1:
        return [tuple([a.numerator for a in v]) for v in vectors], 1
    return [tuple([a.numerator * (den // a.denominator) for a in v]) for v in vectors], den


def primitive(ints) -> tuple[int, ...]:
    """Coprime integer vector on the ray through a nonzero integer vector."""
    g = gcd(*ints)
    if g == 0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(ints) if g == 1 else tuple(a // g for a in ints)


def identity_matrix(n: int) -> Matrix:
    return tuple(unit_vec(n, i) for i in range(n))


def mat_vec(rows: Matrix, v: Vec) -> Vec:
    return tuple(vec_dot(r, v) for r in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(vec_dot(r, c) for c in bt) for r in a)


def transpose(rows) -> Matrix:
    return tuple(tuple(col) for col in zip(*rows)) if rows else ()


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Fraction-free Gauss-Jordan: each row is scaled to integers, a row is
    cleared at a pivot as pv*row - f*pivot_row and then divided by its gcd,
    and each pivot row is divided by its pivot only on return.  Zero rows
    stay at the bottom.  Scaling a row never changes the reduced row
    echelon form, and that form is unique, so the result equals what
    Gauss-Jordan on Fractions gives: the same rows and pivots, every entry
    a Fraction.
    """
    m = [scaled_ints(r)[0] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        pv = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [pv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    out = [[Fraction(a, row[c]) for a in row] for row, c in zip(m, pivots)]
    return out + [[ZERO] * ncols for _ in m[r:]], pivots


def mat_rank(rows) -> int:
    return len(rref(rows)[1])


def solve(a_rows, b: Vec) -> Vec | None:
    """One exact solution of A x = b, or None if the system is inconsistent."""
    if not a_rows:
        return None if any(x != 0 for x in b) else ()
    ncols = len(a_rows[0])
    aug = [list(r) + [bb] for r, bb in zip(a_rows, b, strict=True)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[-1]
    return tuple(x)


def kernel_basis(a_rows, ncols: int) -> list[Vec]:
    """Basis of {x : A x = 0} for A with ncols columns."""
    m, pivots = rref(a_rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for row, c in zip(m, pivots):
            x[c] = -row[f]
        basis.append(tuple(x))
    return basis


def rref_transform(rows) -> tuple[list[list[Fraction]], list[list[Fraction]], list[int]]:
    """(R, E, pivots) for the matrix A with the given rows: R = rref(A),
    pivots its pivot columns, and E invertible with E A = R.

    All three come from one rref of [A | I], the only place that matrix is
    built: the row operations that reduce it reduce A, so its A-part is
    rref(A), and its I-part records them.  E's rows below A's rank vanish
    on A's columns and span the vectors that do."""
    width = len(rows[0]) if rows else 0
    red, pivots = rref([list(r) + [int(i == j) for j in range(len(rows))]
                        for i, r in enumerate(rows)])
    return ([row[:width] for row in red], [row[width:] for row in red],
            [c for c in pivots if c < width])


def invert_matrix(rows) -> Matrix | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    _, inv, pivots = rref_transform(rows)
    if len(pivots) != n:
        return None
    return tuple(map(tuple, inv))


def independent_subset(vectors) -> list[int]:
    """Indices of the greedy maximal linearly independent subset, in order:
    the pivot columns of the matrix whose columns are the vectors."""
    return rref(transpose(vectors))[1]
