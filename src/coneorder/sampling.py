"""Deterministic seeded sampling helpers.

Every randomized check in the library derives its draws from
``random.Random((seed, *salt))`` so that results are a pure function of the
inputs and the seed.  Integer hashing in CPython is stable, so reports are
reproducible across runs and platforms.
"""
from __future__ import annotations

import random
import zlib
from fractions import Fraction

from .cones import PolyhedralCone
from .linalg import Vec, identity_matrix

# Rejection sampling of incomparable pairs: coefficient bound of each point
# and number of tries.
PAIR_COEFF_MAX = 4
PAIR_MAX_TRIES = 200
# Elementary row operations per random unimodular matrix.
UNIMODULAR_STEPS = 8


def rng_for(seed: int, *salt) -> random.Random:
    # Integer seeds are stable across runs, platforms, and PYTHONHASHSEED
    # settings; crc32 on the salt repr keeps derivation cheap enough to buy
    # one independent stream per sample index.
    mixed = (int(seed) + 1) * 0x9E3779B97F4A7C15
    mixed ^= zlib.crc32(repr(salt).encode())
    return random.Random(mixed & 0xFFFFFFFFFFFFFFFF)


def cone_point_ints(cone: PolyhedralCone, rng: random.Random, coeff_max: int = 4) -> list[int]:
    """Random cone member as an integer nonnegative combination of generators.

    The stored generators are integer normalized, so the point is an integer
    vector; each generator takes one ``getrandbits(20)`` draw, in order.
    """
    coords = [0] * cone.dim
    span = coeff_max + 1
    for g in cone._gen_ints:
        c = rng.getrandbits(20) % span
        if c:
            for i, gi in enumerate(g):
                if gi:
                    coords[i] += c * gi
    return coords


def cone_point(cone: PolyhedralCone, rng: random.Random, coeff_max: int = 4) -> Vec:
    """``cone_point_ints`` as an exact vector of Fractions."""
    return tuple(map(Fraction, cone_point_ints(cone, rng, coeff_max)))


def _rejection_pair(draw, leq, max_tries: int):
    for _ in range(max_tries):
        x = draw()
        y = draw()
        if not leq(x, y) and not leq(y, x):
            return x, y
    return None


def incomparable_pair(cone: PolyhedralCone, rng: random.Random):
    """A pair of cone points incomparable in the cone order, or None.

    None is returned when rejection sampling stalls, e.g. on totally
    ordered (one-dimensional) cones where no such pair exists.
    """
    return _rejection_pair(lambda: cone_point(cone, rng, PAIR_COEFF_MAX), cone.leq,
                           PAIR_MAX_TRIES)


def incomparable_pair_ints(cone: PolyhedralCone, rng: random.Random):
    """``incomparable_pair`` on integer vectors: the same draws in the same
    order, so the same pair or None.

    Any two points of a cone with at most one generator are comparable, so
    there every try fails: the draws of the tries (one per generator per
    point) are made without the points and their order tests.
    """
    if len(cone._gen_ints) <= 1:
        for _ in range(2 * PAIR_MAX_TRIES * len(cone._gen_ints)):
            rng.getrandbits(20)
        return None
    return _rejection_pair(lambda: cone_point_ints(cone, rng, PAIR_COEFF_MAX),
                           cone._leq_ints, PAIR_MAX_TRIES)


def unimodular_matrix(rng: random.Random, n: int):
    """Random unimodular integer matrix built from elementary row operations."""
    rows = list(identity_matrix(n))
    for _ in range(UNIMODULAR_STEPS):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i], rows[j] = rows[j], rows[i]
    return tuple(tuple(r) for r in rows)

