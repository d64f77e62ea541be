"""Seeded random generation of ring elements, words and frames for the
harnesses and the test suite.  Everything is deterministic under the caller's
random.Random instance."""

from __future__ import annotations

import random

from .errors import BadIndices
from .matrices import IsotropicFrame, Mat
from .rings import Ring
from .words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator, GenWord,
                    paired_index)


def random_nonzero(rng: random.Random, ring: Ring, tries: int = 32):
    for _ in range(tries):
        v = ring.random(rng)
        if not v.is_zero():
            return v
    return ring.one()


def random_indices(rng: random.Random, family: str, size: int):
    # orthogonal generators exclude the pair (1, 2), the only one at size 2
    if size < 2 or (family == FAMILY_ORTH and size == 2):
        raise BadIndices(f"no admissible {family} index pair at size {size}")
    while True:
        i = rng.randrange(1, size + 1)
        j = rng.randrange(1, size + 1)
        if i == j:
            continue
        if family == FAMILY_ORTH and i == paired_index(j):
            continue
        return i, j


def random_word(rng: random.Random, ring: Ring, family: str, size: int,
                length: int) -> GenWord:
    gens = []
    for _ in range(length):
        i, j = random_indices(rng, family, size)
        gens.append(Generator(family, i, j, random_nonzero(rng, ring), size))
    return GenWord(ring, size, family, tuple(gens))


def random_frame(rng: random.Random, ring: Ring, kind: str, n: int, m: int,
                 length: int = 8) -> tuple[IsotropicFrame, GenWord]:
    """A 2n x 2m frame obtained as the leading rows of a random word's matrix."""
    family = FAMILY_SP if kind == "sp" else FAMILY_ORTH
    w = random_word(rng, ring, family, 2 * m, length)
    full = w.eval()
    top = full.submatrix(0, 2 * n, 0, full.cols)
    return IsotropicFrame(top, kind), w


def random_unimodular_rows(rng: random.Random, ring: Ring, n: int, m: int,
                           length: int = 8) -> tuple[Mat, GenWord]:
    """Leading n rows of a random elementary matrix: a right-invertible n x m."""
    w = random_word(rng, ring, FAMILY_LIN, m, length)
    full = w.eval()
    return full.submatrix(0, n, 0, full.cols), w
