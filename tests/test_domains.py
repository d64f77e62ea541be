"""Every object of a tiny domain through the constructions whose words are
built by the trusted builders (``words._gen``/``words._rebuilt``).

An orbit table of the oracle holds every object of its row or frame
domain, so it serves as an exhaustive input source: each frame is
completed and its leading rows are read back off eval(word), each
symplectic row is reduced and carried to e_1 by the reference kernel's row
action, each two-row frame's first row is carried to its second (checked
by the reference kernel and by an independent path through the oracle's
row table), and every generator of the word must survive a rebuild through the
public ``Generator``/``GenWord`` checks unchanged (same indices, same
nonzero parameters, same length).
"""

import random

import pytest

import reference as ref
from cgf.factor import two_row_equiv, whitehead_linear
from cgf.homotopy import vaserstein_transport
from cgf.matrices import IsotropicFrame, Mat, right_inverse
from cgf.oracle import certify_equivalence, enumerate_orbits
from cgf.reduce import (complete_orth, complete_sp, complete_um_linear,
                        reduce_row_symplectic)
from cgf.rings import ModularRing, PrimeField, TruncatedPolyLocal
from cgf.sampling import random_frame, random_unimodular_rows, random_word
from cgf.words import FAMILY_LIN, Generator, GenWord


def _publicly_rebuilt(word):
    return GenWord(word.ring, word.size, word.family, tuple(
        Generator(g.family, g.i, g.j, g.param, g.size) for g in word))


@pytest.mark.parametrize("ring,family,size,frame_rows,objects", [
    (ModularRing(4), "lin", 3, 2, 2688),
    (TruncatedPolyLocal(2, 2), "lin", 3, 2, 2688),
    (PrimeField(3), "sp", 4, 2, 2160),
], ids=["lin-2x3-Z/4", "lin-2x3-F_2[x]/(x^2)", "sp-2x4-F_3"])
def test_every_frame_of_a_table_completes(ring, family, size, frame_rows,
                                          objects):
    table = enumerate_orbits(ring, "frame", family, size, frame_rows)
    assert len(table.orbit_of) == objects
    for key in table.orbit_of:
        v = Mat._box(ring, key)
        word = (complete_um_linear(v) if family == "lin"
                else complete_sp(IsotropicFrame(v, "sp")))
        assert word.eval()._grid[:frame_rows] == key
        assert _publicly_rebuilt(word) == word


@pytest.mark.parametrize("ring,objects", [
    (PrimeField(3), 80), (ModularRing(4), 240), (TruncatedPolyLocal(2, 2), 240),
], ids=["F_3", "Z/4", "F_2[x]/(x^2)"])
def test_every_symplectic_row_of_a_table_reduces(ring, objects):
    # every unimodular row of length 4 reaches e_1 under its word, by the
    # reference kernel's row action
    table = enumerate_orbits(ring, "row", "sp", 4)
    assert len(table.orbit_of) == objects
    e1 = (ring.one().payload,) + (ring.zero().payload,) * 3
    for key in table.orbit_of:
        word = reduce_row_symplectic(Mat._box(ring, [key]))
        assert ref.act_rows(ring, [key], word.gens) == [e1]
        assert _publicly_rebuilt(word) == word


def test_every_two_row_frame_of_a_table_is_an_equivalence():
    # two_row_equiv (so common_perp and transvection_factor) on every
    # right-invertible 2 x 3 matrix over Z/4: its word carries the first
    # row to the second, and the row table certifies the pair equivalent
    ring = ModularRing(4)
    frames = enumerate_orbits(ring, "frame", FAMILY_LIN, 3, 2)
    rows = enumerate_orbits(ring, "row", FAMILY_LIN, 3)
    assert len(frames.orbit_of) == 2688
    for row1, row2 in frames.orbit_of:
        a = Mat._box(ring, [row1, row2])
        word = two_row_equiv(a, right_inverse(a))
        assert ref.act_rows(ring, [row1], word.gens) == [row2]
        assert certify_equivalence(row1, row2, rows) is not None
        assert _publicly_rebuilt(word) == word


def test_seeded_orthogonal_completions_rebuild_publicly():
    rng = random.Random(14)
    for ring in (ModularRing(9), PrimeField(5)):
        for n, m in ((1, 4), (2, 4), (2, 5)):
            frame, _ = random_frame(rng, ring, "orth", n, m)
            word = complete_orth(frame)
            assert word.eval()._grid[:2 * n] == frame.mat._grid
            assert _publicly_rebuilt(word) == word


def test_seeded_whitehead_and_transport_words_rebuild_publicly():
    rng = random.Random(22)
    for ring in (ModularRing(9), PrimeField(5), ModularRing(12)):
        for n in range(2, 9):
            d = random_word(rng, ring, FAMILY_LIN, n, 2 * n).eval()
            word = whitehead_linear(d)
            assert _publicly_rebuilt(word) == word
            assert word.eval() == d.block_perp(d.inverse())
    # V of k x (k + 1) almost always takes transport's correction word
    Z9 = ModularRing(9)
    for k in (2, 3, 4):
        d = random_word(rng, Z9, FAMILY_LIN, k, 2 * k).eval()
        v, _ = random_unimodular_rows(rng, Z9, k, k + 1, 3 * k)
        res = vaserstein_transport(d, v, "linear")
        assert res.witness.all_passed()
        assert _publicly_rebuilt(res.word) == res.word
