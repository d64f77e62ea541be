"""Homotopy-commutativity: witnessed conjugation, commutators, transport."""

import json
import random

import pytest

from cgf import words
from cgf.errors import FormViolation, NotLocal, SizeBound
from cgf.homotopy import (Homotopy, commutator_witness,
                          homotopy_commute_linear, homotopy_commute_orthogonal,
                          homotopy_commute_symplectic, mat_substitute,
                          vaserstein_transport)
from cgf.matrices import IsotropicFrame, Mat, block_perp, identity, membership
from cgf.rings import IntegerRing, ModularRing, PolyExt, PrimeField
from cgf.sampling import random_frame, random_unimodular_rows, random_word
from cgf.words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, GenWord,
                       word_from_pairs)


def _linear_homotopy(rng, ring, size, length=2):
    rt = PolyExt(ring, "T")
    base = random_word(rng, ring, FAMILY_LIN, size, length)
    return Homotopy.from_word("linear", base.times_variable(rt))


def test_homotopy_validation():
    Z9 = ModularRing(9)
    rt = PolyExt(Z9, "T")
    w = word_from_pairs(rt, 3, FAMILY_LIN, [(1, 2, rt.variable())])
    h = Homotopy.from_word("linear", w)
    assert h.at(0).is_identity()
    assert h.size == 3
    with pytest.raises(FormViolation):
        Homotopy.from_word("linear",
                           word_from_pairs(rt, 3, FAMILY_LIN, [(1, 2, 1)]))


def test_commute_trivial_frame():
    Z9 = ModularRing(9)
    rt = PolyExt(Z9, "T")
    d = Homotopy.from_word(
        "linear", word_from_pairs(rt, 2, FAMILY_LIN, [(1, 2, rt.variable())]))
    v = Mat(Z9, [[1, 0, 0], [0, 1, 0]])
    res = homotopy_commute_linear(d, v)
    assert res.mode == "word"
    assert len(res.epsilon_word) == 0
    assert res.sigma_t == block_perp(d.delta_t, identity(rt, 1))
    assert res.witness.all_passed()


def test_commute_linear_square_case():
    Z4 = ModularRing(4)
    rt = PolyExt(Z4, "T")
    d = Homotopy.from_word(
        "linear", word_from_pairs(rt, 3, FAMILY_LIN, [(1, 2, rt.variable())]))
    v = word_from_pairs(Z4, 3, FAMILY_LIN, [(1, 3, 2)]).eval()
    res = homotopy_commute_linear(d, v)
    assert res.witness.all_passed()
    assert (d.delta_t @ v.map_ring(rt)) == (v.map_ring(rt) @ res.sigma_t)


def test_commute_linear_randomized():
    rng = random.Random(101)
    for ring in (ModularRing(9), PrimeField(5)):
        for n, m in ((2, 3), (2, 4), (3, 3)):
            for _ in range(10):
                d = _linear_homotopy(rng, ring, n)
                v, _ = random_unimodular_rows(rng, ring, n, m, 5)
                res = homotopy_commute_linear(d, v)
                assert res.witness.all_passed()
                assert mat_substitute(res.sigma_t, ring.zero()).is_identity()


def test_commute_assert_mode():
    Z9 = ModularRing(9)
    rt = PolyExt(Z9, "T")
    word = word_from_pairs(rt, 2, FAMILY_LIN, [(1, 2, rt.variable())])
    d = Homotopy.from_matrix("linear", word.eval())
    v, _ = random_unimodular_rows(random.Random(4), Z9, 2, 3, 4)
    res = homotopy_commute_linear(d, v)
    assert res.mode == "assert"
    assert res.epsilon_word is None
    statuses = {c.name: c.status for c in res.witness.checks}
    assert statuses["epsilon elementary membership"] == "unverified"
    assert (res.sigma_t @ res.epsilon_mat) == block_perp(
        d.delta_t, identity(rt, 1))


def test_commute_size_bounds():
    Z9 = ModularRing(9)
    d = _linear_homotopy(random.Random(1), Z9, 2)
    v = Mat(Z9, [[1, 0], [0, 1]])
    with pytest.raises(SizeBound):
        homotopy_commute_linear(d, v)  # m = n = 2 is out of range
    Z = IntegerRing()
    rt = PolyExt(Z, "T")
    d2 = Homotopy.from_word(
        "linear", word_from_pairs(rt, 2, FAMILY_LIN, [(1, 2, rt.variable())]))
    with pytest.raises(NotLocal):
        homotopy_commute_linear(d2, Mat(Z, [[1, 0, 0], [0, 1, 0]]))


def test_commute_symplectic_randomized():
    rng = random.Random(103)
    Z9 = ModularRing(9)
    rt = PolyExt(Z9, "T")
    for n, m in ((2, 3), (3, 3)):
        for _ in range(8):
            base = random_word(rng, Z9, FAMILY_SP, 2 * n, 2)
            d = Homotopy.from_word("symplectic", base.times_variable(rt))
            fr, _ = random_frame(rng, Z9, "sp", n, m, 5)
            res = homotopy_commute_symplectic(d, fr)
            assert res.witness.all_passed()
            assert membership(res.sigma_t, "Sp")


def test_commute_orthogonal_randomized():
    rng = random.Random(107)
    Z5 = PrimeField(5)
    rt = PolyExt(Z5, "T")
    for n, m in ((2, 4), (2, 5)):
        for _ in range(6):
            base = random_word(rng, Z5, FAMILY_ORTH, 2 * n, 2)
            d = Homotopy.from_word("orthogonal", base.times_variable(rt))
            fr, _ = random_frame(rng, Z5, "orth", n, m, 5)
            res = homotopy_commute_orthogonal(d, fr)
            assert res.witness.all_passed()
            assert membership(res.sigma_t, "SO")
    with pytest.raises(SizeBound):
        fr = IsotropicFrame.standard(Z5, "orth", 1, 3)
        base = random_word(rng, Z5, FAMILY_ORTH, 2, 0)
        homotopy_commute_orthogonal(
            Homotopy.from_word("orthogonal",
                               base.times_variable(rt).embed(2)), fr)


def test_commutator_witness_identity_homotopy():
    Z9 = ModularRing(9)
    rt = PolyExt(Z9, "T")
    a = Homotopy.from_word("linear",
                           GenWord(rt, 3, FAMILY_LIN, ()))
    b = word_from_pairs(Z9, 3, FAMILY_LIN, [(2, 3, 1), (3, 1, 2)]).eval()
    eps = commutator_witness(a, b)
    assert eps.eval().is_identity()


def test_commutator_witness_frozen_example():
    Z4 = ModularRing(4)
    rt = PolyExt(Z4, "T")
    a = Homotopy.from_word(
        "linear", word_from_pairs(rt, 3, FAMILY_LIN, [(1, 2, rt.variable())]))
    b = word_from_pairs(Z4, 3, FAMILY_LIN, [(2, 3, 1), (3, 1, 2)]).eval()
    eps = commutator_witness(a, b)
    alpha = a.at(1)
    assert (alpha @ b) == (b @ alpha @ eps.eval())


def test_commutator_witness_symplectic():
    rng = random.Random(109)
    Z5 = PrimeField(5)
    rt = PolyExt(Z5, "T")
    for size in (4, 6):
        base = random_word(rng, Z5, FAMILY_SP, size, 2)
        a = Homotopy.from_word("symplectic", base.times_variable(rt))
        b = random_word(rng, Z5, FAMILY_SP, size, 5).eval()
        eps = commutator_witness(a, b)
        alpha = a.at(1)
        assert (alpha @ b) == (b @ alpha @ eps.eval())
        assert membership(eps.eval(), "Sp")


def test_transport_identity():
    Z9 = ModularRing(9)
    d = identity(Z9, 2)
    v = Mat(Z9, [[1, 0, 0], [0, 1, 0]])
    res = vaserstein_transport(d, v, "linear")
    assert res.word.eval() == block_perp(res.sigma, d)
    assert res.witness.all_passed()


def test_transport_linear_frozen():
    Z4 = ModularRing(4)
    d = word_from_pairs(Z4, 2, FAMILY_LIN, [(1, 2, 3)]).eval()
    v = Mat(Z4, [[1, 0, 0], [0, 1, 0]])
    res = vaserstein_transport(d, v, "linear")
    assert (d @ v) == (v @ res.sigma)
    assert res.word.eval() == block_perp(res.sigma, d.inverse())
    assert res.word.size == 5  # n + m


def test_transport_runs_berkowitz_once_per_matrix(monkeypatch):
    # det(d) for the SL check and d^{-1} for the Whitehead word share one
    # characteristic polynomial; the other three runs are on other matrices
    runs = []
    berkowitz = Mat._berkowitz

    def counting(self):
        runs.append((str(self.ring), self.rows))
        return berkowitz(self)

    monkeypatch.setattr(Mat, "_berkowitz", counting)
    Z9 = ModularRing(9)
    d = word_from_pairs(Z9, 2, FAMILY_LIN, [(1, 2, 3), (2, 1, 2)]).eval()
    v = Mat(Z9, [[1, 0, 0], [0, 1, 0]])
    assert vaserstein_transport(d, v, "linear").witness.all_passed()
    assert runs == [("Z/9", 2), ("Z/9[T]", 4), ("Z/9[T]", 5), ("Z/9", 3)]


def test_transport_symplectic():
    Z9 = ModularRing(9)
    d = word_from_pairs(Z9, 2, FAMILY_SP, [(2, 1, 2)]).eval()
    fr = IsotropicFrame.standard(Z9, "sp", 1, 2)
    res = vaserstein_transport(d, fr, "symplectic")
    assert (d @ fr.mat) == (fr.mat @ res.sigma)
    assert res.word.size == 6  # 2(n + m)
    assert membership(res.word.eval(), "Sp")


def test_transport_randomized():
    rng = random.Random(113)
    Z9 = ModularRing(9)
    for _ in range(8):
        d = random_word(rng, Z9, FAMILY_LIN, 2, 3).eval()
        if d.det() != Z9.one():
            continue
        v, _ = random_unimodular_rows(rng, Z9, 2, 3, 4)
        res = vaserstein_transport(d, v, "linear")
        assert res.witness.all_passed()
    Z5 = PrimeField(5)
    for _ in range(6):
        d = random_word(rng, Z5, FAMILY_SP, 2, 3).eval()
        fr, _ = random_frame(rng, Z5, "sp", 1, 2, 4)
        res = vaserstein_transport(d, fr, "symplectic")
        assert res.witness.all_passed()


def _record_evaluations(monkeypatch):
    """The word of every evaluation: GenWord.eval runs through
    words.apply_word_right."""
    seen = []
    original = words.apply_word_right

    def recording(m, w):
        seen.append(json.dumps(w.to_json(), sort_keys=True))
        return original(m, w)

    monkeypatch.setattr(words, "apply_word_right", recording)
    return seen


@pytest.mark.parametrize("flavor,family,size", [
    ("linear", FAMILY_LIN, 3), ("symplectic", FAMILY_SP, 4)])
def test_each_word_is_evaluated_once(flavor, family, size, monkeypatch):
    rng = random.Random(127)
    Z9 = ModularRing(9)
    rt = PolyExt(Z9, "T")
    base = random_word(rng, Z9, family, size, 3)
    b = random_word(rng, Z9, family, size, 4).eval()
    word_t = base.times_variable(rt)
    seen = _record_evaluations(monkeypatch)
    a = Homotopy.from_word(flavor, word_t)
    assert seen == [json.dumps(word_t.to_json(), sort_keys=True)]
    seen.clear()
    eps = commutator_witness(a, b)
    assert json.dumps(eps.to_json(), sort_keys=True) in seen
    assert len(seen) == len(set(seen)) == 3  # completion, eps(T), eps(1)
