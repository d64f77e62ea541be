"""Coverage of the less-traveled ring families: truncated-polynomial locals
with nilpotents, the infinite localized integers, square-case transport,
and signed Bezout witnesses over the integers."""

import random
import warnings

import reference as ref
from cgf import (Homotopy, IsotropicFrame, IntegerRing, LocalizedIntegers,
                 Mat, ModularRing, PolyExt, PrimeField, TruncatedPolyLocal,
                 block_perp, complete_orth, complete_sp, complete_um_linear,
                 homotopy_commute_linear, membership, vaserstein_transport)
from cgf.rings import ideal_combination, unit_ideal_witness
from cgf.sampling import random_frame, random_unimodular_rows, random_word
from cgf.words import FAMILY_LIN, FAMILY_SP


def test_completions_over_truncated_poly_local():
    rng = random.Random(99)
    ring = TruncatedPolyLocal(3, 2)
    for _ in range(15):
        fr, _ = random_frame(rng, ring, "sp", 1, 2, 5)
        w = complete_sp(fr)
        assert Mat(ring, w.eval().entries[:2]) == fr.mat
        assert membership(w.eval(), "Sp")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(8):
            fr, _ = random_frame(rng, ring, "orth", 1, 3, 4)
            w = complete_orth(fr)
            assert Mat(ring, w.eval().entries[:2]) == fr.mat


def test_completion_and_homotopy_over_localized_integers():
    rng = random.Random(101)
    ring = LocalizedIntegers(5)
    for _ in range(8):
        v, _ = random_unimodular_rows(rng, ring, 2, 3, 4)
        w = complete_um_linear(v)
        assert Mat(ring, w.eval().entries[:2]) == v
    rt = PolyExt(ring, "T")
    hom = Homotopy.from_word(
        "linear", random_word(rng, ring, FAMILY_LIN, 2, 2).times_variable(rt))
    v, _ = random_unimodular_rows(rng, ring, 2, 3, 3)
    res = homotopy_commute_linear(hom, v)
    assert res.witness.all_passed()


def test_square_case_transport():
    rng = random.Random(103)
    Z9 = ModularRing(9)
    for _ in range(8):
        d = random_word(rng, Z9, FAMILY_LIN, 3, 3).eval()
        v = random_word(rng, Z9, FAMILY_LIN, 3, 4).eval()
        res = vaserstein_transport(d, v, "linear")
        assert res.witness.all_passed()
        assert res.word.eval() == block_perp(res.sigma, d.inverse())
    Z5 = PrimeField(5)
    for _ in range(5):
        d = random_word(rng, Z5, FAMILY_SP, 4, 3).eval()
        fr = IsotropicFrame(random_word(rng, Z5, FAMILY_SP, 4, 4).eval(), "sp")
        res = vaserstein_transport(d, fr, "symplectic")
        assert res.witness.all_passed()


def test_bezout_witnesses_with_negative_integers():
    Z = IntegerRing()
    for vals in ([-1], [-3, 5], [4, -7], [-6, -35, 15]):
        values = [Z.coerce(v) for v in vals]
        w = unit_ideal_witness(Z, values)
        assert w is not None
        assert ref.combination(Z, w, values) == 1
    assert unit_ideal_witness(Z, [Z.coerce(-4), Z.coerce(6)]) is None

    gens = [Z.coerce(-6), Z.coerce(10)]
    q = ideal_combination(Z, gens, Z.coerce(4))
    assert q is not None
    assert ref.combination(Z, q, gens) == 4
    assert ideal_combination(Z, gens, Z.coerce(3)) is None
