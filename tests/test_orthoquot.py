"""Orthogonal quotients: O_2 normal forms, corner reduction, commutators."""

import itertools
import random

import pytest

import reference as ref
from cgf.errors import (NotOrthogonal, SizeBound,
                        UnsupportedPresentation)
from cgf.homotopy import Homotopy
from cgf.matrices import Mat, block_perp, identity, membership
from cgf.orthoquot import (FactoredOrthogonal, O2Class, _corner_root,
                           _moved, classify_o2, commutator_harness,
                           commutator_harness_hso, conjugate_word_by_corner,
                           corner_commutator_square_root,
                           hyperbolic_square_word, orth_inverse,
                           vaserstein_quotient)
from cgf.rings import (IntegerRing, ModularRing, PolyExt, PrimeField,
                       QuotientRing, TruncatedPolyLocal)
from cgf.sampling import random_word
from cgf.words import FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, word_from_pairs

from conftest import random_unit, within


def _enumerate_o2(ring):
    out = []
    pool = list(ring.elements())
    for a, b, c, d in itertools.product(pool, repeat=4):
        m = Mat(ring, [[a, b], [c, d]])
        if ref.is_member(m, FAMILY_ORTH):
            out.append(m)
    return out


def test_classify_o2_examples():
    Z5 = PrimeField(5)
    cls = classify_o2(Mat(Z5, [[2, 0], [0, 3]]))
    assert cls.shape == "diag" and cls.u == Z5.coerce(2)
    cls2 = classify_o2(Mat(Z5, [[0, 1], [1, 0]]))
    assert cls2.shape == "antidiag" and cls2.u == Z5.one()
    cls3 = classify_o2(identity(Z5, 2))
    assert cls3.shape == "diag" and cls3.u == Z5.one()
    with pytest.raises(NotOrthogonal):
        classify_o2(Mat(Z5, [[1, 1], [0, 1]]))


def test_o2_class_refuses_a_non_unit():
    # u = 3 over Z/9 is no unit: refused as its inverse would be, before
    # a corner computation answers for it
    for shape in ("diag", "antidiag"):
        out = ref.outcome(O2Class, shape, ModularRing(9).coerce(3))
        assert (out.code, out.message) == ("not_a_unit",
                                           "3 is not a unit mod 9")
    # over the zero ring 0 is a unit
    assert O2Class("diag", ModularRing(1).zero()).u.is_unit()


def test_o2_class_refuses_an_unknown_shape():
    out = ref.outcome(O2Class, "bogus", PrimeField(5).coerce(2))
    assert (out.code, out.message) == ("descriptor_mismatch",
                                       "unknown O_2 shape 'bogus'")


def _corner_root_scan(ring, shape, u):
    # reference: the scan of every unit that the square-class closed form
    # replaced over every finite local ring: the least moved u, then the
    # least t
    key = ring.rank
    return min((v.payload for v in ring.elements() if v.is_unit()),
               key=lambda t: (key(_moved(ring, shape, u, t)), key(t)))


_F3x, _F5x = PolyExt(PrimeField(3), "x"), PolyExt(PrimeField(5), "x")
_F9 = QuotientRing(_F3x, [[1, 0, 1]])
# finite local rings with 1/2: Z/p^k, prime fields, F_p[x]/(x^e), a
# quotient of Z, the fields F_9 and F_25, F_3[x]/((x^2 + 1)^2), and F_9 as
# F_9[y]/(y), whose order ranks the square x before 1
_CORNER_RINGS = (ModularRing(9), ModularRing(27), ModularRing(25),
                 PrimeField(7), PrimeField(13), TruncatedPolyLocal(3, 2),
                 TruncatedPolyLocal(5, 3), QuotientRing(IntegerRing(), [9]),
                 _F9, QuotientRing(_F5x, [[2, 0, 1]]),
                 QuotientRing(_F3x, [[1, 0, 2, 0, 1]]),
                 QuotientRing(PolyExt(_F9, "y"), [[0, 1]]))


def test_corner_root_matches_the_scan_over_finite_local_rings():
    # under a deadline: with a wrong |R*|, Tonelli-Shanks need not stop
    primes = [p for p in range(3, 60) if all(p % d for d in range(2, p))]
    rings = [r for p in primes for r in (PrimeField(p), ModularRing(p))]
    cases = [(ring, shape, u.payload) for ring in rings + list(_CORNER_RINGS)
             for u in ring.elements() if u.is_unit()
             for shape in ("diag", "antidiag")]
    got = within(30, lambda: [_corner_root(*case) for case in cases])
    for case, t in zip(cases, got):
        assert t == _corner_root_scan(*case), case


def test_a_corner_over_a_large_local_ring_needs_no_scan():
    # F_101[x]/(x^3) has 1,030,301 elements, too many to scan for the
    # corner's root within a second; 2 is a non-square, so the corner
    # keeps it
    R = TruncatedPolyLocal(101, 3)
    corner = O2Class("diag", R.coerce(2)).reconstruct()  # diag(2, 1/2)
    a = block_perp(identity(R, 4), corner)
    delta, word = within(1, lambda: vaserstein_quotient(a))
    assert delta == corner and len(word) == 0


def test_a_second_corner_over_a_ring_walks_no_rank():
    # the two least units of the square classes are kept on the ring
    # instance: a second quotient over F_101[x]/(x^3) takes about 1 ms
    # where the first walks 20,402 ranks in tens of milliseconds, and
    # gives the same corner; a new instance of the ring walks again
    R = TruncatedPolyLocal(101, 3)
    corner = O2Class("diag", R.coerce(2)).reconstruct()
    a = block_perp(identity(R, 4), corner)
    first = within(1, lambda: vaserstein_quotient(a))
    assert R._least_units == {True: R.one().payload,
                              False: R.coerce(2).payload}
    second = within(0.02, lambda: vaserstein_quotient(a))
    assert second == first and second[0] == corner
    assert TruncatedPolyLocal(101, 3)._least_units is None


def test_a_corner_over_a_large_prime_field_needs_no_scan():
    # the 100002 units of F_100003 are not scanned; u = 3 is a non-residue,
    # so the corner keeps the least non-residue, 2
    F = PrimeField(100003)
    a = block_perp(identity(F, 4), O2Class("diag", F.coerce(3)).reconstruct())
    delta, word = within(0.05, lambda: vaserstein_quotient(a))
    assert delta == O2Class("diag", F.coerce(2)).reconstruct()
    assert block_perp(identity(F, 4), delta) @ word.eval() == a


def test_o2_exhaustive_count_z5_and_z7():
    for p, expected in ((5, 8), (7, 12)):
        ring = PrimeField(p)
        elems = _enumerate_o2(ring)
        assert len(elems) == expected
        for m in elems:
            cls = classify_o2(m)
            assert cls.reconstruct() == m


def test_vaserstein_quotient_identity_and_corner():
    Z5 = PrimeField(5)
    delta, w = vaserstein_quotient(identity(Z5, 6))
    assert delta.is_identity() and len(w) == 0
    a = block_perp(identity(Z5, 4), Mat(Z5, [[2, 0], [0, 3]]))
    delta2, w2 = vaserstein_quotient(a)
    assert delta2 == Mat(Z5, [[2, 0], [0, 3]])
    assert block_perp(identity(Z5, 4), delta2) @ w2.eval() == a


def test_vaserstein_quotient_elementary_words_trivial_corner():
    rng = random.Random(3)
    Z5 = PrimeField(5)
    for _ in range(20):
        w = random_word(rng, Z5, FAMILY_ORTH, 6, 6)
        a = w.eval()
        delta, word = vaserstein_quotient(a)
        assert delta.is_identity()
        assert block_perp(identity(Z5, 4), delta) @ word.eval() == a


def test_quotient_class_is_stable_under_elementary_perturbation():
    rng = random.Random(7)
    Z5 = PrimeField(5)
    base = block_perp(identity(Z5, 4), Mat(Z5, [[0, 2], [3, 0]]))
    d0, _ = vaserstein_quotient(base)
    for _ in range(10):
        e = random_word(rng, Z5, FAMILY_ORTH, 6, 5)
        d, _ = vaserstein_quotient(base @ e.eval())
        assert d == d0


def test_size_bound():
    Z5 = PrimeField(5)
    with pytest.raises(SizeBound):
        vaserstein_quotient(identity(Z5, 4))


def test_conjugation_by_corner_is_exact():
    rng = random.Random(11)
    Z5 = PrimeField(5)
    for shape in ("diag", "antidiag"):
        for _ in range(10):
            u = random_unit(rng, Z5)
            cls = O2Class(shape, u)
            corner = block_perp(identity(Z5, 4), cls.reconstruct())
            w = random_word(rng, Z5, FAMILY_ORTH, 6, 5)
            conj = conjugate_word_by_corner(w, cls)
            assert conj.eval() == corner @ w.eval() @ corner.inverse()


def _corner_pair(shape, u):
    """delta and delta^{-1} for the O_2 normal form (shape, u)."""
    ring, ui, zero = u.ring, u.inverse(), u.ring.zero()
    if shape == "diag":
        return (Mat(ring, [[u, zero], [zero, ui]]),
                Mat(ring, [[ui, zero], [zero, u]]))
    antidiag = Mat(ring, [[zero, u], [ui, zero]])
    return antidiag, antidiag


@pytest.mark.parametrize("ring", [PrimeField(5), ModularRing(9),
                                  PolyExt(PrimeField(5), "T")], ids=str)
def test_conjugation_by_corner_matches_reference(ring):
    rng = random.Random(37)
    base = ring.base if isinstance(ring, PolyExt) else ring
    for size in (6, 8):
        for shape in ("diag", "antidiag"):
            for _ in range(8):
                u = ring.coerce(random_unit(rng, base))
                delta, delta_inv = _corner_pair(shape, u)
                corner = ref.block_perp(ref.identity(ring, size - 2), delta)
                back = ref.block_perp(ref.identity(ring, size - 2),
                                      delta_inv)
                w = random_word(rng, ring, FAMILY_ORTH, size, 6)
                conj = conjugate_word_by_corner(w, O2Class(shape, u))
                assert conj.family == FAMILY_ORTH and conj.size == size
                assert ref.word_matrix(conj) == ref.matmul(
                    ref.matmul(corner, ref.word_matrix(w)), back)


def test_a_word_of_another_family_is_refused():
    # a linear or symplectic word has no place in an orthogonal
    # presentation: its matrix is not orthogonal, and renaming its
    # generators orthogonal does not conjugate it
    F5 = PrimeField(5)
    lin = word_from_pairs(F5, 6, FAMILY_LIN, [(1, 3, 2), (4, 6, 1)])
    sp = word_from_pairs(F5, 6, FAMILY_SP, [(1, 2, 1), (3, 5, 2)])
    for w in (lin, sp):
        out = ref.outcome(FactoredOrthogonal, identity(F5, 2), w)
        assert (out.error, out.message) == (
            UnsupportedPresentation,
            "the word must be in orthogonal generators")
        out = ref.outcome(conjugate_word_by_corner, w,
                          O2Class("diag", F5.coerce(2)))
        assert (out.error, out.message) == (
            UnsupportedPresentation,
            "corner conjugation needs a word in orthogonal generators")
    # a corner over another ring is refused as multiplying its u was
    orth = word_from_pairs(F5, 6, FAMILY_ORTH, [(1, 3, 2), (2, 6, 1)])
    for shape in ("diag", "antidiag"):
        out = ref.outcome(conjugate_word_by_corner, orth,
                          O2Class(shape, ModularRing(9).coerce(2)))
        assert (out.code, out.message) == (
            "descriptor_mismatch",
            "operands live in different rings: F_5 vs Z/9")


def test_hyperbolic_square_word():
    Z7 = PrimeField(7)
    for t in (2, 3, 6):
        w = hyperbolic_square_word(Z7, 8, 3, 4, Z7.coerce(t))
        m = w.eval()
        expect = identity(Z7, 8).entries
        rows = [list(r) for r in expect]
        rows[4][4] = Z7.coerce(t * t)
        rows[5][5] = Z7.coerce(t * t).inverse()
        assert m == Mat(Z7, rows)
        assert membership(m, "O")


@pytest.mark.parametrize("ring, ts", [(PrimeField(7), (2, 3, 6)),
                                      (ModularRing(9), (2, 4, 8))],
                         ids=["F_7", "Z/9"])
def test_hyperbolic_square_word_matches_reference(ring, ts):
    # every ordered (target, helper) pair of the four pairs at size 8
    for t in map(ring.coerce, ts):
        sq = t * t
        for p, q in itertools.permutations(range(1, 5), 2):
            m = ref.word_matrix(hyperbolic_square_word(ring, 8, p, q, t))
            rows = [list(r) for r in ref.identity(ring, 8)._grid]
            rows[2 * p - 2][2 * p - 2] = sq.payload
            rows[2 * p - 1][2 * p - 1] = sq.inverse().payload
            assert m == Mat(ring, rows), (t, p, q)
            assert ref.is_member(m, FAMILY_ORTH)


def test_hyperbolic_square_word_keeps_its_refusals():
    # every refusal, in the order the checks run: the pairs, the unit, the
    # indices of the first move, an even size, 1/2, the ring of t
    F7, Z4 = PrimeField(7), ModularRing(4)
    three = F7.coerce(3)
    for args, refusal in (
            ((F7, 8, 3, 5, three),
             ("bad_indices", "indices (5,9) out of 1..8")),
            ((F7, 8, 5, 1, three),
             ("bad_indices", "indices (9,1) out of 1..8")),
            ((F7, 8, 0, 1, three),
             ("bad_indices", "indices (-1,1) out of 1..8")),
            ((F7, 7, 1, 2, three),
             ("bad_indices", "orth generators need even size")),
            ((F7, 7, 4, 1, three),
             ("bad_indices", "orth generators need even size")),
            ((F7, 8, 2, 2, three), ("size_bound", "the helper pair must "
                                    "differ from the target pair")),
            ((F7, 8, 1, 2, F7.zero()),
             ("not_a_unit", "0 is not a unit mod 7")),
            ((F7, 8, 5, 1, F7.zero()),
             ("not_a_unit", "0 is not a unit mod 7")),
            ((Z4, 8, 1, 2, Z4.coerce(3)),
             ("half_not_invertible", "orthogonal generators need 1/2 in "
                                     "Z/4")),
            ((F7, 8, 1, 2, PrimeField(5).coerce(3)),
             ("descriptor_mismatch", "generator parameter ring mismatch"))):
        out = ref.outcome(hyperbolic_square_word, *args)
        assert (out.code, out.message) == refusal, args
    # over the zero ring every move has a zero parameter
    Z1 = ModularRing(1)
    assert len(hyperbolic_square_word(Z1, 8, 1, 2, Z1.one())) == 0


def test_corner_commutator_square_root_table():
    rng = random.Random(13)
    Z7 = PrimeField(7)
    for sa in ("diag", "antidiag"):
        for sb in ("diag", "antidiag"):
            for _ in range(6):
                ca = O2Class(sa, random_unit(rng, Z7))
                cb = O2Class(sb, random_unit(rng, Z7))
                t = corner_commutator_square_root(ca, cb)
                da, db = ca.reconstruct(), cb.reconstruct()
                comm = da @ db @ orth_inverse(da) @ orth_inverse(db)
                assert comm == O2Class("diag", t * t).reconstruct()


def test_commutator_harness_word_inputs():
    rng = random.Random(17)
    Z5 = PrimeField(5)
    a = FactoredOrthogonal.from_word(random_word(rng, Z5, FAMILY_ORTH, 6, 5))
    b = FactoredOrthogonal.from_word(random_word(rng, Z5, FAMILY_ORTH, 6, 5))
    word, witness = commutator_harness(a, b)
    assert witness.all_passed()
    am, bm = a.matrix(), b.matrix()
    comm = am @ bm @ orth_inverse(am) @ orth_inverse(bm)
    assert word.eval() == block_perp(comm, identity(Z5, 2))


def test_commutator_harness_nontrivial_corners():
    rng = random.Random(19)
    Z5 = PrimeField(5)
    for sa in ("diag", "antidiag"):
        for sb in ("diag", "antidiag"):
            for _ in range(5):
                da = O2Class(sa, random_unit(rng, Z5)).reconstruct()
                db = O2Class(sb, random_unit(rng, Z5)).reconstruct()
                a = FactoredOrthogonal(da, random_word(rng, Z5, FAMILY_ORTH,
                                                       6, 4))
                b = FactoredOrthogonal(db, random_word(rng, Z5, FAMILY_ORTH,
                                                       6, 4))
                word, witness = commutator_harness(a, b)
                assert witness.all_passed()
                am, bm = a.matrix(), b.matrix()
                comm = am @ bm @ orth_inverse(am) @ orth_inverse(bm)
                assert word.eval() == block_perp(comm, identity(Z5, 2))
                assert membership(word.eval(), "O")


def test_commutator_harness_polynomial_constant_corner():
    rng = random.Random(23)
    Z5 = PrimeField(5)
    rx = PolyExt(Z5, "X")
    for _ in range(5):
        da = O2Class("diag", rx.coerce(2)).reconstruct()
        wa = random_word(rng, rx, FAMILY_ORTH, 6, 3)
        wb = random_word(rng, rx, FAMILY_ORTH, 6, 3)
        a = FactoredOrthogonal(da, wa)
        b = FactoredOrthogonal.from_word(wb)
        word, witness = commutator_harness(a, b)
        assert witness.all_passed()


def test_commutator_harness_nonconstant_polynomial_corner():
    # over Z/9[X] the corner unit 1 + 3X genuinely depends on X
    from cgf.rings import ModularRing
    rng = random.Random(31)
    Z9 = ModularRing(9)
    rx = PolyExt(Z9, "X")
    u = rx.coerce([1, 3])
    da = O2Class("diag", u).reconstruct()
    db = O2Class("antidiag", rx.coerce(2)).reconstruct()
    a = FactoredOrthogonal(da, random_word(rng, rx, FAMILY_ORTH, 6, 3))
    b = FactoredOrthogonal(db, random_word(rng, rx, FAMILY_ORTH, 6, 3))
    word, witness = commutator_harness(a, b)
    assert witness.all_passed()
    am, bm = a.matrix(), b.matrix()
    comm = am @ bm @ orth_inverse(am) @ orth_inverse(bm)
    assert word.eval() == block_perp(comm, identity(rx, 2))


def test_raw_polynomial_input_rejected():
    Z5 = PrimeField(5)
    rx = PolyExt(Z5, "X")
    with pytest.raises(UnsupportedPresentation):
        FactoredOrthogonal.from_matrix(identity(rx, 6))


def test_commutator_harness_hso():
    rng = random.Random(29)
    Z5 = PrimeField(5)
    rt = PolyExt(Z5, "T")
    base = random_word(rng, Z5, FAMILY_ORTH, 6, 4)
    alpha = Homotopy.from_word("orthogonal", base.times_variable(rt))
    b = FactoredOrthogonal(O2Class("antidiag", Z5.coerce(2)).reconstruct(),
                           random_word(rng, Z5, FAMILY_ORTH, 6, 4))
    word, witness = commutator_harness_hso(alpha, b)
    assert witness.all_passed()
    am = base.eval()
    bm = b.matrix()
    comm = am @ bm @ orth_inverse(am) @ orth_inverse(bm)
    assert word.eval() == block_perp(comm, identity(Z5, 2))
