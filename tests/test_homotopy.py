"""Homotopy-commutativity: witnessed conjugation, commutators, transport."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import reference as ref
from cgf import homotopy, matrices, reduce, words
from cgf.errors import (DegreeCapExceeded, FormViolation, NotLocal, SizeBound,
                        SizeLimit)
from cgf.factor import _block_gens, whitehead_linear, whitehead_symplectic
from cgf.homotopy import (_FLAVORS, CommuteResult,
                          Homotopy, _commute_core, commutator_witness,
                          homotopy_commute_linear, homotopy_commute_orthogonal,
                          homotopy_commute_symplectic, mat_substitute,
                          vaserstein_transport)
from cgf.localglobal import quillen_split
from cgf.matrices import (IsotropicFrame, Mat, _constant_terms, block_perp,
                          identity, membership)
from cgf.reduce import complete_orth, complete_sp, complete_um_linear
from cgf.rings import (FractionRing, IntegerRing, ModularRing, PolyExt,
                       PrimeField)
from cgf.sampling import (random_frame, random_indices,
                          random_unimodular_rows, random_word)
from cgf.words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, GenWord,
                       word_from_pairs)

from conftest import within


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
    # det(d) for the SL check is the one run: d^{-1} for the Whitehead
    # word and alpha^{-1} for the correction come from the right-inverse
    # solver, which takes no determinant
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
    assert runs == [("Z/9", 2)]


def test_symplectic_transport_decides_d_once(monkeypatch):
    # transport's Sp check and the symplectic Whitehead word's own check
    # ask of the same d; the second reads the kept answer
    decided = []
    decide = matrices._decide_membership

    def counting(a, group):
        decided.append((a.rows, group))
        return decide(a, group)

    monkeypatch.setattr(matrices, "_decide_membership", counting)
    Z9 = ModularRing(9)
    d = word_from_pairs(Z9, 2, FAMILY_SP, [(2, 1, 2), (1, 2, 4)]).eval()
    fr = IsotropicFrame.standard(Z9, "sp", 1, 2)
    assert vaserstein_transport(d, fr, "symplectic").witness.all_passed()
    assert decided.count((2, "Sp")) == 1


def test_transport_builds_no_polynomial_ring(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("transport built a polynomial ring")

    monkeypatch.setattr(PolyExt, "__init__", refuse)
    Z9 = ModularRing(9)
    d = word_from_pairs(Z9, 2, FAMILY_LIN, [(1, 2, 3), (2, 1, 2)]).eval()
    v = Mat(Z9, [[1, 2, 0], [0, 1, 4]])
    assert vaserstein_transport(d, v, "linear").witness.all_passed()
    d = word_from_pairs(Z9, 2, FAMILY_SP, [(2, 1, 2)]).eval()
    fr = IsotropicFrame.standard(Z9, "sp", 1, 2)
    assert vaserstein_transport(d, fr, "symplectic").witness.all_passed()


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


def test_transport_k6_witness_meets_its_claims_in_plain_integers():
    # a k = 6 linear transport over Z/9 certifies, and its witness JSON
    # meets word = sigma ⊥ d^{-1} and d V = V sigma under a plain integer
    # matmul that shares no code with cgf
    k, n, rng = 6, 9, random.Random(6)
    Z9 = ModularRing(n)
    d = random_word(rng, Z9, FAMILY_LIN, k, 2 * k).eval()
    v, _ = random_unimodular_rows(rng, Z9, k, k + 1, 3 * k)
    res = within(20, lambda: vaserstein_transport(d, v, "linear"))
    assert res.witness.all_passed()
    w = res.witness.to_json()

    def mul(a, b):
        return [[sum(x * y for x, y in zip(r, c)) % n for c in zip(*b)]
                for r in a]

    def eye(m):
        return [[int(i == j) for j in range(m)] for i in range(m)]

    d, v = w["inputs"]["d"]["entries"], w["inputs"]["v"]["entries"]
    sigma, word = w["outputs"]["sigma"]["entries"], w["outputs"]["word"]
    m = word["size"]
    full = eye(m)
    for g in word["gens"]:
        e = eye(m)
        e[g["i"] - 1][g["j"] - 1] = g["param"] % n
        full = mul(full, e)
    c = m - k
    assert mul(d, v) == mul(v, sigma)
    assert [r[:c] for r in full[:c]] == sigma
    assert all(x == 0 for r in full[:c] for x in r[c:])
    assert all(x == 0 for r in full[c:] for x in r[:c])
    assert mul(d, [r[c:] for r in full[c:]]) == eye(k)


def _record_evaluations(monkeypatch):
    """("eval" or "apply", word) for every sparse action, an evaluation
    being an action on the identity.  GenWord.eval runs through
    words.apply_word_right, and homotopy.py calls both actions by its own
    names, so both modules' bindings are recorded."""
    seen = []

    def recorder(original, right):
        def recording(*args):
            m, w = args if right else args[::-1]
            kind = "eval" if m.is_identity() else "apply"
            seen.append((kind, json.dumps(w.to_json(), sort_keys=True)))
            return original(*args)
        return recording

    for module in (words, homotopy):
        for name, right in (("apply_word_right", True),
                            ("apply_word_left", False)):
            monkeypatch.setattr(module, name,
                                recorder(getattr(module, name), right))
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
    assert seen == [("eval", json.dumps(word_t.to_json(), sort_keys=True))]
    seen.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("the commutator lifted a value into R[T]")

    monkeypatch.setattr(GenWord, "lift_to", refuse)
    monkeypatch.setattr(Mat, "map_ring", refuse)
    eps = commutator_witness(a, b)
    evaluated = [w for kind, w in seen if kind == "eval"]
    assert json.dumps(eps.to_json(), sort_keys=True) in evaluated
    assert len(evaluated) == len(set(evaluated)) == 2  # completion, eps(1)
    # the word is built over R: no word is evaluated or acts over R[T]
    assert all(json.loads(w)["ring"] == Z9.to_json() for _, w in seen)


# ---------------------------------------------------------------------------
# the commutator over R against the R[T] route it replaced

def _commutator_through_rt(a, b):
    # reference, for inputs that pass the guards: the commutator before it
    # was built over R; W is lifted into R[T], ε(T) = d(T)^{-1}·W^{-1}·
    # d(T)·W is checked over R[T] and specialized at T = 1
    ring, rt = a.base_ring, a.poly_ring
    completion = (complete_um_linear(b) if a.flavor == "linear"
                  else complete_sp(IsotropicFrame(b, "sp")))
    w_t = completion.lift_to(rt)
    d_word = a.word
    eps_t = d_word.invert() + w_t.invert() + d_word + w_t
    b_t = b.map_ring(rt)
    assert ref.matmul(ref.word_matrix(d_word), b_t) == ref.times_gens(
        ref.times_gens(b_t, d_word.gens), eps_t.gens)
    eps = eps_t.specialize(ring.one())
    alpha = a.at(1)
    assert ref.matmul(alpha, b) == ref.times_gens(ref.matmul(b, alpha),
                                                  eps.gens)
    return eps


def _commutator_cases(rng, ring):
    """(a, b): linear sizes 3, 4 and symplectic sizes 4, 6, each with a
    random d(T) = word·T, an empty d(T), and d(T) with parameters that
    vanish at T = 1; b a random elementary matrix."""
    rt = PolyExt(ring, "T")
    one_minus_t = rt.coerce([1, -1])
    for flavor, family, size in (("linear", FAMILY_LIN, 3),
                                 ("linear", FAMILY_LIN, 4),
                                 ("symplectic", FAMILY_SP, 4),
                                 ("symplectic", FAMILY_SP, 6)):
        base = random_word(rng, ring, family, size, 3)
        b = random_word(rng, ring, family, size, 5).eval()
        word_t = base.times_variable(rt)
        vanishing = GenWord(rt, size, family, tuple(
            words.Generator(family, g.i, g.j, g.param * one_minus_t, size)
            for g in word_t))
        for d_word in (word_t, GenWord(rt, size, family, ()),
                       word_t + vanishing):
            yield Homotopy.from_word(flavor, d_word), b


@pytest.mark.parametrize("ring", [ModularRing(9), PrimeField(5),
                                  ModularRing(4)], ids=str)
def test_commutator_over_r_matches_the_rt_route(ring):
    rng = random.Random(f"commutator:{ring}")
    for a, b in _commutator_cases(rng, ring):
        eps = commutator_witness(a, b)
        old = _commutator_through_rt(a, b)
        assert eps == old
        assert json.dumps(eps.to_json()) == json.dumps(old.to_json())


@pytest.mark.parametrize("limit", [12, 16, 20])
def test_commutator_word_limit_never_raises_where_the_rt_route_returns(
        limit, monkeypatch):
    # d(1) drops the parameters that vanish at T = 1 before the
    # concatenation, so the word over R may fit where ε(T) did not
    monkeypatch.setenv("CGF_WORD_LIMIT", str(limit))
    outcomes = set()
    for ring in (ModularRing(9), PrimeField(5)):
        rng = random.Random(f"commutator-limit:{ring}")
        for a, b in _commutator_cases(rng, ring):
            old = ref.outcome(_commutator_through_rt, a, b)
            eps = ref.outcome(commutator_witness, a, b)
            if isinstance(eps, ref.Raised):
                assert isinstance(old, ref.Raised)
                assert eps.code == "word_limit_exceeded"
                outcomes.add("both raise")
                continue
            assert isinstance(old, ref.Raised) or eps == old
            outcomes.add("only over R" if isinstance(old, ref.Raised)
                         else "returns")
    assert outcomes == {"both raise", "returns", "only over R"}


def test_no_substitution_at_zero_runs_horner(monkeypatch):
    # σ(0) = I, d(0) = I, SO membership over R[T] and the split's θ_a(0) = I
    # read the constant terms; Horner runs only at T = 1
    horner = PolyExt._horner

    def guarded(self, a, t):
        if t == self.base.zero().payload:
            raise AssertionError("Horner at T = 0")
        return horner(self, a, t)

    monkeypatch.setattr(PolyExt, "_horner", guarded)
    rng = random.Random(131)
    Z9, F5 = ModularRing(9), PrimeField(5)
    d = _linear_homotopy(rng, Z9, 2)
    v, _ = random_unimodular_rows(rng, Z9, 2, 3, 5)
    assert homotopy_commute_linear(d, v).witness.all_passed()
    rt = PolyExt(F5, "T")
    d = Homotopy.from_word(
        "orthogonal", random_word(rng, F5, FAMILY_ORTH, 4, 2)
        .times_variable(rt))
    fr, _ = random_frame(rng, F5, "orth", 2, 4, 5)
    assert homotopy_commute_orthogonal(d, fr).witness.all_passed()
    rt = PolyExt(FractionRing(IntegerRing(), 6), "T")
    theta = word_from_pairs(rt, 2, FAMILY_LIN,
                            [(1, 2, rt.coerce([0, Fraction(1, 6)]))])
    assert quillen_split(theta, 3, -2).witness.all_passed()
    with pytest.raises(AssertionError, match="Horner at T = 0"):
        rt._horner((1, 2), 0)


# ---------------------------------------------------------------------------
# transport over R against the R[T] engine run it replaced

def _transport_through_rt(d, v, flavor):
    # reference, for inputs that pass the guards: the transport before it
    # built its word over R; the engine runs over R[T] on V ⊥ I with the
    # homotopy z -> z·T of d's Whitehead word, and the word is
    # (d(T) ⊥ I)·ε^{-1} specialized at T = 1
    linear = flavor == "linear"
    v_mat = v if linear else v.mat
    ring, k = d.ring, d.rows
    white = (whitehead_linear if linear else whitehead_symplectic)(d)
    v_big = block_perp(v_mat, identity(ring, k))
    d_inv = white.eval().submatrix(k, 2 * k, k, 2 * k)
    hom = Homotopy.from_word(flavor, white.times_variable(PolyExt(ring, "T")))
    frame = v_big if linear else IsotropicFrame(v_big, "sp")
    eps = _commute_core(hom, v_big, _FLAVORS[flavor].complete(frame),
                        f"homotopy_commute_{flavor}").epsilon_word
    big, cut = v_big.cols, v_mat.cols
    word = (hom.word.embed(eps.size) + eps.invert()).specialize(ring.one())
    s_full = ref.word_matrix(word)
    alpha = s_full.submatrix(0, cut, 0, cut)
    beta = s_full.submatrix(0, cut, cut, big)
    gamma = s_full.submatrix(cut, big, 0, cut)
    zeta = s_full.submatrix(cut, big, cut, big)
    checks = [("gamma block vanishes", gamma == Mat.zeros(ring, k, cut)),
              ("zeta block equals d^{-1}", zeta == d_inv),
              ("d V == V sigma",
               ref.matmul(d, v_mat) == ref.matmul(v_mat, alpha))]
    if beta != Mat.zeros(ring, cut, k):
        x = ref.matmul(ref.mat_neg(alpha.inverse()), beta)
        word += GenWord(ring, big, FAMILY_LIN,
                        tuple(_block_gens(x, 0, cut, big)))
    checks.append(("word evaluates to sigma ⊥ d^{-1}",
                   ref.word_matrix(word) == alpha.block_perp(d_inv)))
    witness = words.Witness.certify(
        "vaserstein_transport", inputs={"d": d, "v": v_mat},
        outputs={"sigma": alpha, "word": word}, checks=checks)
    return homotopy.TransportResult(alpha, word, witness)


def _transport_cases(rng, ring):
    """(d, v, flavor): linear k = 1..5 with V of k and k + 1 columns, and
    sp n = 1, 2 with m = n and n + 1 pairs; each shape with a random d and
    V, with d = I, and with V the leading rows of the identity."""
    shapes = ([("linear", k, m) for k in range(1, 6) for m in (k, k + 1)]
              + [("symplectic", n, m) for n in (1, 2) for m in (n, n + 1)])
    for flavor, n, m in shapes:
        size = n if flavor == "linear" else 2 * n
        for variant in ("random", "identity d", "standard V"):
            if flavor == "linear":
                d = (random_word(rng, ring, FAMILY_LIN, n, 4).eval()
                     if n > 1 and variant != "identity d"
                     else identity(ring, n))
                v = (identity(ring, m).submatrix(0, n, 0, m)
                     if variant == "standard V" or m == 1
                     else random_unimodular_rows(rng, ring, n, m, 6)[0])
            else:
                d = (identity(ring, size) if variant == "identity d"
                     else random_word(rng, ring, FAMILY_SP, size, 3).eval())
                v = (IsotropicFrame.standard(ring, "sp", n, m)
                     if variant == "standard V"
                     else random_frame(rng, ring, "sp", n, m, 5)[0])
            yield d, v, flavor


TRANSPORT_RINGS = [ModularRing(9), PrimeField(5), ModularRing(4),
                   ModularRing(8)]


@pytest.mark.parametrize("ring", TRANSPORT_RINGS, ids=str)
def test_transport_over_r_matches_the_rt_engine(ring):
    rng = random.Random(f"transport:{ring}")
    for d, v, flavor in _transport_cases(rng, ring):
        res = vaserstein_transport(d, v, flavor)
        old = _transport_through_rt(d, v, flavor)
        assert res.word == old.word
        assert res.sigma == old.sigma
        assert _witness_bytes(res) == _witness_bytes(old)
        assert res.witness.all_passed()


@pytest.mark.parametrize("limit", [40, 90, 160])
def test_transport_word_limit_errors_match_the_rt_engine(limit, monkeypatch):
    # a word-limit error names the first concatenation past the limit, so
    # the word must be concatenated in the order the engine used
    monkeypatch.setenv("CGF_WORD_LIMIT", str(limit))
    outcomes = []
    for ring in TRANSPORT_RINGS[:2]:
        rng = random.Random(f"limit:{limit}:{ring}")
        for d, v, flavor in _transport_cases(rng, ring):
            pair = [_outcome(fn, d, v, flavor) for fn in (
                vaserstein_transport, _transport_through_rt)]
            assert pair[0] == pair[1]
            outcomes.append(pair[0])
    assert any(isinstance(o, ref.Raised) for o in outcomes)


def _golden_transports():
    rng = random.Random(601)
    shapes = ([("linear", k, k + 1) for k in (1, 2, 3, 4)]
              + [("linear", k, k) for k in (2, 3)]
              + [("symplectic", n, m)
                 for n, m in ((1, 1), (1, 2), (2, 2), (2, 3))])
    for ring in TRANSPORT_RINGS:
        for flavor, n, m in shapes:
            if flavor == "linear":
                d = (identity(ring, 1) if n == 1
                     else random_word(rng, ring, FAMILY_LIN, n, 4).eval())
                v, _ = random_unimodular_rows(rng, ring, n, m, 6)
            else:
                d = random_word(rng, ring, FAMILY_SP, 2 * n, 3).eval()
                v, _ = random_frame(rng, ring, "sp", n, m, 5)
            yield d, v, flavor
    # the guards, in their order: a non-local ring, d outside SL, V narrower
    # than it is tall
    Z15, Z9 = ModularRing(15), ModularRing(9)
    yield identity(Z15, 2), identity(Z15, 3).submatrix(0, 2, 0, 3), "linear"
    yield (Mat(Z9, [[2, 0], [0, 1]]), identity(Z9, 3).submatrix(0, 2, 0, 3),
           "linear")
    yield identity(Z9, 2), Mat(Z9, [[1], [0]]), "linear"


def test_transport_witness_bytes_are_golden():
    # sha256 of the witness JSON lines (the error JSON for the three guard
    # cases) of 43 seeded transports, recorded while the word was still
    # built by running the engine over R[T] and specializing at T = 1
    lines = []
    for d, v, flavor in _golden_transports():
        out = ref.outcome(vaserstein_transport, d, v, flavor)
        lines.append(json.dumps(out.to_json() if isinstance(out, ref.Raised)
                                else out.witness.to_json(), sort_keys=True))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "2765983a930fa745b6b67f05b1c4eae915e372148bb4ce351c3403bd004b847c"


@pytest.mark.parametrize("k", [6, 7])
def test_transport_certifies_past_the_rt_determinant_cap(k):
    # V is k x (k + 1): the engine over R[T] on V ⊥ I would take the
    # determinant of σ(T), of size 2k + 1 > DET_SIZE_CAP, while transport
    # takes them only of d (k x k) and σ ((k + 1) x (k + 1))
    Z9 = ModularRing(9)
    rng = random.Random(k)
    d = random_word(rng, Z9, FAMILY_LIN, k, 2 * k).eval()
    v, _ = random_unimodular_rows(rng, Z9, k, k + 1, 3 * k)
    res = vaserstein_transport(d, v, "linear")
    assert res.witness.all_passed()
    assert res.word.eval() == block_perp(res.sigma, d.inverse())


# ---------------------------------------------------------------------------
# the sparse engine against the dense one it replaced

def _commute_core_dense(d, v_mat, completion, claim):
    # reference: the engine before it conjugated by word actions; W and
    # W^{-1} are evaluated on the identity, and every conjugate, ε and
    # check product is a dense matmul over R[T]
    rt = d.poly_ring
    base = d.base_ring
    family = _FLAVORS[d.flavor].family
    msize = completion.size
    nsize = d.size

    w_t = completion.lift_to(rt)
    if msize == nsize:
        d_mat = d.delta_t
    else:
        d_mat = block_perp(d.delta_t, identity(rt, msize - nsize))
    w_t_inv = w_t.invert()
    w_mat = ref.word_matrix(w_t)
    w_inv = ref.word_matrix(w_t_inv)
    sigma_t = ref.matmul(ref.matmul(w_inv, d_mat), w_mat)

    mode = "word" if d.is_word_backed() else "assert"
    if mode == "word":
        d_word = d.word.embed(msize)
        if len(completion) == 0 or len(d.word) == 0:
            eps_word = words.empty_word(rt, msize, family)
        else:
            eps_word = (w_t_inv + d_word.invert() + w_t + d_word)
        eps_mat = ref.word_matrix(eps_word)
    else:
        eps_word = None
        eps_mat = ref.matmul(ref.matmul(ref.matmul(w_inv, d_mat.inverse()),
                                        w_mat), d_mat)

    v_t = v_mat.map_ring(rt)
    check_commute = ref.matmul(d.delta_t, v_t) == ref.matmul(v_t, sigma_t)
    check_start = mat_substitute(sigma_t, base.zero()).is_identity()
    check_eps = ref.matmul(sigma_t, eps_mat) == d_mat
    check_group = membership(sigma_t, _FLAVORS[d.flavor].group)

    one = base.one()
    sigma_1 = mat_substitute(sigma_t, one)
    delta_1 = d.at(one)
    check_spec = ref.matmul(delta_1, v_mat) == ref.matmul(v_mat, sigma_1)
    if mode == "word":
        eps_1 = eps_word.specialize(one)
        d1_mat = mat_substitute(d_mat, one)
        check_spec_eps = ref.matmul(sigma_1, ref.word_matrix(eps_1)) == d1_mat
    else:
        check_spec_eps = ref.matmul(
            sigma_1, mat_substitute(eps_mat, one)) == mat_substitute(d_mat, one)

    witness = words.Witness.certify(
        claim,
        inputs={"delta_t": d.delta_t, "v": v_mat},
        outputs={"sigma_t": sigma_t,
                 "epsilon": eps_word if eps_word is not None else eps_mat},
        checks=[
            ("delta_t @ V == V @ sigma_t (polynomial identity)", check_commute),
            ("sigma(0) == I", check_start),
            ("sigma_t @ epsilon == delta_t ⊥ I (exact)", check_eps),
            ("sigma_t stays in the flavor group over R[T]", check_group),
            ("T = 1 specialization commutes", check_spec),
            ("T = 1 epsilon specializes consistently", check_spec_eps),
            ("epsilon elementary membership",
             True if mode == "word" else None),
        ],
        mode=mode)
    return CommuteResult(sigma_t, eps_word, eps_mat, witness, mode)


_COMPLETE = {
    "linear": (FAMILY_LIN, complete_um_linear),
    "symplectic": (FAMILY_SP, lambda v: complete_sp(IsotropicFrame(v, "sp"))),
    "orthogonal": (FAMILY_ORTH,
                   lambda v: complete_orth(IsotropicFrame(v, "orth"))),
}


def _engine_case(rng, rt, flavor, rows, cols, mode, deg=1):
    """(d, v, completion): a homotopy of two generators whose parameters
    have T-degree 1..deg and vanish at T = 0, word-backed in word mode and
    given by its matrix in assert mode, and the leading ``rows`` rows V of
    a random elementary matrix with a word W completing V."""
    family, complete = _COMPLETE[flavor]
    base = rt.base
    triples = []
    for _ in range(2):
        i, j = random_indices(rng, family, rows)
        triples.append((i, j, [0] + [base.random(rng)
                                     for _ in range(rng.randint(1, deg))]))
    word = word_from_pairs(rt, rows, family, triples)
    d = (Homotopy.from_word(flavor, word) if mode == "word"
         else Homotopy.from_matrix(flavor, word.eval()))
    full = random_word(rng, base, family, cols, 5)
    v = full.eval().submatrix(0, rows, 0, cols)
    # over Z, which is not local, the random word itself completes V
    return d, v, complete(v) if base.is_local else full


def _witness_bytes(res):
    return json.dumps(res.witness.to_json(), sort_keys=True)


ENGINE_SHAPES = [("linear", 2, 3), ("linear", 3, 3), ("symplectic", 4, 6),
                 ("orthogonal", 4, 8)]
# over Z[T], whose base is not local, the engine runs the linear flavor only
ENGINE_CASES = ([(base, *shape) for base in (ModularRing(9), PrimeField(5))
                 for shape in ENGINE_SHAPES]
                + [(IntegerRing(), *shape) for shape in ENGINE_SHAPES[:2]])


@pytest.mark.parametrize("mode", ["word", "assert"])
@pytest.mark.parametrize("base,flavor,rows,cols", ENGINE_CASES,
                         ids=str)
def test_sparse_engine_matches_dense(base, flavor, rows, cols, mode):
    # σ(T) and ε equal the dense conjugate W^{-1} (d ⊥ I) W and its ε, the
    # witness bytes agree, and each sparse check product equals the dense
    # product it replaced
    rng = random.Random(f"{base}:{flavor}:{rows}x{cols}:{mode}")
    rt = PolyExt(base, "T")
    one = base.one()
    for _ in range(4):
        d, v, completion = _engine_case(rng, rt, flavor, rows, cols, mode)
        claim = f"homotopy_commute_{flavor}"
        res = _commute_core(d, v, completion, claim)
        old = _commute_core_dense(d, v, completion, claim)
        w = completion.lift_to(rt)
        d_mat = block_perp(d.delta_t, identity(rt, cols - rows)) \
            if cols > rows else d.delta_t
        assert res.sigma_t == w.invert().eval() @ d_mat @ w.eval()
        assert res.sigma_t == old.sigma_t
        assert res.epsilon_mat == old.epsilon_mat
        assert res.epsilon_word == old.epsilon_word
        assert _witness_bytes(res) == _witness_bytes(old)
        assert res.witness.all_passed() == (mode == "word")
        # d(1) ⊥ I is d(1), padded: the substitution the engine skips
        d_1 = d.at(one)
        assert mat_substitute(d_mat, one) == (
            block_perp(d_1, identity(base, cols - rows)) if cols > rows
            else d_1)
        if mode == "word":
            # ε is the word's own matrix, evaluated on the first read
            assert res._epsilon_mat is None
            assert res.epsilon_mat is res.epsilon_word.eval()
            eps_1 = res.epsilon_word.specialize(one)
            sigma_1 = mat_substitute(res.sigma_t, one)
            assert words.apply_word_right(res.sigma_t, res.epsilon_word) == \
                res.sigma_t @ res.epsilon_mat
            assert words.apply_word_right(sigma_1, eps_1) == \
                sigma_1 @ eps_1.eval()


def _outcome(fn, *args):
    """The witness bytes, or what was raised."""
    out = ref.outcome(fn, *args)
    return out if isinstance(out, ref.Raised) else _witness_bytes(out)


@pytest.mark.parametrize("cap", range(1, 7))
def test_small_degree_caps_never_raise_where_dense_returns(cap):
    # the sparse engine forms fewer products than the dense one, so at a
    # small cap it may return where the dense engine raised, never the
    # other way; when both return, the witness bytes agree
    returned = 0
    for base in (ModularRing(9), PrimeField(5)):
        rt = PolyExt(base, "T", degree_cap=cap)
        for flavor, rows, cols in ENGINE_SHAPES:
            for mode in ("word", "assert"):
                rng = random.Random(f"cap:{cap}:{base}:{flavor}:{mode}")
                for _ in range(12):
                    try:
                        d, v, completion = _engine_case(
                            rng, rt, flavor, rows, cols, mode, deg=cap)
                    except DegreeCapExceeded:
                        continue  # d(T) itself is above the cap
                    claim = f"homotopy_commute_{flavor}"
                    old = _outcome(_commute_core_dense, d, v, completion,
                                   claim)
                    got = _outcome(_commute_core, d, v, completion, claim)
                    if isinstance(old, ref.Raised):
                        assert old.code == "degree_cap_exceeded"
                        assert (got.code == old.code
                                if isinstance(got, ref.Raised)
                                else got.startswith("{"))
                    else:
                        assert got == old
                        returned += 1
    assert returned > 0


def test_small_cap_input_that_only_the_dense_engine_rejects():
    # σ(T)·ε over F_5[T; degree_cap=2]: the dense product has terms of
    # degree 3 that cancel, while ε's generators act on σ(T) one at a time
    rt = PolyExt(PrimeField(5), "T", degree_cap=2)
    d = Homotopy.from_word(
        "linear", word_from_pairs(rt, 2, FAMILY_LIN, [(2, 1, [0, 3])]))
    v = Mat(PrimeField(5), [[3, 1, 0], [2, 1, 0]])
    with pytest.raises(DegreeCapExceeded, match="degree 3 exceeds cap 2"):
        _commute_core_dense(d, v, complete_um_linear(v),
                            "homotopy_commute_linear")
    res = homotopy_commute_linear(d, v)
    assert res.mode == "word" and res.witness.all_passed()
    assert (d.delta_t @ v.map_ring(rt)) == (v.map_ring(rt) @ res.sigma_t)


# ---------------------------------------------------------------------------
# the guards of the public entries

_ENTRIES = {"linear": homotopy_commute_linear,
            "symplectic": homotopy_commute_symplectic,
            "orthogonal": homotopy_commute_orthogonal}
_FRAME_KINDS = {"linear": None, "symplectic": "sp", "orthogonal": "orth"}
# (n, m) in rows for the linear flavor and in pairs for the frames: inside
# the size bound, and outside it
_GOOD_SIZES = {"linear": (2, 3), "symplectic": (2, 3), "orthogonal": (2, 4)}
_BAD_SIZES = {"linear": (2, 2), "symplectic": (2, 2), "orthogonal": (2, 3)}
_OTHER_FLAVOR = {"linear": "symplectic", "symplectic": "linear",
                 "orthogonal": "linear"}


def _guard_homotopy(flavor, ring, n, kind_of=None):
    """A word-backed homotopy of the given flavor over ring[T], of the size
    that an n-row V (n pairs for a frame) of ``kind_of``'s flavor needs."""
    size = n if _FRAME_KINDS[kind_of or flavor] is None else 2 * n
    rt = PolyExt(ring, "T")
    family = _COMPLETE[flavor][0]
    word = random_word(random.Random(size), ring, family, size, 2)
    return Homotopy.from_word(flavor, word.times_variable(rt))


def _guard_v(flavor, ring, n, m, kind=None):
    kind = kind or _FRAME_KINDS[flavor]
    if kind is None:
        return identity(ring, m).submatrix(0, n, 0, m)
    return IsotropicFrame.standard(ring, kind, n, m)


@pytest.mark.parametrize("flavor", sorted(_ENTRIES))
def test_commute_guards_keep_their_codes(flavor):
    Z9, Z15, F5 = ModularRing(9), ModularRing(15), PrimeField(5)
    entry = _ENTRIES[flavor]
    n, m = _GOOD_SIZES[flavor]
    d = _guard_homotopy(flavor, Z9, n)
    assert entry(d, _guard_v(flavor, Z9, n, m)).witness.all_passed()
    other = _OTHER_FLAVOR[flavor]
    kind = _FRAME_KINDS[flavor]
    cases = {
        "wrong flavor": (_guard_homotopy(other, Z9, n, flavor),
                         _guard_v(flavor, Z9, n, m), "descriptor_mismatch"),
        "ring mismatch": (d, _guard_v(flavor, F5, n, m),
                          "descriptor_mismatch"),
        "non-local ring": (_guard_homotopy(flavor, Z15, n),
                           _guard_v(flavor, Z15, n, m), "not_local"),
        "row mismatch": (d, _guard_v(flavor, Z9, n + 1, m + 1),
                         "size_bound"),
        "size bound": (d, _guard_v(flavor, Z9, *_BAD_SIZES[flavor]),
                       "size_bound"),
        # precedence: the first failing guard names the error
        "wrong flavor over a non-local ring": (
            _guard_homotopy(other, Z15, n, flavor),
            _guard_v(flavor, Z15, n, m), "descriptor_mismatch"),
        "ring mismatch and row mismatch": (
            d, _guard_v(flavor, F5, n + 1, m + 1), "descriptor_mismatch"),
        "non-local ring and size bound": (
            _guard_homotopy(flavor, Z15, n),
            _guard_v(flavor, Z15, *_BAD_SIZES[flavor]), "not_local"),
    }
    if kind is not None:
        wrong = "orth" if kind == "sp" else "sp"
        cases["wrong frame kind"] = (d, _guard_v(flavor, Z9, n, m, wrong),
                                     "form_violation")
        cases["wrong frame kind over another ring"] = (
            d, _guard_v(flavor, F5, n, m, wrong), "form_violation")
        cases["wrong flavor and wrong frame kind"] = (
            _guard_homotopy(other, Z9, n, flavor),
            _guard_v(flavor, Z9, n, m, wrong), "descriptor_mismatch")
    for name, (hom, v, code) in cases.items():
        assert ref.outcome(entry, hom, v).code == code, name


def test_transport_certifies_at_its_smallest_sizes():
    Z9 = ModularRing(9)
    for d, v, sigma in [
            (Mat(Z9, [[1]]), Mat(Z9, [[1]]), [[1]]),
            (Mat(Z9, [[1]]), Mat(Z9, [[2, 3]]), identity(Z9, 2)._payloads()),
            (word_from_pairs(Z9, 2, FAMILY_SP, [(2, 1, 2)]).eval(),
             IsotropicFrame.standard(Z9, "sp", 1, 1), [[1, 0], [2, 1]])]:
        flavor = "linear" if isinstance(v, Mat) else "symplectic"
        res = vaserstein_transport(d, v, flavor)
        assert res.witness.all_passed()
        assert res.sigma._payloads() == sigma
        assert res.word.eval() == block_perp(res.sigma, d.inverse())


def test_transport_needs_as_many_columns_as_rows():
    Z9 = ModularRing(9)
    d = word_from_pairs(Z9, 2, FAMILY_LIN, [(1, 2, 3)]).eval()
    with pytest.raises(SizeBound):
        vaserstein_transport(d, Mat(Z9, [[1], [0]]), "linear")


# ---------------------------------------------------------------------------
# witness bytes of the homotopy engine and the commutator corollary

HOMOTOPY_SHAPES = [("linear", 2, 3), ("linear", 2, 4), ("linear", 3, 3),
                   ("symplectic", 2, 3), ("symplectic", 3, 3),
                   ("orthogonal", 2, 4), ("orthogonal", 2, 5)]


def _golden_homotopies():
    # the benchmark's seven (flavor, n, m) shapes over Z/9[T] and F_5[T]:
    # d(T) is a 2-generator word times T, V the leading rows of a random
    # elementary matrix; a square V is also the commutator's b
    rng = random.Random(701)
    for ring in (ModularRing(9), PrimeField(5)):
        rt = PolyExt(ring, "T")
        for flavor, n, m in HOMOTOPY_SHAPES:
            family = _FLAVORS[flavor].family
            dsize = n if flavor == "linear" else 2 * n
            d = Homotopy.from_word(
                flavor, random_word(rng, ring, family, dsize, 2)
                .times_variable(rt))
            if flavor == "linear":
                v, _ = random_unimodular_rows(rng, ring, n, m, 4)
            else:
                v, _ = random_frame(rng, ring, _FRAME_KINDS[flavor], n, m, 4)
            yield d, v, flavor, n == m and flavor != "orthogonal"


def test_homotopy_witness_bytes_are_golden():
    # sha256 of the witness JSON lines of 14 seeded commutes and the words
    # of the 4 commutator witnesses among them, recorded before generator
    # words were rebuilt without re-running their checks and before SO
    # membership over R[T] read the determinant off the constant terms
    lines = []
    for d, v, flavor, square in _golden_homotopies():
        res = _ENTRIES[flavor](d, v)
        assert res.mode == "word" and res.witness.all_passed()
        lines.append(json.dumps(res.witness.to_json(), sort_keys=True))
        if square:
            b = v if flavor == "linear" else v.mat
            eps = commutator_witness(d, b)
            lines.append(json.dumps(eps.to_json(), sort_keys=True))
    assert len(lines) == 18
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "e3ab72939129095731b9b0d2c9a9c4cbdb7935116c88dca89e16bb4930c075bf"


def test_word_mode_evaluates_epsilon_on_first_read(monkeypatch):
    # no check reads the ε matrix: a word-mode commute evaluates no ε word,
    # and the first read of epsilon_mat evaluates it once
    cases = list(_golden_homotopies())
    seen = _record_evaluations(monkeypatch)
    for d, v, flavor, _ in cases:
        seen.clear()
        res = _ENTRIES[flavor](d, v)
        eps = ("eval", json.dumps(res.epsilon_word.to_json(), sort_keys=True))
        assert eps not in seen
        first = res.epsilon_mat
        assert seen.count(eps) == 1
        assert res.epsilon_mat is first and seen.count(eps) == 1
        assert first == GenWord.from_json(res.epsilon_word.to_json()).eval()


# Horner evaluations over the 14 golden commutes: 1,482 while the engine
# substituted d(T) ⊥ I at T = 1 besides d(T) (540 of them), 942 once it
# padded d(1) instead.
GOLDEN_COMMUTE_HORNER = 942


def test_golden_commutes_substitute_d_once(monkeypatch):
    cases = list(_golden_homotopies())
    runs = []
    horner = PolyExt._horner
    monkeypatch.setattr(PolyExt, "_horner",
                        lambda self, a, t: runs.append(t) or horner(self, a, t))
    for d, v, flavor, _ in cases:
        assert _ENTRIES[flavor](d, v).witness.all_passed()
    assert len(runs) <= GOLDEN_COMMUTE_HORNER, len(runs)


def test_orthogonal_commute_certifies_past_the_determinant_cap():
    # σ(0) = I, so SO membership of σ(T) takes no determinant: a 2 x 7
    # frame gives a 14 x 14 σ(T), past DET_SIZE_CAP, where the determinant
    # of σ(0) raised size_limit
    Z9 = ModularRing(9)
    rt = PolyExt(Z9, "T")
    rng = random.Random(5)
    d = Homotopy.from_word("orthogonal", random_word(
        rng, Z9, FAMILY_ORTH, 4, 2).times_variable(rt))
    fr, _ = random_frame(rng, Z9, "orth", 2, 7, 6)
    res = homotopy_commute_orthogonal(d, fr)
    assert res.sigma_t.rows == 14 and res.witness.all_passed()
    with pytest.raises(SizeLimit):
        _constant_terms(res.sigma_t).det()


# ---------------------------------------------------------------------------
# each input is derived once per op: d(t) is kept by the homotopy, and the
# completion of V by V's matrix

def _fresh_inputs(d, v):
    """A new homotopy and a new V with the same values, sharing nothing
    that either keeps."""
    word = GenWord.from_json(d.word.to_json())
    fresh_d = Homotopy.from_word(d.flavor, word)
    fresh_v = (Mat._box(v.ring, v._grid) if isinstance(v, Mat)
               else IsotropicFrame(Mat._box(v.mat.ring, v.mat._grid), v.kind))
    return fresh_d, fresh_v


def test_at_keeps_each_point_and_matches_a_fresh_substitution():
    rng = random.Random(113)
    for ring in (ModularRing(9), PrimeField(5)):
        d = _linear_homotopy(rng, ring, 3, 3)
        fresh = Mat._box(d.delta_t.ring, d.delta_t._grid)
        for t in (1, 0, 2, ring.one(), 4):
            got = d.at(t)
            assert d.at(t) is got
            assert got.to_json() == mat_substitute(
                fresh, ring.coerce(t)).to_json()
        assert d.at(0).is_identity()
        assert d.at(ring.one()) is d.at(1)
        assert len(d.__dict__["_at"]) == 4
        # the kept matrices are no field: ==, hash and repr ignore them
        again = Homotopy.from_word("linear", d.word)
        assert again == d and hash(again) == hash(d)
        assert repr(again) == repr(d)


def test_commute_then_commutator_derive_each_input_once(monkeypatch):
    # on the golden cases the engine and then the commutator on the same V
    # complete V once and substitute d(1) once, and their bytes equal the
    # ones that fresh inputs give, which share nothing
    runs = []
    for name in ("_complete_linear", "_complete_pairs"):
        real = getattr(reduce, name)
        monkeypatch.setattr(reduce, name,
                            lambda *a, real=real: runs.append("W") or real(*a))
    substitute = homotopy.mat_substitute
    monkeypatch.setattr(homotopy, "mat_substitute",
                        lambda m, t: runs.append(("at", id(m), t.payload))
                        or substitute(m, t))
    squares = 0
    for d, v, flavor, square in _golden_homotopies():
        fresh_d, fresh_v = _fresh_inputs(d, v)
        want = [json.dumps(_ENTRIES[flavor](fresh_d, fresh_v)
                           .witness.to_json(), sort_keys=True)]
        if square:
            b = fresh_v if flavor == "linear" else fresh_v.mat
            want.append(json.dumps(commutator_witness(fresh_d, b).to_json(),
                                   sort_keys=True))
        runs.clear()
        got = [json.dumps(_ENTRIES[flavor](d, v).witness.to_json(),
                          sort_keys=True)]
        if square:
            b = v if flavor == "linear" else IsotropicFrame(v.mat, "sp").mat
            got.append(json.dumps(commutator_witness(d, b).to_json(),
                                  sort_keys=True))
            squares += 1
        assert got == want
        one = d.base_ring.one().payload
        assert runs.count("W") == 1
        assert runs.count(("at", id(d.delta_t), one)) == 1
    assert squares == 4
