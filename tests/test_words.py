"""Generator words: defining matrices, evaluation, inversion, substitution."""

import copy
import json
import random
import threading

import pytest

import cgf.words
import reference as ref
from cgf.errors import BadIndices, HalfNotInvertible, WordLimitExceeded
from cgf.matrices import Mat, membership
from cgf.rings import ModularRing, PolyExt, PrimeField, RingValue, has_half
from cgf.sampling import (random_frame, random_nonzero,
                          random_unimodular_rows, random_word)
from cgf.words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator, GenWord,
                       Witness, apply_word_to_row, empty_word, gen_matrix,
                       paired_index, word_from_pairs)

from conftest import all_test_rings


def test_pairing():
    assert [paired_index(k) for k in (1, 2, 3, 4)] == [2, 1, 4, 3]


def test_se12_is_upper_unipotent():
    Z5 = PrimeField(5)
    g = Generator(FAMILY_SP, 1, 2, Z5.coerce(3), 2)
    assert gen_matrix(g) == Mat(Z5, [[1, 3], [0, 1]])


def test_oe13_shape():
    Z5 = PrimeField(5)
    g = Generator(FAMILY_ORTH, 1, 3, Z5.coerce(2), 4)
    expected = Mat(Z5, [[1, 0, 2, 0], [0, 1, 0, 0],
                        [0, 0, 1, 0], [0, -2, 0, 1]])  # I + 2E_13 - 2E_42
    assert gen_matrix(g) == expected


def test_zero_param_dropped():
    Z4 = ModularRing(4)
    w = word_from_pairs(Z4, 3, FAMILY_LIN, [(1, 2, 0)])
    assert len(w) == 0
    assert w.eval().is_identity()


def test_orth_rejects_pair_index_and_even_char():
    Z5 = PrimeField(5)
    with pytest.raises(BadIndices):
        Generator(FAMILY_ORTH, 1, 2, Z5.coerce(1), 4)
    Z4 = ModularRing(4)
    with pytest.raises(HalfNotInvertible):
        Generator(FAMILY_ORTH, 1, 3, Z4.coerce(1), 4)


def test_eval_inverse_pair():
    Z4 = ModularRing(4)
    w = word_from_pairs(Z4, 2, FAMILY_LIN, [(1, 2, 1), (1, 2, -1)])
    assert w.eval().is_identity()
    assert empty_word(Z4, 3, FAMILY_LIN).eval().is_identity()


def test_row_action_example():
    Z4 = ModularRing(4)
    w = word_from_pairs(Z4, 3, FAMILY_LIN, [(2, 1, 1), (1, 2, 1)])
    row = [Z4.coerce(2), Z4.coerce(3), Z4.coerce(0)]
    out = apply_word_to_row(row, w)
    assert out == [Z4.one(), Z4.zero(), Z4.zero()]
    # and via full evaluation
    assert (Mat(Z4, [row]) @ w.eval()).entries[0] == tuple(out)


def test_invert():
    Z9 = ModularRing(9)
    w = word_from_pairs(Z9, 4, FAMILY_SP, [(1, 2, 5), (2, 1, 7)])
    assert (w.invert().eval() @ w.eval()).is_identity()
    assert list(w.invert()) == [g.inverse() for g in reversed(list(w))]
    assert len(empty_word(Z9, 4, FAMILY_SP).invert()) == 0


def test_form_preservation_sampled():
    rng = random.Random(3)
    for ring in (ModularRing(4), PrimeField(5)):
        for _ in range(40):
            w = random_word(rng, ring, FAMILY_SP, 4, 3)
            assert membership(w.eval(), "Sp")
    Z5 = PrimeField(5)
    for _ in range(40):
        w = random_word(rng, Z5, FAMILY_ORTH, 6, 3)
        assert membership(w.eval(), "O")


def test_eval_is_monoid_hom():
    rng = random.Random(31)
    Z9 = ModularRing(9)
    for fam, size in ((FAMILY_LIN, 3), (FAMILY_SP, 4)):
        for _ in range(25):
            w1 = random_word(rng, Z9, fam, size, 3)
            w2 = random_word(rng, Z9, fam, size, 3)
            assert (w1 + w2).eval() == w1.eval() @ w2.eval()


def test_dilate_specialize():
    Z4 = ModularRing(4)
    RT = PolyExt(Z4, "T")
    w = word_from_pairs(RT, 2, FAMILY_LIN, [(1, 2, RT.variable())])
    b = Z4.coerce(2)
    d = w.dilate(b)
    assert d.gens[0].param == RT.coerce([0, 2])
    assert w.dilate(Z4.one()) == w
    from cgf.rings import IntegerRing
    Z = IntegerRing()
    ZT = PolyExt(Z, "T")
    w2 = word_from_pairs(ZT, 2, FAMILY_LIN,
                         [(1, 2, ZT.variable() * ZT.variable())])
    assert w2.dilate(Z.coerce(2)).gens[0].param == ZT.coerce([0, 0, 4])  # 4T^2
    # over Z/4 the same dilation kills the parameter and drops the generator
    w3 = word_from_pairs(RT, 2, FAMILY_LIN,
                         [(1, 2, RT.variable() * RT.variable())])
    assert len(w3.dilate(Z4.coerce(2))) == 0

    s = word_from_pairs(RT, 4, FAMILY_SP, [(1, 2, RT.coerce([0, 2]))])
    assert s.specialize(Z4.coerce(3)).gens[0].param == Z4.coerce(2)  # 6 = 2


def test_specialize_dilate_compose():
    rng = random.Random(41)
    Z9 = ModularRing(9)
    RT = PolyExt(Z9, "T")
    for _ in range(25):
        w = random_word(rng, RT, FAMILY_LIN, 3, 3)
        b = Z9.random(rng)
        t = Z9.random(rng)
        lhs = w.dilate(b).specialize(t)
        rhs = w.specialize(b * t)
        assert lhs.eval() == rhs.eval()


def test_specialize_at_zero_is_identity_for_t_multiples():
    Z9 = ModularRing(9)
    RT = PolyExt(Z9, "T")
    w = word_from_pairs(RT, 3, FAMILY_LIN,
                        [(1, 2, RT.variable()), (2, 3, RT.coerce([0, 5]))])
    assert w.specialize(Z9.zero()).eval().is_identity()
    assert w.dilate(Z9.zero()).eval().is_identity()


def test_word_limit(monkeypatch):
    monkeypatch.setenv("CGF_WORD_LIMIT", "4")
    Z4 = ModularRing(4)
    with pytest.raises(WordLimitExceeded, match="exceeds limit 4$"):
        word_from_pairs(Z4, 2, FAMILY_LIN, [(1, 2, 1)] * 5)
    monkeypatch.delenv("CGF_WORD_LIMIT")
    # the limit is read once per word, on the error path too
    reads = []
    monkeypatch.setattr(cgf.words, "word_limit", lambda: reads.append(1) or 4)
    with pytest.raises(WordLimitExceeded):
        word_from_pairs(Z4, 2, FAMILY_LIN, [(1, 2, 1)] * 5)
    assert len(reads) == 1


def test_shift_and_embed_preserve_action():
    Z5 = PrimeField(5)
    w = word_from_pairs(Z5, 4, FAMILY_SP, [(1, 3, 2), (2, 1, 4)])
    big = w.shift(2, 8)
    m = big.eval()
    # acts as identity on the first two coordinates
    assert m.submatrix(0, 2, 0, 2).is_identity()
    assert membership(m, "Sp")
    inner = m.submatrix(2, 8, 2, 8)
    assert inner == w.embed(6).eval().submatrix(0, 6, 0, 6)


def test_witness_reports():
    w = Witness.certify("claim", {}, {}, [("a", True), ("b", None)])
    assert not w.all_passed()
    assert [c.status for c in w.checks] == ["pass", "unverified"]
    from cgf.errors import WitnessCheckFailed
    with pytest.raises(WitnessCheckFailed):
        Witness.certify("claim", {}, {}, [("a", False)])


def test_word_json_round_trip():
    Z9 = ModularRing(9)
    w = word_from_pairs(Z9, 4, FAMILY_SP, [(1, 2, 5), (3, 1, 2)])
    assert GenWord.from_json(w.to_json()) == w


def test_eval_runs_once_and_is_not_a_field():
    Z9 = ModularRing(9)
    triples = [(1, 2, 3), (2, 3, 5), (3, 1, 1)]
    w = word_from_pairs(Z9, 3, FAMILY_LIN, triples)
    fresh = word_from_pairs(Z9, 3, FAMILY_LIN, triples)
    assert w.eval() is w.eval()
    assert w == fresh and fresh == w
    assert hash(w) == hash(fresh)
    assert repr(w) == repr(fresh)
    assert json.dumps(w.to_json()) == json.dumps(fresh.to_json())
    assert fresh.eval() == w.eval()


def test_sampling_rejects_sizes_without_generators():
    # no (i, j) is admissible at size 1, nor for orth at size 2; the index
    # draw used to retry forever, so the calls run in a thread with a
    # deadline and must raise BadIndices
    Z5 = PrimeField(5)
    calls = [lambda: random_unimodular_rows(random.Random(1), Z5, 1, 1),
             lambda: random_word(random.Random(1), Z5, FAMILY_SP, 1, 3),
             lambda: random_frame(random.Random(1), Z5, "orth", 1, 1)]
    for call in calls:
        raised = []

        def run():
            try:
                call()
            except BadIndices as e:
                raised.append(e)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and len(raised) == 1


# ---------------------------------------------------------------------------
# rebuilt words against the public construction whose checks they skip

def _ref_map(w, fn, ring=None, size=None, order=None):
    # reference: the public construction, every generator and the word
    # checked again; fn maps a generator to its (i, j, param)
    gens = w.gens if order is None else order(w.gens)
    size = w.size if size is None else size
    return GenWord(ring or w.ring, size, w.family, tuple(
        Generator(w.family, *fn(g), size) for g in gens))


def _rebuilds(w, u):
    """(name, rebuild, public construction) for an R-word w and an R[T]-word
    u over R = w.ring, all of the same family and size."""
    ring, rt, size = w.ring, u.ring, w.size
    T = rt.variable()
    out = [
        ("invert", w.invert, lambda: _ref_map(
            w, lambda g: (g.i, g.j, -g.param), order=reversed)),
        ("add", lambda: w + w.invert(), lambda: GenWord(
            ring, size, w.family, w.gens + w.invert().gens)),
        ("embed", lambda: w.embed(size + 2), lambda: _ref_map(
            w, lambda g: (g.i, g.j, g.param), size=size + 2)),
        ("shift", lambda: w.shift(2, size + 2), lambda: _ref_map(
            w, lambda g: (g.i + 2, g.j + 2, g.param), size=size + 2)),
        ("lift_to", lambda: w.lift_to(rt), lambda: _ref_map(
            w, lambda g: (g.i, g.j, rt.coerce(g.param)), ring=rt)),
        ("times_variable", lambda: w.times_variable(rt), lambda: _ref_map(
            w, lambda g: (g.i, g.j, rt.coerce(g.param) * T), ring=rt)),
        ("transpose", lambda: GenWord(
            ring, size, w.family, cgf.words._transpose_gens(w.gens)),
         lambda: _ref_map(w, lambda g: (g.j, g.i, g.param), order=reversed)),
    ]
    for t in (0, 1, 3):
        t = ring.coerce(t)
        out.append((f"specialize({t})", lambda t=t: u.specialize(t),
                    lambda t=t: _ref_map(u, lambda g: (
                        g.i, g.j, rt.eval_at(g.param.payload, t)), ring=ring)))
        out.append((f"dilate({t})", lambda t=t: u.dilate(t),
                    lambda t=t: _ref_map(u, lambda g: (
                        g.i, g.j, RingValue(rt, rt.compose_scale(
                            g.param.payload, t))))))
    return out


def _rebuild_words(length):
    # over Z/9 and Z/9[T]: a third of the R[T] parameters are 3T, which
    # specialize(3) and dilate(3) send to zero
    rng = random.Random(f"rebuild:{length}")
    Z9 = ModularRing(9)
    rt = PolyExt(Z9, "T")
    for family, size in ((FAMILY_LIN, 3), (FAMILY_SP, 4), (FAMILY_ORTH, 6)):
        w = random_word(rng, Z9, family, size, length)
        u = random_word(rng, rt, family, size, length) + \
            word_from_pairs(rt, size, family, [
                (g.i, g.j, [0, 3]) for g in w.gens[:length // 3]])
        yield w, u


def _outcome(fn):
    """fn's word with its update triples and matrix, or the JSON of what it
    raised."""
    w = ref.outcome(fn)
    if isinstance(w, ref.Raised):
        return w.to_json()
    return (w, [g._triples for g in w], w.eval())


def test_rebuilt_words_equal_the_public_construction():
    dropped = set()
    for w, u in _rebuild_words(6):
        for name, fn, ref in _rebuilds(w, u):
            got = _outcome(fn)
            assert got == _outcome(ref), name
            if name.startswith(("specialize", "dilate")) and len(got[0]) < len(u):
                dropped.add(name)
    assert {"specialize(0)", "specialize(3)", "dilate(0)",
            "dilate(3)"} <= dropped


@pytest.mark.parametrize("limit", [40, 90, 160])
def test_rebuilt_words_keep_the_word_limit_errors(limit, monkeypatch):
    words = [pair for length in (30, 60, 120) for pair in _rebuild_words(length)]
    monkeypatch.setenv("CGF_WORD_LIMIT", str(limit))
    codes = set()
    for w, u in words:
        for name, fn, ref in _rebuilds(w, u):
            got = _outcome(fn)
            assert got == _outcome(ref), name
            if isinstance(got, dict):
                codes.add(got["code"])
                assert got["message"].endswith(f"exceeds limit {limit}")
    assert codes == {"word_limit_exceeded"}


def test_shift_keeps_its_index_guards():
    Z9 = ModularRing(9)
    cases = [(word_from_pairs(Z9, 4, FAMILY_LIN, [(1, 2, 1), (3, 4, 2)]),
              offset, size) for offset, size in ((1, 4), (-1, 4), (2, 5))]
    cases += [(word_from_pairs(Z9, 4, FAMILY_SP, [(1, 3, 1), (2, 4, 2)]),
               offset, size) for offset, size in ((2, 5), (2, 7), (-2, 6))]
    cases.append((word_from_pairs(Z9, 4, FAMILY_ORTH, [(1, 3, 1)]), 2, 5))
    for w, offset, size in cases:
        got = _outcome(lambda: w.shift(offset, size))
        ref = _outcome(lambda: _ref_map(
            w, lambda g: (g.i + offset, g.j + offset, g.param), size=size))
        assert got == ref
        assert got["code"] == "bad_indices", got


# ---------------------------------------------------------------------------
# the generator contract: a tuple of payloads that behaves as a value

# (repr, JSON) of random_nonzero(random.Random(k), ring) for the k-th ring of
# all_test_rings(), pinned when generators still held a boxed parameter
PARAM_PINS = [("3", "3"), ("2", "2"), ("1", "1"), ("1+1x", "[1,1]"),
              ("1x", "[0,1]"), ("4", "4"), ("9", "9"), ("1/3", "[1,3]"),
              ("1", "1"), ("2/9", "[2,9]"),
              ("0 + (3)T + (3)T^2", "[0,3,3]"), ("4/3", "[4,3]"), ("1", "1")]
TAGS = {FAMILY_LIN: "e", FAMILY_SP: "se", FAMILY_ORTH: "oe"}


def _contract_cases():
    """(k, ring, same ring built again, family, i, j, param) for every
    admissible (i, j) at size 4, every family and every test ring that
    admits it."""
    for k, (ring, again) in enumerate(zip(all_test_rings(),
                                          all_test_rings())):
        z = random_nonzero(random.Random(k), ring)
        for family in (FAMILY_LIN, FAMILY_SP, FAMILY_ORTH):
            if family == FAMILY_ORTH and not has_half(ring):
                continue
            for i in range(1, 5):
                for j in range(1, 5):
                    if i != j and not (family == FAMILY_ORTH
                                       and i == paired_index(j)):
                        yield k, ring, again, family, i, j, z


def _derived_updates(g):
    # the column updates of I + z E_ij, and of its partner entry
    # -(-1)^(i+j) z E_(pair j, pair i) (sp) or -z E_(pair j, pair i) (orth)
    z, i, j = g.param, g.i, g.j
    if g.family == FAMILY_LIN or (g.family == FAMILY_SP
                                  and i == paired_index(j)):
        return ((j, i, z),)
    c = -z if g.family == FAMILY_ORTH or (i + j) % 2 == 0 else z
    return ((j, i, z), (paired_index(i), paired_index(j), c))


def test_generator_contract():
    seen = set()
    for k, ring, again, family, i, j, z in _contract_cases():
        g = Generator(family, i, j, z, 4)
        # the trusted builder, over another instance of the same ring
        h = cgf.words._gen(family, i, j, again, z.payload, 4)
        assert g == h and h == g and not g != h
        assert hash(g) == hash(h)
        assert copy.copy(g) == g
        assert (g.family, g.i, g.j, g.size) == (family, i, j, 4)
        assert type(g.param) is RingValue and g.param == z
        assert g.param.ring == ring and g.z == z.payload
        # never equal to a non-generator, not even to its own fields
        for other in (tuple(g), list(g), None, z, repr(g)):
            assert g.__eq__(other) is False
            assert g != other and other != g and not g == other
        for name in ("family", "i", "j", "size", "param", "ring", "z",
                     "_triples", "extra"):
            with pytest.raises(AttributeError):
                setattr(g, name, 1)
        r, js = PARAM_PINS[k]
        assert repr(g) == f"{TAGS[family]}_{i}{j}({r})"
        assert json.dumps(g.to_json(), separators=(",", ":")) == \
            f'{{"i":{i},"j":{j},"param":{js}}}'
        inv = g.inverse()
        assert (inv.family, inv.i, inv.j, inv.size) == (family, i, j, 4)
        assert inv.ring == ring and inv.z == ring.neg(z.payload)
        assert inv.param == -z and inv.inverse() == g
        assert g.updates() == _derived_updates(g)
        assert inv.updates() == _derived_updates(inv)
        seen.add((family, len(g.updates())))
    assert seen == {(FAMILY_LIN, 1), (FAMILY_SP, 1), (FAMILY_SP, 2),
                    (FAMILY_ORTH, 2)}


def test_generators_differing_in_one_field_differ():
    gen = cgf.words._gen
    for _, ring, _, family, i, j, z in _contract_cases():
        g = gen(family, i, j, ring, z.payload, 4)
        other_family = FAMILY_SP if family == FAMILY_LIN else FAMILY_LIN
        variants = [gen(other_family, i, j, ring, z.payload, 4),
                    gen(family, j, i, ring, z.payload, 4),
                    gen(family, i, 5, ring, z.payload, 6),
                    gen(family, i, j, ring, z.payload, 6),
                    gen(family, i, j, ring, (z + 1).payload, 4)]
        if family == FAMILY_LIN:  # another ring, the same payload
            variants.append(gen(family, i, j, PolyExt(ring, "S"), z.payload, 4))
        for v in variants:
            assert v != g and g != v and not v == g
        # the hash reads every field
        assert hash(g) not in {hash(v) for v in variants}


def test_public_word_wrappers_agree_with_their_methods_and_the_reference():
    # eval_word, invert_word, dilate and specialize, exported by cgf, are
    # the methods they wrap: checked against the methods and against
    # reference products of generator matrices
    from cgf import dilate, eval_word, invert_word, specialize
    rng = random.Random(32)
    for base in (ModularRing(9), PrimeField(5)):
        rt = PolyExt(base, "T")
        for family, size in ((FAMILY_LIN, 3), (FAMILY_SP, 4),
                             (FAMILY_ORTH, 4)):
            w = random_word(rng, rt, family, size, 6)
            m = eval_word(w)
            assert m == w.eval() == ref.word_matrix(w)
            inv = invert_word(w)
            assert inv == w.invert()
            assert ref.matmul(ref.word_matrix(inv), m) == ref.identity(
                rt, size)
            b, t = base.random(rng), base.random(rng)
            assert dilate(w, b) == w.dilate(b)
            assert specialize(w, t) == w.specialize(t)
            # w(bT) at T = t is w at T = b * t
            assert ref.substitute(ref.word_matrix(dilate(w, b)), t) == \
                ref.substitute(m, b * t) == ref.word_matrix(specialize(
                    w, b * t))
