"""Row reduction and completion round trips."""

import hashlib
import itertools
import json
import random
import warnings

import pytest

import reference as ref
from cgf import matrices, orthoquot
from cgf.errors import (CgfError, NoUnitEntry, NotLocal, NotRightInvertible,
                        SizeBound)
from cgf.factor import transvection_factor, whitehead_symplectic
from cgf.matrices import IsotropicFrame, Mat, identity, membership
from cgf.orthoquot import vaserstein_quotient
from cgf.reduce import (complete_orth, complete_sp, complete_um_linear,
                        reduce_row_linear, reduce_row_symplectic)
from cgf.rings import (IntegerRing, ModularRing, PrimeField,
                       TruncatedPolyLocal, has_half)
from cgf.sampling import random_frame, random_unimodular_rows, random_word
from cgf.words import FAMILY_ORTH, FAMILY_SP, apply_word_to_row

from conftest import local_test_rings


def _e1(ring, m):
    return [ring.one()] + [ring.zero()] * (m - 1)


def test_reduce_row_linear_frozen_examples():
    Z4 = ModularRing(4)
    w = reduce_row_linear(Mat(Z4, [[2, 3, 0]]))
    assert [(g.i, g.j, g.param.payload) for g in w] == [(2, 1, 1), (1, 2, 1)]
    F3 = PrimeField(3)
    w2 = reduce_row_linear(Mat(F3, [[0, 1]]))
    assert [(g.i, g.j, g.param.payload) for g in w2] == [(2, 1, 1), (1, 2, 2)]
    assert len(reduce_row_linear(Mat(Z4, [[1, 0, 0]]))) == 0


def test_reduce_row_linear_exhaustive_small():
    for ring in local_test_rings():
        for m in (2, 3):
            elements = list(ring.elements())
            import itertools
            for combo in itertools.product(elements, repeat=m):
                row = Mat(ring, [list(combo)])
                if any(v.is_unit() for v in combo):
                    w = reduce_row_linear(row)
                    assert len(w) <= 2 * m
                    assert apply_word_to_row(list(combo), w) == _e1(ring, m)
                else:
                    with pytest.raises(NoUnitEntry):
                        reduce_row_linear(row)


def test_reduce_row_requires_local():
    Z = IntegerRing()
    with pytest.raises(NotLocal):
        reduce_row_linear(Mat(Z, [[1, 0]]))


def test_reduce_row_symplectic_examples():
    Z5 = PrimeField(5)
    w = reduce_row_symplectic(Mat(Z5, [[0, 1]]))
    row = apply_word_to_row([Z5.zero(), Z5.one()], w)
    assert row == _e1(Z5, 2)
    Z4 = ModularRing(4)
    v = [Z4.coerce(2), Z4.coerce(3), Z4.zero(), Z4.zero()]
    w2 = reduce_row_symplectic(Mat(Z4, [v]))
    assert apply_word_to_row(v, w2) == _e1(Z4, 4)
    assert w2.gens[0].i == 2  # pivot at the second entry
    assert len(reduce_row_symplectic(Mat(Z4, [_e1(Z4, 4)]))) == 0


def test_reduce_row_symplectic_randomized():
    rng = random.Random(57)
    for ring in (ModularRing(9), PrimeField(5)):
        for m in (1, 2, 3):
            for _ in range(40):
                w = random_word(rng, ring, FAMILY_SP, 2 * m, 5)
                v = list(w.eval().entries[0])
                red = reduce_row_symplectic(Mat(ring, [v]))
                assert apply_word_to_row(v, red) == _e1(ring, 2 * m)


def test_complete_um_linear_identity_rows():
    Z4 = ModularRing(4)
    v = Mat(Z4, [[1, 0, 0], [0, 1, 0]])
    assert len(complete_um_linear(v)) == 0


def test_complete_um_linear_round_trips():
    rng = random.Random(91)
    for ring in (ModularRing(9), ModularRing(4), TruncatedPolyLocal(2, 2)):
        for n, m in ((1, 2), (1, 3), (2, 3), (3, 3), (2, 4)):
            for _ in range(25):
                v, _ = random_unimodular_rows(rng, ring, n, m, 6)
                w = complete_um_linear(v)
                got = w.eval()
                assert Mat(ring, got.entries[:n]) == v
                assert got.det() == ring.one()


def test_complete_um_linear_rejects_bad_square():
    Z9 = ModularRing(9)
    bad = Mat(Z9, [[2, 0], [0, 1]])  # det 2, right-invertible but not SL
    with pytest.raises(NotRightInvertible):
        complete_um_linear(bad)


def test_complete_sp_trivial_and_square():
    Z9 = ModularRing(9)
    fr = IsotropicFrame(Mat(Z9, identity(Z9, 4).entries[:2]), "sp")
    assert len(complete_sp(fr)) == 0
    rng = random.Random(5)
    for _ in range(25):
        w = random_word(rng, Z9, FAMILY_SP, 4, 6)
        full = w.eval()
        fr2 = IsotropicFrame(full, "sp")
        back = complete_sp(fr2)
        assert back.eval() == full  # n = m: exact recovery


def test_complete_sp_round_trips():
    rng = random.Random(7)
    for ring in (ModularRing(9), PrimeField(5)):
        for n, m in ((1, 1), (1, 2), (1, 3), (2, 3), (2, 2)):
            for _ in range(20):
                fr, _ = random_frame(rng, ring, "sp", n, m, 6)
                w = complete_sp(fr)
                got = w.eval()
                assert Mat(ring, got.entries[:2 * n]) == fr.mat
                assert membership(got, "Sp")


def test_complete_orth_round_trips():
    rng = random.Random(11)
    Z5 = PrimeField(5)
    for n, m in ((1, 3), (1, 4), (2, 4), (2, 5)):
        for _ in range(15):
            fr, _ = random_frame(rng, Z5, "orth", n, m, 6)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                w = complete_orth(fr)
            got = w.eval()
            assert Mat(Z5, got.entries[:2 * n]) == fr.mat
            assert membership(got, "O")


def test_complete_orth_pivot_transport_from_first_pair():
    # both units sit inside the first pair, forcing the transport move
    Z5 = PrimeField(5)
    big = Mat(Z5, [[2, 0], [0, 3]]).block_perp(identity(Z5, 4))
    fr = IsotropicFrame(Mat(Z5, big.entries[:2]), "orth")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = complete_orth(fr)
    assert Mat(Z5, w.eval().entries[:2]) == fr.mat
    assert membership(w.eval(), "O")


def test_complete_orth_bounds_and_warning():
    Z5 = PrimeField(5)
    fr = IsotropicFrame.standard(Z5, "orth", 1, 2)
    with pytest.raises(SizeBound):
        complete_orth(fr)
    assert len(complete_orth(fr, permissive=True)) == 0
    with pytest.warns(UserWarning):
        complete_orth(IsotropicFrame.standard(Z5, "orth", 1, 3))


def test_pivot_determinism():
    Z9 = ModularRing(9)
    v = Mat(Z9, [[3, 4, 6]])
    w1 = reduce_row_linear(v)
    w2 = reduce_row_linear(v)
    assert w1 == w2


# ---------------------------------------------------------------------------
# golden words and errors of every reduction entry point
#
# Each digest is the sha256 of json.dumps of the list of outcomes (the word
# JSON, or the error JSON with its code, message and context) over a fixed
# corpus; the digests were recorded before the row and frame reductions were
# merged into one sweep, so every word must stay generator-for-generator
# identical and every error must keep its code, message and context.

def _as_json(f, *args, **kwargs):
    """The JSON of f's word (or words), or of the error it raised."""
    out = ref.outcome(f, *args, **kwargs)
    if isinstance(out, tuple):
        return [x.to_json() for x in out]
    return out.to_json()


def _digest(outcomes) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def _golden_rows(reduce):
    """Every row of length 1-3 over each local test ring, and of length 4
    over the rings with at most five elements."""
    out = []
    for ring in local_test_rings():
        elements = list(ring.elements())
        for m in (1, 2, 3, 4):
            if m == 4 and len(elements) > 5:
                continue
            for combo in itertools.product(elements, repeat=m):
                out.append(_as_json(reduce, Mat(ring, [list(combo)])))
    return out


def _golden_complete_linear():
    rng = random.Random(4101)
    out = []
    for ring in local_test_rings():
        for n, m in ((1, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (3, 4)):
            for _ in range(6):
                v, _ = random_unimodular_rows(rng, ring, n, m, 6)
                out.append(_as_json(complete_um_linear, v))
            for _ in range(3):
                v = Mat(ring, [[ring.random(rng) for _ in range(m)]
                               for _ in range(n)])
                out.append(_as_json(complete_um_linear, v))
    return out


def _golden_complete_sp():
    rng = random.Random(4102)
    out = []
    for ring in local_test_rings():
        for n, m in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
            for _ in range(5):
                fr, _ = random_frame(rng, ring, "sp", n, m, 6)
                out.append(_as_json(complete_sp, fr))
        for _ in range(3):
            d = random_word(rng, ring, FAMILY_SP, 2, 4).eval()
            out.append(_as_json(whitehead_symplectic, d))
    return out


def _half_rings():
    return [ring for ring in local_test_rings() if has_half(ring)]


def _golden_complete_orth():
    rng = random.Random(4103)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ring in _half_rings():
            two, three = ring.coerce(2), ring.coerce(3)
            for u in (two, three):
                if u.is_unit():
                    # pivots inside the only pair: the transport needs room
                    fr = IsotropicFrame(Mat(ring, [[u, 0], [0, u.inverse()]]),
                                        "orth")
                    out.append(_as_json(complete_orth, fr, permissive=True))
                    out.append(_as_json(complete_orth, fr))
            for n, m in ((1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (2, 5)):
                for _ in range(5):
                    fr, _ = random_frame(rng, ring, "orth", n, m, 6)
                    out.append(_as_json(complete_orth, fr, permissive=True))
                out.append(_as_json(complete_orth, fr))
    return out


def _golden_transvections():
    rng = random.Random(4104)
    out = []
    for ring in local_test_rings():
        for m in (3, 4, 5):
            for t in range(8):
                if t % 4 == 3:
                    c = [ring.random(rng) for _ in range(m)]
                else:
                    c = list(random_unimodular_rows(rng, ring, 1, m, 6)[0]
                             .entries[0])
                r = [ring.zero()] * m
                for _ in range(t % 3):
                    i, j = rng.sample(range(m), 2)
                    a = ring.random(rng)
                    r[i] = r[i] + a * c[j]
                    r[j] = r[j] - a * c[i]
                out.append(_as_json(transvection_factor,
                                    Mat(ring, [[x] for x in c]),
                                    Mat(ring, [r])))
    return out


def _golden_vaserstein():
    rng = random.Random(4105)
    out = []
    for ring in _half_rings():
        two = ring.coerce(2)
        corners = [Mat(ring, [[1, 0], [0, 1]]), Mat(ring, [[0, 1], [1, 0]]),
                   Mat(ring, [[two, 0], [0, two.inverse()]])]
        for m in (3, 4):
            for t in range(6):
                w = random_word(rng, ring, FAMILY_ORTH, 2 * m, 8).eval()
                twist = identity(ring, 2 * m - 2).block_perp(corners[t % 3])
                a = twist @ w if t % 2 else w @ twist
                out.append(_as_json(vaserstein_quotient, a))
    return out


GOLDEN = {
    "reduce_row_linear": (
        lambda: _golden_rows(reduce_row_linear),
        "fbc53af585d2e1e956d508075fd251b84b8701f95bec5834c8f4c2603a7b15ff"),
    "reduce_row_symplectic": (
        lambda: _golden_rows(reduce_row_symplectic),
        "0c8e20e6b18d1de105c7fa0db3f5566f9cf9826126d2b56d9368c77347390c04"),
    "complete_um_linear": (
        _golden_complete_linear,
        "52246a1f17f58ea967b62b40f0a63884d14da9ef79df3cc438acbf693fe5ad45"),
    "complete_sp": (
        _golden_complete_sp,
        "6df843c7a0de744cf9dbca2455c7bd8655aeeff7752da5bf0b9c80be248d03df"),
    "complete_orth": (
        _golden_complete_orth,
        "0e50f8b9ae127f74cbefe0b926006508b5d6f6c2bc8f5a7c36689d52e25d7091"),
    "transvection_factor": (
        _golden_transvections,
        "02ef4bae19f89adf4a428303632a4740ba5020168883e04b598c48f8b5c5fa84"),
    "vaserstein_quotient": (
        _golden_vaserstein,
        "14f9e91f3ad21cd3c9332b4fff58ede9b9e385059d1b760a22868bbfea2916ef"),
}


@pytest.mark.parametrize("entry", sorted(GOLDEN))
def test_golden_words_and_errors(entry):
    corpus, digest = GOLDEN[entry]
    assert _digest(corpus()) == digest


def _unchecked_frame(mat, kind):
    """A frame that skips the form check, to reach the failures a valid
    frame never triggers."""
    frame = object.__new__(IsotropicFrame)
    object.__setattr__(frame, "mat", mat)
    object.__setattr__(frame, "kind", kind)
    return frame


_Z4, _Z9, _F5 = ModularRing(4), ModularRing(9), PrimeField(5)
_NO_UNIT = "row has no unit entry over the local ring"

ERROR_PINS = [
    ("linear row without a unit",
     lambda: reduce_row_linear(Mat(_Z4, [[2, 0]])),
     ("no_unit_entry", _NO_UNIT, {})),
    ("symplectic row without a unit",
     lambda: reduce_row_symplectic(Mat(_Z4, [[2, 2]])),
     ("no_unit_entry", _NO_UNIT, {})),
    ("linear row reduction of two rows",
     lambda: reduce_row_linear(identity(_Z4, 2)),
     ("shape_mismatch", "expected a single row", {})),
    ("symplectic row reduction of two rows",
     lambda: reduce_row_symplectic(identity(_Z4, 2)),
     ("shape_mismatch", "expected a single row", {})),
    ("linear completion row without a unit",
     lambda: complete_um_linear(Mat(_Z4, [[1, 0, 0], [2, 2, 0]])),
     ("not_right_invertible", _NO_UNIT, {})),
    ("linear completion square block",
     lambda: complete_um_linear(Mat(_Z9, [[2, 0], [0, 1]])),
     ("not_right_invertible",
      "square blocks complete only with determinant 1", {"pivot": "2"})),
    ("symplectic pair 0 without a unit",
     lambda: complete_sp(_unchecked_frame(
         Mat(_Z4, [[2, 0, 0, 2], [0, 1, 0, 0]]), "sp")),
     ("no_unit_entry", _NO_UNIT, {"pair": "0"})),
    ("symplectic pair 1 without a unit",
     lambda: complete_sp(_unchecked_frame(
         Mat(_Z4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]),
         "sp")),
     ("no_unit_entry", _NO_UNIT, {"pair": "1"})),
    ("symplectic partner entry not a unit",
     lambda: complete_sp(_unchecked_frame(
         Mat(_Z4, [[1, 0, 0, 0], [0, 2, 0, 0]]), "sp")),
     ("form_violation", "the form did not force a unit partner entry",
      {"got": "2"})),
    ("symplectic leading columns not cleared",
     lambda: complete_sp(_unchecked_frame(
         Mat(_Z4, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
         "sp")),
     ("form_violation", "form identity failed to clear the leading columns",
      {})),
    ("transvection column without a unit",
     lambda: transvection_factor(Mat(_Z4, [[2], [0], [0]]),
                                 Mat(_Z4, [[0, 1, 0]])),
     ("not_right_invertible", "column has no unit entry", {})),
    ("orthogonal window narrower than 4",
     lambda: complete_orth(IsotropicFrame(Mat(_F5, [[2, 0], [0, 3]]), "orth"),
                           permissive=True),
     ("size_bound", "orthogonal pivot transport needs width >= 4", {})),
    ("orthogonal row partner does not vanish",
     lambda: complete_orth(_unchecked_frame(
         Mat(_F5, [[1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]), "orth")),
     ("form_violation",
      "partner entry did not vanish; the row is not isotropic", {})),
    ("orthogonal partner row does not vanish",
     lambda: complete_orth(_unchecked_frame(
         Mat(_F5, [[1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0]]), "orth")),
     ("form_violation", "isotropy failed to clear the partner row",
      {"got": "1"})),
]


@pytest.mark.parametrize("thunk, expected",
                         [pin[1:] for pin in ERROR_PINS],
                         ids=[pin[0] for pin in ERROR_PINS])
def test_reduction_error_paths_are_pinned(thunk, expected):
    code, message, context = expected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(CgfError) as info:
            thunk()
    assert info.value.to_json() == {"code": code, "message": message,
                                    "context": context}


def test_vaserstein_quotient_reports_the_partial_state(monkeypatch):
    # membership is bypassed: an orthogonal input never fails the reduction
    monkeypatch.setattr(orthoquot, "membership", lambda a, group: True)
    rows = [[0, 1, 0, 0, 0, 0], [2, 0, 1, 0, 0, 0]] + [
        list(r) for r in identity(_F5, 6).entries[2:]]
    with pytest.raises(CgfError) as info:
        vaserstein_quotient(Mat(_F5, rows))
    e = info.value
    assert (e.code, e.message) == (
        "reduction_failed", "the form did not force a unit partner entry")
    assert e.context["partial_state"] == [
        [1, 0, 0, 0, 0, 0], [3, 2, 3, 3, 0, 0], [1, 0, 0, 1, 0, 0],
        [4, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    rows = [[3, 0, 0, 0, 0, 0]] + [list(r)
                                   for r in identity(_Z9, 6).entries[1:]]
    with pytest.raises(CgfError) as info:
        vaserstein_quotient(Mat(_Z9, rows))
    e = info.value
    assert (e.code, e.message) == ("reduction_failed", _NO_UNIT)
    assert e.context["partial_state"] == [
        [3, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]


@pytest.mark.parametrize("kind", ["sp", "orth"])
def test_completion_then_membership_runs_the_form_check_once(monkeypatch, kind):
    # the completion decides eval(word) in Sp/O; a caller certifying the
    # completion asks again of the same kept matrix and gets the kept answer
    rng = random.Random(f"memo:{kind}")
    ring = ModularRing(9)
    frames = [random_frame(rng, ring, kind, n, m)[0]
              for n, m in ((1, 4), (2, 5))]
    runs = []
    gram = matrices._gram_is_form

    def counting(left, right):
        runs.append(left.rows)
        return gram(left, right)

    monkeypatch.setattr(matrices, "_gram_is_form", counting)
    complete = complete_sp if kind == "sp" else complete_orth
    group = "Sp" if kind == "sp" else "O"
    for frame in frames:
        word = complete(frame)
        assert membership(word.eval(), group)
    assert runs == [8, 10]


# ---------------------------------------------------------------------------
# a completion is kept on the input matrix

def _fresh(a):
    return Mat._box(a.ring, a._grid)


def _completion_memo_cases(rng):
    """(complete, matrix, wrap, family) over local rings: wrap makes the
    argument of ``complete`` from a matrix."""
    for ring in (ModularRing(9), PrimeField(5), TruncatedPolyLocal(3, 2)):
        for n, m in ((1, 3), (2, 3), (2, 4), (3, 3)):
            v, _ = random_unimodular_rows(rng, ring, n, m, 6)
            yield complete_um_linear, v, (lambda x: x), "lin"
        for n, m in ((1, 2), (2, 3), (2, 2), (3, 3)):
            fr, _ = random_frame(rng, ring, "sp", n, m, 6)
            yield complete_sp, fr.mat, (lambda x: IsotropicFrame(x, "sp")), \
                "sp"
        for n, m in ((1, 3), (2, 4), (1, 4)):
            fr, _ = random_frame(rng, ring, "orth", n, m, 6)
            yield complete_orth, fr.mat, \
                (lambda x: IsotropicFrame(x, "orth")), FAMILY_ORTH


def test_completions_are_kept_and_match_a_fresh_copy():
    rng = random.Random(53)
    families = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for complete, v, wrap, family in _completion_memo_cases(rng):
            word = complete(wrap(v))
            fresh = complete(wrap(_fresh(v)))
            assert v._known[("complete", family)] is word
            # a second call on the same matrix, through a new frame object,
            # returns the kept word
            assert complete(wrap(v)) is word
            assert word.to_json() == fresh.to_json()
            families.add(family)
    assert families == {"lin", "sp", FAMILY_ORTH}


def test_a_square_sp_completion_keeps_the_frame_in_sp(monkeypatch):
    # the completion of a square frame is the frame's own matrix, which it
    # has just checked in Sp: the frame keeps that answer, so a later
    # membership decides nothing
    decided = []
    decide = matrices._decide_membership
    monkeypatch.setattr(matrices, "_decide_membership",
                        lambda a, g: decided.append(g) or decide(a, g))
    rng = random.Random(59)
    for ring in (ModularRing(9), PrimeField(5)):
        for n in (1, 2, 3):
            fr, _ = random_frame(rng, ring, "sp", n, n, 6)
            complete_sp(fr)
            assert fr.mat._known["Sp"] is True
            decided.clear()
            assert membership(fr.mat, "Sp") is membership(_fresh(fr.mat),
                                                          "Sp") is True
            assert decided == ["Sp"]  # the fresh copy's only
    # a frame of fewer rows than columns keeps no group answer
    fr, _ = random_frame(rng, PrimeField(5), "sp", 1, 2, 6)
    complete_sp(fr)
    assert "Sp" not in fr.mat._known


def test_a_completion_that_raises_keeps_nothing():
    Z9 = ModularRing(9)
    # a row of non-units, and a square block of determinant 4
    for v in (Mat(Z9, [[3, 6, 0]]), Mat(Z9, [[2, 0], [0, 2]])):
        first = ref.outcome(complete_um_linear, v)
        assert isinstance(first, ref.Raised)
        assert ref.outcome(complete_um_linear, v) == first
        assert ("complete", "lin") not in v._known


@pytest.mark.parametrize("family", ["lin", "sp", FAMILY_ORTH])
def test_a_kept_completion_meets_a_lowered_word_limit(family, monkeypatch):
    # the kept word is measured again: under a limit below its length the
    # second call raises exactly as a fresh call does, and a limit at its
    # length returns it again
    rng = random.Random(f"memo-limit:{family}")
    ring = PrimeField(5)
    if family == "lin":
        v, _ = random_unimodular_rows(rng, ring, 2, 4, 6)
        complete, wrap = complete_um_linear, (lambda x: x)
    else:
        kind = "sp" if family == "sp" else "orth"
        v = random_frame(rng, ring, kind, 1, 4, 6)[0].mat
        complete = complete_sp if family == "sp" else complete_orth
        wrap = (lambda x: IsotropicFrame(x, kind))
    word = complete(wrap(v))
    assert len(word) >= 2
    monkeypatch.setenv("CGF_WORD_LIMIT", str(len(word) - 1))
    kept = ref.outcome(complete, wrap(v))
    assert isinstance(kept, ref.Raised)
    assert kept.code == "word_limit_exceeded"
    assert kept == ref.outcome(complete, wrap(_fresh(v)))
    monkeypatch.setenv("CGF_WORD_LIMIT", str(len(word)))
    assert complete(wrap(v)) is word


def test_a_kept_orth_completion_keeps_its_bound_and_warning():
    Z5 = PrimeField(5)
    boundary = IsotropicFrame.standard(Z5, "orth", 1, 3)
    for _ in range(2):
        with pytest.warns(UserWarning):
            complete_orth(IsotropicFrame(boundary.mat, "orth"))
    small = IsotropicFrame.standard(Z5, "orth", 1, 2)
    word = complete_orth(small, permissive=True)
    assert small.mat._known[("complete", FAMILY_ORTH)] is word
    for _ in range(2):
        with pytest.raises(SizeBound):
            complete_orth(IsotropicFrame(small.mat, "orth"))
    assert complete_orth(small, permissive=True) is word
