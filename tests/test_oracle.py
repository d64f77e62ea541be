"""BFS orbit oracle: exhaustive counts, path certificates, determinism."""

import functools
import hashlib
import itertools
import json
import random
import threading
from collections import Counter
from math import gcd

import pytest

import reference as ref
from cgf import oracle
from cgf.errors import (BadIndices, DescriptorMismatch, HalfNotInvertible,
                        ObjectOutOfDomain, SearchBudgetExceeded, ShapeMismatch,
                        UnsupportedRing, WitnessCheckFailed)
from cgf.matrices import Mat
from cgf.oracle import OrbitTable, certify_equivalence, enumerate_orbits
from cgf.rings import (IntegerRing, ModularRing, PolyExt, PrimeField,
                       QuotientRing, RingValue, TruncatedPolyLocal,
                       _PolyRemainders, has_half)
from cgf.words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator,
                       apply_word_to_row, paired_index)

from conftest import local_test_rings, within


def test_um2_z2_single_orbit_of_three():
    Z2 = ModularRing(2)
    table = enumerate_orbits(Z2, "row", FAMILY_LIN, 2)
    assert table.orbit_count() == 1
    assert table.orbit_sizes() == [3]


def test_um3_z2_single_orbit():
    Z2 = ModularRing(2)
    table = enumerate_orbits(Z2, "row", FAMILY_LIN, 3)
    assert table.orbit_count() == 1
    assert (1, 0, 0) in table.orbit_of


def test_size_one_no_generators():
    Z3 = ModularRing(3)
    table = enumerate_orbits(Z3, "row", FAMILY_LIN, 1)
    assert table.orbit_count() == 2  # units 1 and 2, each its own orbit


def _catalog_ref(ring, family, size):
    # reference: the catalog as built before, every generator through the
    # public constructor and its checks
    if family != FAMILY_LIN and size % 2:
        raise BadIndices(f"{family} generators need even size")
    params = [RingValue(ring, ring.unrank(r))
              for r in range(ring.cardinality())]
    return [Generator(family, i, j, z, size)
            for i, j in itertools.permutations(range(1, size + 1), 2)
            if family != FAMILY_ORTH or i != paired_index(j)
            for z in params if not z.is_zero()]


@pytest.mark.parametrize("ring", [ModularRing(1), ModularRing(4),
                                  ModularRing(9), PrimeField(5),
                                  TruncatedPolyLocal(2, 2)],
                         ids=["Z/1", "Z/4", "Z/9", "F_5", "F_2[x]/(x^2)"])
def test_the_catalog_matches_the_public_constructor(ring):
    # the catalog checks each (i, j) once and builds the rest unchecked:
    # the same generators in the same order, or the same first error (orth
    # without 1/2; odd paired sizes, also size 1, which has no pair)
    for family, size in itertools.product(
            (FAMILY_LIN, FAMILY_SP, FAMILY_ORTH), range(1, 7)):
        try:
            want = _catalog_ref(ring, family, size)
        except (BadIndices, HalfNotInvertible) as exc:
            with pytest.raises(type(exc)) as info:
                oracle.generator_catalog(ring, family, size)
            assert info.value.message == exc.message
            continue
        assert oracle.generator_catalog(ring, family, size) == want


@pytest.mark.parametrize("family", [FAMILY_SP, FAMILY_ORTH])
@pytest.mark.parametrize("kind, size, frame_rows", [
    ("row", 1, 0), ("row", 3, 0), ("row", 5, 0),
    ("frame", 1, 1), ("frame", 3, 2),
])
def test_paired_families_refuse_every_odd_size(family, kind, size,
                                               frame_rows):
    # size 1 has no generator pair at all, but is refused as size 3 is
    with pytest.raises(BadIndices, match=f"^{family} generators need even"):
        enumerate_orbits(ModularRing(4), kind, family, size,
                         frame_rows=frame_rows)


def test_certify_equivalence_small():
    Z2 = ModularRing(2)
    table = enumerate_orbits(Z2, "row", FAMILY_LIN, 2)
    w = certify_equivalence((1, 0), (1, 1), table)
    assert w is not None
    row = [Z2.one(), Z2.zero()]
    assert apply_word_to_row(row, w) == [Z2.one(), Z2.one()]
    with pytest.raises(ObjectOutOfDomain):
        certify_equivalence((0, 0), (1, 0), table)


def test_certify_out_of_domain_mod4():
    Z4 = ModularRing(4)
    table = enumerate_orbits(Z4, "row", FAMILY_LIN, 2)
    with pytest.raises(ObjectOutOfDomain):
        certify_equivalence((2, 2), (1, 0), table)


def test_certify_rejects_a_mat_of_the_wrong_shape_or_ring():
    Z2 = ModularRing(2)
    table = enumerate_orbits(Z2, "row", FAMILY_LIN, 2)
    e1 = Mat(Z2, [[1, 0]])
    assert certify_equivalence(e1, Mat(Z2, [[1, 1]]), table)
    # a two-row Mat is not certified by its first row
    with pytest.raises(ShapeMismatch) as err:
        certify_equivalence(Mat.identity(Z2, 2), e1, table)
    assert err.value.to_json() == {"code": "shape_mismatch",
                                   "message": "expected a single row",
                                   "context": {}}
    # a Z/3 row whose payloads are also Z/2 payloads is still a Z/3 row
    with pytest.raises(DescriptorMismatch):
        certify_equivalence(Mat(ModularRing(3), [[1, 0]]), e1, table)
    with pytest.raises(DescriptorMismatch):
        certify_equivalence(e1, Mat(ModularRing(3), [[1, 1]]), table)
    # the same for a frame table
    frames = enumerate_orbits(ModularRing(4), "frame", FAMILY_SP, 4,
                              frame_rows=1)
    standard = frames.reps[0]
    with pytest.raises(DescriptorMismatch):
        certify_equivalence(Mat(ModularRing(5), [list(standard[0])]),
                            standard, frames)


def test_unimodular_rows_over_a_non_local_modulus():
    # the gcd test of the modulus, for Z/6 and for Z/(6) as a quotient of Z:
    # |Um_2(Z/6)| = |Um_2(F_2)| * |Um_2(F_3)| = 3 * 8, in one orbit
    for ring in (ModularRing(6), QuotientRing(IntegerRing(), [6])):
        table = enumerate_orbits(ring, "row", FAMILY_LIN, 2)
        assert len(table.orbit_of) == 24
        assert table.orbit_count() == 1


def test_local_transitivity_cross_checks_reduction():
    for ring in local_test_rings():
        for m in (2, 3):
            if ring.cardinality() ** m > 10 ** 5:
                continue
            table = enumerate_orbits(ring, "row", FAMILY_LIN, m)
            assert table.orbit_count() == 1
            e1 = tuple([ring.one().payload] + [ring.zero().payload] * (m - 1))
            assert e1 in table.orbit_of


def test_orbit_tables_are_deterministic():
    Z4 = ModularRing(4)
    t1 = enumerate_orbits(Z4, "row", FAMILY_LIN, 3)
    t2 = enumerate_orbits(Z4, "row", FAMILY_LIN, 3)
    assert t1.orbit_sizes() == [56]
    assert t1.orbit_of == t2.orbit_of
    assert t1.pred == t2.pred
    dumped = json.dumps(t1.to_json())
    back = OrbitTable.from_json(json.loads(dumped))
    assert json.dumps(back.to_json()) == dumped


def test_frame_closure_contains_word_images():
    import random
    from cgf.sampling import random_frame
    Z3 = ModularRing(3)
    table = enumerate_orbits(Z3, "frame", FAMILY_SP, 4, frame_rows=2,
                             budget=10 ** 6)
    rng = random.Random(3)
    for _ in range(10):
        fr, _ = random_frame(rng, Z3, "sp", 1, 2, 5)
        key = tuple(tuple(v.payload for v in row) for row in fr.mat.entries)
        assert key in table.orbit_of


def test_orth_frame_closure_contains_word_images():
    import random
    from cgf.sampling import random_frame
    from cgf.words import FAMILY_ORTH
    Z3 = ModularRing(3)
    table = enumerate_orbits(Z3, "frame", FAMILY_ORTH, 4, frame_rows=2,
                             budget=10 ** 6)
    rng = random.Random(5)
    for _ in range(8):
        fr, _ = random_frame(rng, Z3, "orth", 1, 2, 4)
        key = tuple(tuple(v.payload for v in row) for row in fr.mat.entries)
        assert key in table.orbit_of


def test_budget_guard():
    Z5 = PrimeField(5)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_orbits(Z5, "row", FAMILY_LIN, 3, budget=10)


def test_large_ring_tables_meet_their_budget_quickly():
    # the codec's rank rows are built only for the values the BFS meets:
    # q x q tables over Z/10007 would take seconds before the budget
    # check, so the calls run in a thread with a deadline
    ring = ModularRing(10007)
    results = []

    def run():
        try:
            enumerate_orbits(ring, "frame", FAMILY_LIN, 2, frame_rows=1,
                             budget=1000)
        except SearchBudgetExceeded as e:
            results.append(e)
        # no orthogonal generator exists at size 2
        results.append(enumerate_orbits(ring, "frame", FAMILY_ORTH, 2,
                                        frame_rows=1))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and len(results) == 2
    assert isinstance(results[0], SearchBudgetExceeded)
    assert results[1].orbit_of == {((1, 0),): 0}


def test_a_huge_row_size_meets_its_budget_quickly():
    # 2^(10^30) is never formed: the budget check multiplies by q until the
    # product passes the budget
    got = within(10, lambda: enumerate_orbits(
        ModularRing(2), "row", FAMILY_LIN, 10 ** 30, budget=10 ** 5))
    assert isinstance(got, SearchBudgetExceeded)
    assert got.message == f"2^{10 ** 30} objects exceed budget 100000"


def test_zero_ring_rows_of_a_large_size_answer_quickly():
    # Z/1 has no nonzero parameter, so the catalog is empty without its
    # size^2 (i, j) loop; the one row of zeros is its own orbit
    got = within(10, lambda: enumerate_orbits(
        ModularRing(1), "row", FAMILY_LIN, 10 ** 5, budget=10 ** 5))
    assert isinstance(got, OrbitTable)
    assert got.orbit_of == {(0,) * 10 ** 5: 0}
    assert oracle.generator_catalog(ModularRing(1), FAMILY_SP, 10 ** 5) == []


@pytest.mark.parametrize("kind, size, frame_rows, budget", [
    ("row", 10 ** 10, 0, 10 ** 7), ("row", 10 ** 20, 0, 10 ** 7),
    ("frame", 2 * 10 ** 7, 1, 10 ** 7), ("frame", 10 ** 5, 2, 10 ** 5)])
def test_a_zero_ring_object_longer_than_the_budget_is_refused(
        kind, size, frame_rows, budget):
    # over Z/1 every table is one object, so the count of objects bounds
    # nothing: an object of more entries than the budget is refused before
    # its row, catalog or frame is built
    got = within(10, lambda: enumerate_orbits(
        ModularRing(1), kind, FAMILY_LIN, size, frame_rows=frame_rows,
        budget=budget))
    entries = size * max(frame_rows, 1)
    assert isinstance(got, SearchBudgetExceeded)
    assert got.message == (f"an object of {entries} entries exceeds budget "
                           f"{budget}")


@pytest.mark.parametrize("family", [FAMILY_LIN, FAMILY_SP])
def test_a_long_zero_ring_frame_answers_with_one_object(family):
    # the standard frame is built as its rows, not as a size x size
    # identity
    got = within(10, lambda: enumerate_orbits(
        ModularRing(1), "frame", family, 10 ** 5, frame_rows=2))
    assert isinstance(got, OrbitTable)
    assert got.orbit_of == {((0,) * 10 ** 5,) * 2: 0}


@pytest.mark.parametrize("ring, family, size", [
    (ModularRing(4), FAMILY_LIN, 3000), (ModularRing(4), FAMILY_LIN, 300),
    (PrimeField(5), FAMILY_LIN, 3000), (PrimeField(5), FAMILY_SP, 3000),
    (PrimeField(5), FAMILY_ORTH, 3000)])
def test_an_oversized_frame_table_is_refused_before_its_catalog(ring, family,
                                                                size):
    # the catalog alone would hold size^2 (q - 1) generators; the orbit's
    # lower bound passes the budget first, with the BFS's own message
    got = within(10, lambda: enumerate_orbits(ring, "frame", family, size,
                                              frame_rows=1))
    assert isinstance(got, SearchBudgetExceeded)
    assert got.message == "orbit table exceeded budget 10000000"


def test_the_frame_refusal_keeps_the_error_order():
    # a bad frame_rows, then an odd paired size, then orth without 1/2
    # (over Z/4), each at a size whose table would pass the budget
    for call, error in (
            (lambda: enumerate_orbits(ModularRing(4), "frame", FAMILY_LIN,
                                      3000, frame_rows=0), ObjectOutOfDomain),
            (lambda: enumerate_orbits(PrimeField(5), "frame", FAMILY_SP, 3001,
                                      frame_rows=1), BadIndices),
            (lambda: enumerate_orbits(ModularRing(4), "frame", FAMILY_ORTH,
                                      3000, frame_rows=1),
             HalfNotInvertible)):
        assert type(within(10, call)) is error
    # a bound of one object never refuses, as the BFS never refuses the
    # standard frame alone: no orth generator exists at size 2
    table = enumerate_orbits(PrimeField(3), "frame", FAMILY_ORTH, 2,
                             frame_rows=1, budget=0)
    assert table.orbit_of == {((1, 0),): 0}
    # the orbit holds all 15 unimodular rows, at least 2^(1·3) = 8: its
    # count refuses a budget of 7 and one of 8, with the BFS's message
    with pytest.raises(SearchBudgetExceeded, match="exceeded budget 7$"):
        enumerate_orbits(ModularRing(2), "frame", FAMILY_LIN, 4,
                         frame_rows=1, budget=7)
    with pytest.raises(SearchBudgetExceeded, match="exceeded budget 8$"):
        enumerate_orbits(ModularRing(2), "frame", FAMILY_LIN, 4,
                         frame_rows=1, budget=8)


def test_the_frame_bound_never_exceeds_the_table_size():
    checked = tight = 0
    for ring in (ModularRing(2), PrimeField(3), ModularRing(3),
                 ModularRing(4), PrimeField(5)):
        q = ring.cardinality()
        for family in (FAMILY_LIN, FAMILY_SP, FAMILY_ORTH):
            for size in range(2, 6):
                if family != FAMILY_LIN and size % 2:
                    continue
                for rows in range(1, size + 1):
                    bound = q ** oracle._frame_orbit_exponent(
                        ring, family, size, rows)
                    try:
                        table = enumerate_orbits(ring, "frame", family, size,
                                                 frame_rows=rows, budget=1000)
                    except (SearchBudgetExceeded, HalfNotInvertible):
                        continue
                    assert bound <= len(table.orbit_of), (ring, family, size,
                                                          rows)
                    checked += 1
                    tight += bound == len(table.orbit_of)
    assert checked == 67 and tight == 10


def test_the_lin_frame_bound_holds_on_every_lin_table_built():
    # q^(r(s - 1)) frames at least on every lin frame table the tests
    # build, also on those past the sweep's budget of 1000: Z/4 2 x 3
    # (256 <= 2,688), F_4 2 x 3 (256 <= 3,780) and F_3 3 x 3 (729 <= 5,616)
    checked = 0
    for (ring, family, size, rows), count in _FRAME_SIZES.items():
        if family != FAMILY_LIN:
            continue
        table = _bounded_table(ring, "frame", family, size, rows)
        k = oracle._frame_orbit_exponent(ring, family, size, rows)
        assert k == rows * (size - 1)
        assert ring.cardinality() ** k <= len(table.orbit_of) == count
        checked += 1
    assert checked == 5


def _um3_z4():
    return enumerate_orbits(ModularRing(4), "row", FAMILY_LIN, 3)


def _entry(obj, v):
    return next(e for e in obj["objects"] if e["v"] == v)


def _tamper_orbit(obj):
    # [3,2,1] leaves the orbit of its parent; its children's links now
    # leave its orbit too
    _entry(obj, [3, 2, 1])["orbit"] = 1
    return "orbit table link fails its check", _children(obj, [3, 2, 1])


def _tamper_param(obj):
    _entry(obj, [3, 2, 1])["pred"][1]["param"] += 1
    return "orbit table link fails its check", [[3, 2, 1]]


def _tamper_root(obj):
    # the representative takes the link of another object
    _entry(obj, [1, 0, 0])["pred"] = _entry(obj, [3, 2, 1])["pred"]
    return "orbit table link fails its check", [[1, 0, 0]]


def _tamper_unlinked(obj):
    # a second object without a link claims the same orbit id
    _entry(obj, [3, 2, 1])["pred"] = None
    return "orbit table needs one representative per orbit id", [[3, 2, 1]]


def _tamper_cycle(obj):
    # x's parent p gets x as its parent, through the inverse generator:
    # both links are generator steps inside the orbit, but the chains
    # through them never reach the representative
    x = (3, 2, 1)
    parent, g = OrbitTable.from_json(obj).pred[x]
    assert _entry(obj, list(parent))["pred"] is not None
    _entry(obj, list(parent))["pred"] = [list(x), g.inverse().to_json()]
    return "orbit table links form a cycle", [list(x), list(parent)]


def _tamper_short_root(obj):
    # a key one entry short, as a new representative: with codes it would
    # share the code of [0, 1, 0]
    obj["objects"].append({"v": [1, 0], "orbit": 1, "pred": None})
    return "orbit table object has the wrong shape", [[1, 0]]


def _tamper_short_link(obj):
    # the short key takes the orbit and the link of [0, 1, 0]
    twin = _entry(obj, [0, 1, 0])
    obj["objects"].append({"v": [1, 0], "orbit": twin["orbit"],
                           "pred": twin["pred"]})
    return "orbit table object has the wrong shape", [[1, 0]]


def _children(obj, v):
    return [v] + [e["v"] for e in obj["objects"]
                  if e["pred"] is not None and e["pred"][0] == v]


@pytest.mark.parametrize("tamper", [_tamper_orbit, _tamper_param,
                                    _tamper_root, _tamper_unlinked,
                                    _tamper_cycle, _tamper_short_root,
                                    _tamper_short_link])
def test_cached_table_links_are_checked(tamper):
    obj = json.loads(json.dumps(_um3_z4().to_json()))
    back = OrbitTable.from_json(obj)
    assert certify_equivalence((1, 0, 0), (3, 2, 1), back) is not None
    message, named = tamper(obj)
    with pytest.raises(WitnessCheckFailed) as info:
        OrbitTable.from_json(obj)
    assert info.value.message == message
    assert info.value.context["object"] in named


def test_cached_frame_table_links_are_checked():
    table = enumerate_orbits(ModularRing(3), "frame", FAMILY_SP, 4,
                             frame_rows=2, budget=10 ** 6)
    obj = json.loads(json.dumps(table.to_json()))
    back = OrbitTable.from_json(obj)
    assert (back.orbit_of, back.reps) == (table.orbit_of, table.reps)
    last = obj["objects"][-1]
    last["pred"][1]["param"] = 3 - last["pred"][1]["param"]
    with pytest.raises(WitnessCheckFailed) as info:
        OrbitTable.from_json(obj)
    assert info.value.context == {"object": last["v"]}


def test_table_json_round_trip():
    Z2 = ModularRing(2)
    table = enumerate_orbits(Z2, "row", FAMILY_LIN, 2)
    back = OrbitTable.from_json(table.to_json())
    assert back.orbit_of == table.orbit_of
    assert back.orbit_count() == table.orbit_count()
    w = certify_equivalence((0, 1), (1, 0), back)
    assert w is not None


def test_a_table_builds_one_codec(monkeypatch):
    # O_4(F_3) has three orbits on its rows: loading the table and two
    # answers build one codec, and of them only the closure check before
    # "not equivalent" builds the state that expands codes
    obj = enumerate_orbits(PrimeField(3), "row", FAMILY_ORTH, 4).to_json()
    built = []

    class Counted(oracle._Codec):
        def __init__(self, table):
            built.append(table)
            super().__init__(table)

    monkeypatch.setattr(oracle, "_Codec", Counted)
    table = OrbitTable.from_json(obj)
    assert certify_equivalence((1, 0, 0, 0), (0, 1, 0, 0), table) is not None
    assert "_arith" not in vars(table._codec)
    assert certify_equivalence((1, 0, 0, 0), (1, 1, 0, 0), table) is None
    assert built == [table] and "_arith" in vars(table._codec)
    # the codec is no field: equality and the table bytes ignore it
    assert table.to_json() == obj
    bare = OrbitTable(table.ring, table.kind, table.family, table.size,
                      table.frame_rows, dict(table.orbit_of), list(table.reps),
                      dict(table.pred))
    assert bare._codec is not table._codec and bare == table


def test_payload_keys_are_checked_and_the_views_are_read_only():
    table = _um3_z4()
    with pytest.raises(TypeError):
        table.orbit_of[(1, 0, 0)] = 1
    with pytest.raises(TypeError):
        table.pred[(1, 0, 0)] = None
    assert isinstance(table.reps, tuple)
    # a key one entry short, or with an entry that is no element of Z/4,
    # has no code
    for key in ((1, 0), (4, 0, 0), [1, 0, 0]):
        with pytest.raises(ObjectOutOfDomain,
                           match="is not an object of the table$"):
            OrbitTable(table.ring, "row", FAMILY_LIN, 3, 0, None, [key])
        with pytest.raises(ObjectOutOfDomain, match="is not in the table$"):
            table.path_word(key)
    # a frame table asked about a row, or about rows that are not tuples
    frames = enumerate_orbits(ModularRing(3), "frame", FAMILY_SP, 4,
                              frame_rows=2)
    standard = frames.reps[0]
    for key in ((1, 0, 0, 0), (1, 0), tuple(map(list, standard))):
        with pytest.raises(ObjectOutOfDomain, match="table's domain$"):
            certify_equivalence(key, standard, frames)


# the orth frame table of size 2, one row, over Z/100003: one object, the
# representative, so no link to check
_LINKLESS = {"version": 1, "ring": {"kind": "mod", "n": 100003},
             "kind": "frame", "family": FAMILY_ORTH, "size": 2,
             "frame_rows": 1,
             "objects": [{"v": [[1, 0]], "orbit": 0, "pred": None}]}


def _refuse(*args):
    raise AssertionError("refused call")


def test_loading_a_table_without_links_ranks_no_element(monkeypatch):
    # an element's rank is in closed form: over Z/100003 it is the
    # payload, and over F_101[x]/(x^3) and F_101[x]/(x^4), of about 10^6
    # and 10^8 elements, the padded coefficients read as base-101 digits,
    # so the load lists no element, nor builds the state that expands codes
    monkeypatch.setattr(ModularRing, "elements", _refuse)
    monkeypatch.setattr(_PolyRemainders, "elements", _refuse)
    table = within(0.05, lambda: OrbitTable.from_json(_LINKLESS))
    assert table.reps == (((1, 0),),) and "_arith" not in vars(table._codec)
    assert table.to_json() == _LINKLESS
    for e in (3, 4):
        # the lin frame table of size 1 over F_101[x]/(x^e): one object
        obj = dict(_LINKLESS, ring={"kind": "polyloc", "p": 101, "e": e},
                   family=FAMILY_LIN, size=1,
                   objects=[{"v": [[[1]]], "orbit": 0, "pred": None}])
        table = within(0.05, lambda: OrbitTable.from_json(obj))
        assert table.reps == ((((1,),),),)
        assert "_arith" not in vars(table._codec) and table.to_json() == obj


def test_a_load_over_an_extension_of_a_large_prime_field_sorts_nothing(
        monkeypatch):
    # over F_100003[x]/(x^2+1), a field of about 10^10 elements, the
    # remainders' digits are the coefficients' own residues, so a load lists
    # and sorts none of the 100003 coefficients (65-130 ms while it sorted
    # them, well under 1 ms without); the bytes and the order are the same
    monkeypatch.setattr(ModularRing, "elements", _refuse)
    ring = {"kind": "quot", "gens": [[1, 0, 1]], "base": {
        "kind": "poly", "base": {"kind": "prime", "p": 100003}, "var": "x"}}
    obj = dict(_LINKLESS, ring=ring, family=FAMILY_LIN, size=1,
               objects=[{"v": [[[2, 5]]], "orbit": 0, "pred": None}])
    table = within(0.02, lambda: OrbitTable.from_json(obj))
    assert table.reps == ((((2, 5),),),) and table.to_json() == obj
    field = table.ring
    rng = random.Random(83)
    payloads = {()} | {field.canon((rng.randrange(100003),) * k + (
        rng.randrange(1, 100003),)) for k in (0, 1) for _ in range(200)}
    ordered = sorted(payloads, key=lambda p: ref.sort_key(field, p))
    ranks = [field.rank(p) for p in ordered]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
    assert [field.unrank(r) for r in ranks] == ordered


def test_loads_and_equivalence_answers_expand_no_code(monkeypatch):
    # the link check and the path check act on payload rows through the
    # shared kernel, so only the BFS and the closure check expand codes
    frames = enumerate_orbits(PrimeField(3), "frame", FAMILY_SP, 4,
                              frame_rows=2, budget=2160)
    cases = [(_um3_z4().to_json(), (1, 0, 0), (3, 2, 1)),
             (frames.to_json(), frames.reps[0], max(frames.orbit_of))]
    monkeypatch.setattr(oracle._Codec, "_arith", property(_refuse))
    for obj, v1, v2 in cases:
        table = OrbitTable.from_json(obj)
        word = certify_equivalence(v1, v2, table)
        assert ref.act_rows(table.ring, [v1] if table.kind == "row" else v1,
                            word.gens) == ([v2] if table.kind == "row"
                                           else list(v2))


def test_loading_a_table_over_an_infinite_ring_is_refused():
    # codes need a finite ring: refused after the header, as orbits
    # refuses it, before any object is read (here they are not a list)
    obj = dict(_LINKLESS, ring={"kind": "int"}, objects=None)
    with pytest.raises(UnsupportedRing,
                       match="^orbit enumeration needs a finite ring$"):
        OrbitTable.from_json(obj)
    with pytest.raises(BadIndices):
        OrbitTable.from_json(dict(obj, size=3))


@pytest.mark.parametrize("family", [FAMILY_SP, FAMILY_ORTH])
@pytest.mark.parametrize("size", [1, 3])
def test_loading_an_odd_paired_table_is_refused(family, size):
    # refused as enumerate_orbits refuses it, before any object is read
    # (the objects here are not even a list)
    obj = dict(_LINKLESS, family=family, size=size, objects=None)
    with pytest.raises(BadIndices, match=f"^{family} generators need even"):
        OrbitTable.from_json(obj)


# sha256 of json.dumps(table.to_json(), sort_keys=True), recorded before the
# generator action moved onto the shared payload kernel
GOLDEN_TABLES = [
    (ModularRing(4), "row", FAMILY_LIN, 3, 0,
     "8f25d19eef89d24418374de312b7f20f601d65bb978d519939ace85535077dae"),
    (PrimeField(3), "frame", FAMILY_SP, 4, 2,
     "aeee2a473e688844545ebb4b6a14e6c0a55b24dc624a21646a22fdbffff0e0ae"),
]


# the same digest, recorded before the generator action was compiled into
# payload triples
COMPILED_ACTION_GOLDEN_TABLES = [
    (ModularRing(6), "row", FAMILY_SP, 4, 0,
     "6afc56b52ac2b4d070796bcedb23f34089924697ecc8b4209d0016ac0f76172a"),
    (PrimeField(3), "row", FAMILY_ORTH, 4, 0,
     "d0c47dc33ccd2454d722af4f2c4742ce5414e65aa0482797840a08a7b405d092"),
    (TruncatedPolyLocal(2, 2), "row", FAMILY_LIN, 3, 0,
     "0c507967514f62cc1bf00bb920e7cfad91babf08e265f42570a2d911be157c94"),
    (ModularRing(4), "frame", FAMILY_SP, 4, 1,
     "ddc3081e31d07c4c85091eb735876229af8ae37bbd81b8ee44a02856df9a8352"),
]


# F_2[x]/(1 + x + x^2), whose sort key (len, payload) is not payload order
F4 = QuotientRing(PolyExt(PrimeField(2), "x"), [(1, 1, 1)])
# the quotient F_2[x]/(x^2), local but not a field
X2 = QuotientRing(PolyExt(PrimeField(2), "x"), [(0, 0, 1)])
# F_2[x]/((x + 1)^2), local with residue field F_2
X2_PLUS_1 = QuotientRing(PolyExt(PrimeField(2), "x"), [(1, 0, 1)])
# rings that are neither local nor a Z/m, which the library splits by trial
# division and the reference tests by brute force: F_2[x]/(x + x^2) =
# F_2 x F_2, F_3[x]/(x^2 - 1) = F_3 x F_3, and F_2[x]/(x^3 + x) =
# F_2[x]/(x) x F_2[x]/((x + 1)^2), whose parts are a field and a local ring
# that is none
F2xF2 = QuotientRing(PolyExt(PrimeField(2), "x"), [(0, 1, 1)])
F3xF3 = QuotientRing(PolyExt(PrimeField(3), "x"), [(2, 0, 1)])
X3_PLUS_X = QuotientRing(PolyExt(PrimeField(2), "x"), [(0, 1, 0, 1)])


# the same digest, recorded before the BFS ran on integer codes
CODED_GOLDEN_TABLES = [
    (F4, "row", FAMILY_LIN, 3, 0,
     "edd3a0cf00f5997a20979b61ea9acb2c3f0de89f7f527cd18355d6f9c8770f5e"),
    (F4, "frame", FAMILY_SP, 4, 1,
     "8348cc1887d2df20aac8f5fbc7ea5d496c52aa0ecd22744f7a57a36076cb6244"),
    (QuotientRing(IntegerRing(), [10]), "row", FAMILY_SP, 2, 0,
     "36cd2d5687223d43e263b6693f87272ff5553b88c84c06983e03d463460fe9e7"),
    (ModularRing(1), "row", FAMILY_LIN, 3, 0,
     "3569e2206f4b8483e18b39fdc26362517e1164a17d3fa03f593781c9df72cc53"),
    (TruncatedPolyLocal(2, 2), "frame", FAMILY_LIN, 2, 2,
     "6abf74788c754aabac5c6f262bcde1f24537701ca5d4ea38d77034837776d177"),
    (PrimeField(5), "frame", FAMILY_ORTH, 4, 1,
     "12af648c6c508f84411c7c5347bffd26533b2010de7162244b0311635be482bc"),
]


# the same digest, recorded before a polynomial quotient computed is_local
# and is_field (both were False)
QUOTIENT_FLAG_GOLDEN_TABLES = [
    (X2, "row", FAMILY_LIN, 3, 0,
     "132e1d32223534be43e8cdc4f2beeb13aeb30cf9da58238ed315d38b23b5a5ab"),
    (X2, "frame", FAMILY_SP, 4, 1,
     "05434e11067780d114b0259bb07f616254bfccb66e93a3475d43d2fb5188b573"),
    (F4, "frame", FAMILY_LIN, 3, 2,
     "57b68f47d2e70dbd3e69417b2d078040b833e957e025de1edb624a789f16fe07"),
]


# the same digest, recorded before the BFS expanded a node by runs of
# generators: the heaviest tables of the benchmark's oracle workload
RUN_GOLDEN_TABLES = [
    (PrimeField(7), "row", FAMILY_ORTH, 4, 0,
     "c57a3dc74e2748dd97b3990b7385803e63ac3f4ae59a9d732f298aedbcbec5fa"),
    (ModularRing(8), "row", FAMILY_LIN, 4, 0,
     "0a1e6aba00a616830cbcf75dadd3c6ca6424a8e9172a6b6bac65bc98a2e7a412"),
    (ModularRing(3), "frame", FAMILY_SP, 4, 2,
     "4c118eaeb261f9fd362cec8fbdd5d31b3e12e57eab8ca26cf2eeafc30b3458e6"),
    (ModularRing(23), "frame", FAMILY_SP, 2, 1,
     "78fd216636a526ae4c711c76bea25675d61c23c4b883298156d22da55e75f14e"),
]


# the same digest, recorded before a frame of several rows was expanded
# row by row: SL_3(F_3) and SL_3(F_2) as frames of three rows
ROW_GOLDEN_TABLES = [
    (PrimeField(3), "frame", FAMILY_LIN, 3, 3,
     "eda85f9e6841385126c3f5633ed82509a826af87c0440fa803854bf4e4fc22c7"),
    (ModularRing(2), "frame", FAMILY_LIN, 3, 3,
     "76ba84d2343390c88773c90f1fead7bb5de624145be3f428b0bcd35444c4fc4a"),
]


_GOLDEN = (GOLDEN_TABLES + COMPILED_ACTION_GOLDEN_TABLES + CODED_GOLDEN_TABLES
           + QUOTIENT_FLAG_GOLDEN_TABLES + RUN_GOLDEN_TABLES
           + ROW_GOLDEN_TABLES)


@pytest.mark.parametrize("ring, kind, family, size, frame_rows, digest",
                         _GOLDEN,
                         ids=["Um_3(Z/4)", "F_3 sp frames", "Z/6 sp rows",
                              "F_3 orth rows", "F_2[x]/(x^2) lin rows",
                              "Z/4 sp frames", "F_4 lin rows",
                              "F_4 sp frames", "Z/(10) sp rows",
                              "Z/1 lin rows", "F_2[x]/(x^2) lin frames",
                              "F_5 orth frames", "quotient x^2 lin rows",
                              "quotient x^2 sp frames", "F_4 lin frames",
                              "F_7 orth rows", "Z/8 lin rows",
                              "Z/3 sp 2-row frames", "Z/23 sp frames",
                              "F_3 lin 3-row frames",
                              "Z/2 lin 3-row frames"])
def test_table_bytes_match_golden(ring, kind, family, size, frame_rows,
                                  digest):
    table = _bounded_table(ring, kind, family, size, frame_rows)
    blob = json.dumps(table.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    # a load of the bytes dumps them again, and equals the table
    back = OrbitTable.from_json(json.loads(blob))
    assert json.dumps(back.to_json(), sort_keys=True).encode() == blob
    assert back == table


# the size of each frame table that a golden or differential test builds
_FRAME_SIZES = {
    (TruncatedPolyLocal(2, 2), FAMILY_LIN, 2, 2): 48,
    (ModularRing(4), FAMILY_SP, 4, 1): 240,
    (PrimeField(3), FAMILY_ORTH, 4, 2): 288,
    (ModularRing(1), FAMILY_SP, 4, 2): 1,
    (PrimeField(3), FAMILY_SP, 4, 2): 2160,
    (ModularRing(2), FAMILY_LIN, 3, 3): 168,
    (ModularRing(2), FAMILY_SP, 4, 3): 360,
    (F4, FAMILY_SP, 4, 1): 255,
    (PrimeField(5), FAMILY_ORTH, 4, 1): 144,
    (X2, FAMILY_SP, 4, 1): 240,
    (F4, FAMILY_LIN, 3, 2): 3780,
    (ModularRing(3), FAMILY_SP, 4, 2): 2160,
    (ModularRing(23), FAMILY_SP, 2, 1): 528,
    (PrimeField(3), FAMILY_LIN, 3, 3): 5616,
    # every frame of Z/4 lin 2 x 3 (tests/test_domains.py)
    (ModularRing(4), FAMILY_LIN, 3, 2): 2688,
}


# exact frame orbit sizes: lin, sp of one row and of whole hyperbolic
# pairs over a finite local ring, orth of one row over one with kappa odd,
# square orth over a finite field of odd order, and each over any finite
# ring as the product over its local parts
_COUNTED_RINGS = (ModularRing(2), PrimeField(3), ModularRing(3),
                  ModularRing(4), ModularRing(8), ModularRing(9),
                  PrimeField(5), TruncatedPolyLocal(2, 2),
                  TruncatedPolyLocal(3, 2), F4, X2, PrimeField(7),
                  ModularRing(6), ModularRing(10), ModularRing(15), F2xF2,
                  F3xF3, X3_PLUS_X)


def _frame_shapes():
    """(family, size, frame_rows) of every lin frame with s <= 4, every
    sp frame of one row or of whole pairs with s <= 6, the orth frames of
    one row with s = 4 and 6 and the square orth frame of 4."""
    for size in range(1, 5):
        for rows in range(1, size + 1):
            yield FAMILY_LIN, size, rows
    for size in (2, 4, 6):
        for rows in [1, *range(2, size + 1, 2)]:
            yield FAMILY_SP, size, rows
    yield from ((FAMILY_ORTH, 4, 1), (FAMILY_ORTH, 6, 1), (FAMILY_ORTH, 4, 4))


def _built_without_count(monkeypatch, ring, family, size, rows, budget):
    # the full BFS of a frame table: with its count withheld nothing stops
    # the BFS early, so a count too small, used as the budget, meets the
    # BFS's refusal instead of cutting the table short
    with monkeypatch.context() as m:
        m.setattr(oracle, "_frame_orbit_count", lambda *args: None)
        return enumerate_orbits(ring, "frame", family, size, frame_rows=rows,
                                budget=budget)


def test_the_frame_counts_match_the_tables(monkeypatch):
    # each count against orbit_sizes() on the 184 counted tables of at most
    # 10,000 frames, each built with the count withheld at a budget of
    # exactly its count (a count too small would meet the BFS's refusal),
    # and refused by the count one below it;
    # among them Z/4 lin 2 x 3 (2,688), F_2[x]/(x^2) lin 2 x 2 (48), F_3 sp
    # 2 x 4 (2,160), sp 2 x 2 over Z/4 and the quotient F_2[x]/(x^2) (48)
    # and over Z/9 (648), the square orth frames of 4 over F_3 and Z/3 (288)
    # and F_5 (7,200), the orth frames of one row of 4 over Z/15 (4,608),
    # and the other counted tables of _FRAME_SIZES, and over the rings that
    # are neither local nor a Z/m, F_2 x F_2 lin 2 x 3 (1,764)
    checked = Counter()
    for ring in _COUNTED_RINGS:
        for family, size, rows in _frame_shapes():
            count = oracle._frame_orbit_count(ring, family, size, rows,
                                              10 ** 12)
            if count is None:  # orth over a ring without 1/2, or square
                # orth over a ring that is no product of fields
                assert family == FAMILY_ORTH, ring
                assert ring.cardinality() % 2 == 0 or ring == ModularRing(9) \
                    or ring == TruncatedPolyLocal(3, 2), ring
                continue
            if count > 10000:
                continue
            table = _built_without_count(monkeypatch, ring, family, size,
                                         rows, count)
            assert table.orbit_sizes() == [count], (ring, family, size, rows)
            if count >= 2:
                with pytest.raises(SearchBudgetExceeded,
                                   match=f"exceeded budget {count - 1}$"):
                    enumerate_orbits(ring, "frame", family, size,
                                     frame_rows=rows, budget=count - 1)
            checked[family] += 1
    assert checked == {FAMILY_LIN: 104, FAMILY_SP: 66, FAMILY_ORTH: 14}


@pytest.mark.parametrize("ring, family, size, rows", [
    (F3xF3, FAMILY_LIN, 3, 2), (F2xF2, FAMILY_LIN, 3, 2),
    (F2xF2, FAMILY_LIN, 2, 2), (F3xF3, FAMILY_SP, 4, 2),
    (F2xF2, FAMILY_SP, 4, 1), (PrimeField(3), FAMILY_ORTH, 4, 2),
    (ModularRing(3), FAMILY_SP, 4, 3), (ModularRing(9), FAMILY_ORTH, 4, 4)])
def test_a_frame_with_no_proven_count_keeps_its_lower_bound(
        monkeypatch, ring, family, size, rows):
    # odd sp frames, orth frames of two rows, and square orth frames over a
    # local ring that is no field have no count; over the rings that are
    # neither local nor a Z/m the count, proven as a product over the local
    # parts, is withheld.  Either way the lower bound q^e is at most the
    # count and refuses the table one below it before its catalog exists
    count = oracle._frame_orbit_count(ring, family, size, rows, 10 ** 7)
    bound = ring.cardinality() ** oracle._frame_orbit_exponent(
        ring, family, size, rows)
    if ring in (F2xF2, F3xF3):
        assert 2 <= bound <= count, count
    else:
        assert count is None
    with monkeypatch.context() as m:
        m.setattr(oracle, "_frame_orbit_count", lambda *args: None)
        m.setattr(oracle, "generator_catalog", lambda *args: pytest.fail(
            "catalog built for a table past its lower bound"))
        with pytest.raises(SearchBudgetExceeded,
                           match=f"exceeded budget {bound - 1}$"):
            enumerate_orbits(ring, "frame", family, size, frame_rows=rows,
                             budget=bound - 1)


@pytest.mark.parametrize("ring, family", [
    (PrimeField(5), FAMILY_SP), (ModularRing(4), FAMILY_LIN),
    (PrimeField(3), FAMILY_LIN)])
def test_a_huge_frame_count_is_capped_quickly(ring, family):
    # neither kappa^(s^2) nor a product of s factors is formed: the count
    # passes the cap within a few factors
    size = 10 ** 30
    got = within(1, lambda: oracle._frame_orbit_count(ring, family, size,
                                                      size, 10 ** 7))
    assert 10 ** 7 < got < 10 ** 7 * ring.cardinality() ** 2


@pytest.mark.parametrize("budget", [2 ** 10 - 2, 2 ** 10 - 1, 2 ** 10])
def test_a_count_one_below_a_power_passes_its_cap(budget):
    # Z/2 lin 1 x 40 has 2^40 - 1 frames, one factor that the cap cuts
    # off at the first power of 2 past it: 2^10 - 1 must still pass 2^10 - 1
    assert oracle._frame_orbit_count(ModularRing(2), FAMILY_LIN, 40, 1,
                                     budget) > budget


@pytest.mark.parametrize("family, size", [(FAMILY_LIN, 4), (FAMILY_SP, 6)])
def test_a_full_frame_over_f3_is_refused_by_its_count(family, size):
    # SL_4(F_3) has 12,130,560 elements and Sp_6(F_3) 9,170,703,360, both
    # past the default budget, which the BFS would meet only after holding
    # 10^7 frames; the lower bounds (3^12 and 3) admit both
    got = within(2, lambda: enumerate_orbits(PrimeField(3), "frame", family,
                                             size, frame_rows=size))
    assert isinstance(got, SearchBudgetExceeded)
    assert got.message == "orbit table exceeded budget 10000000"
    assert oracle._frame_orbit_count(PrimeField(3), family, size, size,
                                     10 ** 12) == {
        FAMILY_LIN: 12130560, FAMILY_SP: 9170703360}[family]


@pytest.mark.parametrize("ring, size, count", [
    (PrimeField(3), 4, 288), (PrimeField(5), 4, 7200),
    (PrimeField(3), 6, 6065280), (PrimeField(5), 6, 14508000000)])
def test_a_square_orth_frame_count_passes_exactly_the_caps_below_it(
        ring, size, count):
    # |EO_2m(F_q)| = q^(m(m-1)) (q^m - 1) prod_{0<i<m} (q^(2i) - 1) / 2: at
    # every cap near the count, and at every cap up to 400, the count
    # passes the cap exactly when the exact count does
    caps = {*range(1, 400), count - 1, count, count + 1, count // 2,
            2 * count}
    for cap in caps:
        got = oracle._frame_orbit_count(ring, FAMILY_ORTH, size, size, cap)
        assert (got > cap) is (count > cap), cap
        if count <= cap:
            assert got == count


def test_a_square_orth_frame_over_f5_is_refused_by_its_count():
    # EO_6(F_5) holds about 1.45 * 10^10 frames, past the default budget;
    # the lower bound, 5, admits it, and the BFS would run for minutes.
    # EO_6(F_3), 6,065,280 frames, is within the budget and still admitted
    got = within(2, lambda: enumerate_orbits(PrimeField(5), "frame",
                                             FAMILY_ORTH, 6, frame_rows=6))
    assert isinstance(got, SearchBudgetExceeded)
    assert got.message == "orbit table exceeded budget 10000000"
    assert oracle._frame_orbit_count(PrimeField(3), FAMILY_ORTH, 6, 6,
                                     10 ** 7) == 6065280


@pytest.mark.parametrize("ring, size, count", [
    (X2_PLUS_1, 2, 48), (ModularRing(4), 4, 15360), (X2, 4, 15360),
    (X2_PLUS_1, 4, 15360)])
def test_an_sp_count_over_a_local_ring_matches_its_table(monkeypatch, ring,
                                                         size, count):
    # (q/kappa)^(m(2m+1) - (m-k)(2m-2k+1)) times the count over kappa = 2;
    # the table, built with the count withheld at a budget of exactly the
    # count, holds that many
    assert oracle._frame_orbit_count(ring, FAMILY_SP, size, 2,
                                     10 ** 12) == count
    table = _built_without_count(monkeypatch, ring, FAMILY_SP, size, 2, count)
    assert table.orbit_sizes() == [count]


def test_an_sp_frame_over_z9_is_refused_by_its_count():
    # Z/9 sp 2 x 6 holds 3^11 * 3^5 (3^6 - 1), about 3.13 * 10^10 frames;
    # the lower bound, 9^4, admits it, and the BFS would run for minutes
    got = within(2, lambda: enumerate_orbits(ModularRing(9), "frame",
                                             FAMILY_SP, 6, frame_rows=2))
    assert isinstance(got, SearchBudgetExceeded)
    assert got.message == "orbit table exceeded budget 10000000"
    assert oracle._frame_orbit_count(ModularRing(9), FAMILY_SP, 6, 2,
                                     10 ** 12) == 31338012888


def _bounded_table(ring, kind, family, size, frame_rows):
    # the table, with its budget at its known size, so that a codec defect
    # whose codes leave the orbit raises SearchBudgetExceeded instead of
    # running on: a row table holds at most its domain, q^size, the least
    # budget the row guard accepts, and a frame table its recorded size.
    # Over the zero ring an object of more entries than the budget is
    # refused, so there the least budget is the object's entry count.
    budget = (ring.cardinality() ** size if kind == "row" else
              _FRAME_SIZES[ring, family, size, frame_rows])
    budget = max(budget, size * max(frame_rows, 1))
    return enumerate_orbits(ring, kind, family, size, frame_rows=frame_rows,
                            budget=budget)


def _act_ref(table, key, g):
    # reference action: the reference kernel's row action on one
    # generator, a row key acting as a one-row frame
    rows = [key] if table.kind == "row" else key
    out = ref.act_rows(table.ring, rows, (g,))
    return out[0] if table.kind == "row" else tuple(out)


_COMPILED_ACTION_CASES = [
    (ModularRing(6), "row", FAMILY_SP, 2, 0),
    (ModularRing(4), "row", FAMILY_LIN, 3, 0),
    (PrimeField(3), "row", FAMILY_ORTH, 4, 0),
    (TruncatedPolyLocal(2, 2), "row", FAMILY_SP, 4, 0),
    (TruncatedPolyLocal(2, 2), "frame", FAMILY_LIN, 2, 2),
    (ModularRing(4), "frame", FAMILY_SP, 4, 1),
    (PrimeField(3), "frame", FAMILY_ORTH, 4, 2),
]
# three rows: each image sums three rows' deltas (last in each list, so
# the earlier cases keep their ids)
_THREE_ROWS = (ModularRing(2), "frame", FAMILY_SP, 4, 3)


@pytest.mark.parametrize("ring, kind, family, size, frame_rows",
                         _COMPILED_ACTION_CASES + [_THREE_ROWS])
def test_compiled_action_matches_apply_gens(ring, kind, family, size,
                                            frame_rows):
    # every catalog generator, expanded alone, on every object of the
    # table, which counts as reached: the coded expansion links and lists
    # the reference kernel's image, and nothing when that image is the
    # object itself, as it is when every source entry of every row is zero
    table = _bounded_table(ring, kind, family, size, frame_rows)
    codec = oracle._Codec(table)
    zero = ring.zero().payload
    rows_of = (lambda k: [k]) if kind == "row" else list
    for g in oracle.generator_catalog(ring, family, size):
        expand = codec.expander([g])
        for key in table.orbit_of:
            code, image = codec.encode(key), _act_ref(table, key, g)
            link, fresh = {code: None}, []
            expand(code, link, fresh)
            got = {new: link[new] for new in fresh}
            assert len(link) == 1 + len(fresh) == 1 + len(got)
            assert got == ({} if image == key else
                           {codec.encode(image): (code, g)})
            if all(row[s - 1] == zero for row in rows_of(key)
                   for s, _, _ in ref.generator_entries(g)):
                assert got == {}


def _check_expansion(table, keys):
    # the grouped expansion of each object against one reference kernel
    # step under each catalog generator in catalog order: the same
    # proposals, linked and listed in the same order, with what is seen or
    # already proposed left alone.  Every third object counts as seen, and
    # each expansion starts from one proposal already made.  Returns how
    # many (object, generator) pairs had a zero source in some update and a
    # nonzero one in another, and whether any generator has several
    # updates.  A generator compiles on one row and acts on each row of a
    # frame alike, so its updates on a frame are those of every row.
    codec = oracle._Codec(table)
    gens = oracle.generator_catalog(table.ring, table.family, table.size)
    compiled = [(g, codec.compile(g)) for g in gens]
    expand = codec.expander(gens)
    codes = [codec.encode(k) for k in keys]
    zero = codec.rank(table.ring.zero().payload)
    seen = set(codes[::3])
    partial = 0
    for n, code in enumerate(codes):
        was_seen = code in seen
        seen.add(code)
        rows = [oracle._split(row, codec.q, codec.width) for row in
                oracle._split(code, codec.q ** codec.width, codec.rows)]
        earlier = codes[(n + 1) % len(codes)]
        want = {earlier: "earlier"}
        for g, updates in compiled:
            new = codec.encode(_act_ref(table, keys[n], g))
            if new not in seen and new not in want:
                want[new] = (code, g)
            live = {ds[s] != zero for ds in rows
                    for s, _, _, _ in updates}
            partial += live == {True, False}
        link = dict.fromkeys(seen, "seen")
        link[earlier] = "earlier"
        before, fresh = dict(link), []
        expand(code, link, fresh)
        got = [(earlier, "earlier")] + [(new, link[new]) for new in fresh]
        assert got == list(want.items()), keys[n]
        assert link == {**before, **want, earlier: before[earlier]}
        if not was_seen:
            seen.discard(code)
    return partial, any(len(updates) * codec.rows > 1
                        for _, updates in compiled)


@pytest.mark.parametrize("ring, kind, family, size, frame_rows",
                         _COMPILED_ACTION_CASES + [
                             (ModularRing(1), "row", FAMILY_LIN, 3, 0),
                             (ModularRing(1), "frame", FAMILY_SP, 4, 2),
                             _THREE_ROWS])
def test_grouped_expansion_matches_step(ring, kind, family, size, frame_rows):
    table = _bounded_table(ring, kind, family, size, frame_rows)
    partial, several = _check_expansion(table, list(table.orbit_of))
    # a run of several updates (a paired family, or a frame of several
    # rows) meets objects where only some of them have a nonzero source
    assert partial > 0 if several else partial == 0


def test_grouped_expansion_matches_step_over_a_large_ring():
    # Z/10007: 10006 generators to a run, on frames whose catalog no table
    # could hold, with zero and nonzero sources in one run
    ring = ModularRing(10007)
    for family, frame_rows, keys in [
            (FAMILY_LIN, 2, [((1, 0), (0, 1)), ((0, 5), (3, 0)),
                             ((2, 10006), (1, 1))]),
            (FAMILY_SP, 1, [((1, 0),), ((0, 1),), ((5, 9),)])]:
        table = OrbitTable(ring, "frame", family, 2, frame_rows)
        partial, several = _check_expansion(table, keys)
        assert several == (frame_rows > 1) and (partial > 0) == several


@pytest.mark.parametrize("ring, family, keys", [
    (PrimeField(3), FAMILY_SP,
     [((1, 2, 0, 0), (0, 1, 0, 0)), ((1, 2, 0, 0), (0, 0, 2, 1)),
      ((0, 0, 1, 1), (1, 2, 0, 0))]),
    (ModularRing(2), FAMILY_SP,
     [((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 1)),
      ((1, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)),
      ((0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 0)),
      ((0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 1, 0))])])
def test_frames_that_share_a_row_expand_alike(ring, family, keys):
    # one expander memoizes a row's deltas per (row position, row code):
    # the second frame shares its first row with the first frame, in the
    # same position, and reuses its deltas; the later frames hold that row
    # in another position and must get deltas scaled to it
    table = OrbitTable(ring, "frame", family, 4, len(keys[0]))
    partial, several = _check_expansion(table, keys)
    assert several and partial > 0


def test_a_frame_builds_each_row_once(monkeypatch):
    # the F_3 sp 2-row table's 2,160 frames hold 4,320 rows, 80 distinct
    # ones in each position: the BFS builds each (position, row)'s deltas
    # once, and the first read of the views splits each frame's code into
    # its rows once and each distinct row's code into its digits once
    built = []
    row_deltas = oracle._Codec.row_deltas
    monkeypatch.setattr(
        oracle._Codec, "row_deltas",
        lambda self, compiled, code, place: built.append((place, code))
        or row_deltas(self, compiled, code, place))
    table = _bounded_table(PrimeField(3), "frame", FAMILY_SP, 4, 2)
    split, bases = oracle._split, []
    monkeypatch.setattr(oracle, "_split", lambda code, base, count:
                        bases.append(base) or split(code, base, count))
    rows = {(r, row) for key in table.orbit_of for r, row in enumerate(key)}
    assert table.pred and table.reps
    assert len(built) == len(set(built)) <= len(rows) == 2 * 80
    assert bases.count(3 ** 4) == len(table.orbit_of) == 2160
    assert bases.count(3) == 80 and len(bases) == 2160 + 80


# F_2[x]/(1 + x + x^2) and Z/12/(6) are quotients whose payloads are
# tuples and residues of another ring's arithmetic
_KEY_ORDER_RINGS = [
    ModularRing(1), ModularRing(6), PrimeField(5), TruncatedPolyLocal(2, 2),
    F4, QuotientRing(IntegerRing(), [10]), QuotientRing(ModularRing(12), [6]),
]
_KEY_ORDER_IDS = ["Z/1", "Z/6", "F_5", "F_2[x]/(x^2)", "F_4", "Z/(10)",
                  "Z/12/(6)"]


def _key_order_ref(ring, kind, key):
    # reference: a key's order, the sort keys of its entries row by row
    rows = [key] if kind == "row" else key
    return tuple(tuple(ref.sort_key(ring, p) for p in row) for row in rows)


@pytest.mark.parametrize("ring", _KEY_ORDER_RINGS, ids=_KEY_ORDER_IDS)
def test_codes_preserve_key_order(monkeypatch, ring):
    # a row table and a frame table: decoding an encoded key gives it
    # back, and to_json writes the objects in key order from their codes
    # alone, ranking no element and listing none
    for kind, size, frame_rows in (("row", 2, 0), ("frame", 2, 2)):
        table = enumerate_orbits(ring, kind, FAMILY_LIN, size,
                                 frame_rows=frame_rows)
        codec, keys = table._codec, list(table.orbit_of)
        decode = codec.decoder()
        assert [decode(codec.encode(k)) for k in keys] == keys
        want = [[[ring.value_to_json(p) for p in row] for row in
                 ([k] if kind == "row" else k)] for k in
                sorted(keys, key=lambda k: _key_order_ref(ring, kind, k))]
        if kind == "row":
            want = [rows[0] for rows in want]
        with monkeypatch.context() as m:
            m.setattr(codec, "rank", _refuse)
            m.setattr(ring, "elements", _refuse)
            assert [e["v"] for e in table.to_json()["objects"]] == want


@functools.cache
def _bfs_closure_ref(ring, kind, family, size, frame_rows):
    # reference, cached for the tests that share it: the BFS that compared
    # every (parent, generator) proposal
    # of an object by (key order of the parent, generator position), from
    # the rows the boxed test finds unimodular or the standard frame; its
    # table by payload key, as (orbit_of, reps, pred).  Each key's order,
    # each generator's entries and each sum and product of two payloads in
    # the reference arithmetic are computed once
    order = functools.cache(lambda key: _key_order_ref(ring, kind, key))
    plus = functools.cache(functools.partial(ref.add, ring))
    times = functools.cache(functools.partial(ref.mul, ring))
    if kind == "row":
        elements = sorted(ring.elements(), key=lambda v: ref.sort_key(
            ring, v.payload))
        start_keys = [tuple(v.payload for v in combo) for combo in
                      itertools.product(elements, repeat=size)
                      if _is_unimodular_row_ref(ring, combo)]
    else:
        one, zero = ring.one().payload, ring.zero().payload
        start_keys = [tuple(tuple(one if c == r else zero
                                  for c in range(size))
                            for r in range(frame_rows))]
    gens = oracle.generator_catalog(ring, family, size)
    steps = [(gi, g, ref.generator_entries(g)) for gi, g in enumerate(gens)]
    orbit_of, reps, pred = {}, [], {}
    for root in start_keys:
        if root in orbit_of:
            continue
        oid = len(reps)
        reps.append(root)
        orbit_of[root] = oid
        pred[root] = None
        frontier = [root]
        while frontier:
            proposals = {}
            for node in frontier:
                rows, rank = [node] if kind == "row" else node, order(node)
                for gi, g, entries in steps:
                    new = ref.act_entries(rows, entries, plus, times)
                    new = new[0] if kind == "row" else tuple(new)
                    if new in orbit_of:
                        continue
                    cand = (rank, gi, node, g)
                    best = proposals.get(new)
                    if best is None or cand[:2] < best[:2]:
                        proposals[new] = cand
            next_frontier = []
            for new, (_, _, parent, g) in sorted(
                    proposals.items(), key=lambda kv: order(kv[0])):
                orbit_of[new] = oid
                pred[new] = (parent, g)
                next_frontier.append(new)
            frontier = next_frontier
    return orbit_of, reps, pred


_REFERENCE_CASES = [
    (ModularRing(6), "row", FAMILY_LIN, 2, 0),
    (TruncatedPolyLocal(2, 2), "row", FAMILY_LIN, 2, 0),
    (ModularRing(4), "frame", FAMILY_SP, 4, 1),
    (PrimeField(3), "frame", FAMILY_ORTH, 4, 2),
    # five orbits: the row BFS stops early only in the last one
    (PrimeField(5), "row", FAMILY_ORTH, 4, 0),
    # the gcd test of a non-local modulus
    (ModularRing(6), "row", FAMILY_LIN, 3, 0),
    (ModularRing(1), "row", FAMILY_LIN, 3, 0),
    (F2xF2, "row", FAMILY_LIN, 2, 0),
    # runs of several updates over two frame rows, orthogonal runs of six
    # generators, and a field whose sort key is not payload order
    (PrimeField(3), "frame", FAMILY_SP, 4, 2),
    (PrimeField(7), "row", FAMILY_ORTH, 4, 0),
    (F4, "row", FAMILY_LIN, 3, 0),
    # frames of three rows, each image the sum of three rows' deltas
    (ModularRing(2), "frame", FAMILY_LIN, 3, 3),
    (ModularRing(2), "frame", FAMILY_SP, 4, 3),
]


# every golden table as well, after the cases above so that they keep
# their ids
@pytest.mark.parametrize("ring, kind, family, size, frame_rows",
                         _REFERENCE_CASES + [
                             spec[:5] for spec in _GOLDEN
                             if spec[:5] not in _REFERENCE_CASES])
def test_bfs_matches_least_proposal_reference(ring, kind, family, size,
                                              frame_rows):
    # the table's views are the reference BFS's tables, and a table built
    # from those compares equal
    table = _bounded_table(ring, kind, family, size, frame_rows)
    orbit_of, reps, pred = _bfs_closure_ref(ring, kind, family, size,
                                            frame_rows)
    assert table.orbit_of == orbit_of and table.pred == pred
    assert table.reps == tuple(reps)
    assert OrbitTable(ring, kind, family, size, frame_rows, orbit_of, reps,
                      pred) == table


def _count_expansions(monkeypatch) -> list:
    # the codes the BFS expands, in order, from tables built after the call
    expanded = []

    class Counted(oracle._Codec):
        def expander(self, gens):
            expand = super().expander(gens)

            def counted(node, link, fresh):
                expanded.append(node)
                return expand(node, link, fresh)

            return counted

    monkeypatch.setattr(oracle, "_Codec", Counted)
    return expanded


def test_row_bfs_stops_once_every_row_is_reached(monkeypatch):
    # Um_3(Z/4) is one orbit of 56 rows under 18 generators: the full BFS
    # expands all 56 rows (56 * 18 images), most of them after the last new
    # row is proposed
    expanded = _count_expansions(monkeypatch)
    table = _um3_z4()
    assert table.orbit_sizes() == [56]
    assert len(oracle.generator_catalog(ModularRing(4), FAMILY_LIN, 3)) == 18
    assert 0 < len(expanded) < 56


# tables whose orbits stop on a count: orth rows by the level sets of Q,
# and frames by their proven size (``_frame_orbit_count``), among them
# one-row sp frames, one-row orth frames (the rows with Q = 0), sp frames of
# two rows (the hyperbolic pairs) and, after those, frames that stopped on
# no count before: Z/4 lin 2 x 4, Sp_4(F_3), EO_4(F_3) and Z/6 lin 2 x 3
_COUNTED_CASES = [
    (ModularRing(9), "row", FAMILY_ORTH, 4, 0),
    (PrimeField(5), "row", FAMILY_ORTH, 4, 0),
    (PrimeField(7), "row", FAMILY_ORTH, 4, 0),
    (ModularRing(6), "frame", FAMILY_SP, 4, 1),
    (ModularRing(23), "frame", FAMILY_SP, 2, 1),
    (X2, "frame", FAMILY_SP, 4, 1),
    (PrimeField(5), "frame", FAMILY_ORTH, 4, 1),
    (ModularRing(9), "frame", FAMILY_ORTH, 4, 1),
    (ModularRing(4), "frame", FAMILY_SP, 4, 2),
    (PrimeField(3), "frame", FAMILY_SP, 4, 2),
    (X2, "frame", FAMILY_SP, 4, 2),
    (ModularRing(4), "frame", FAMILY_LIN, 4, 2),
    (PrimeField(3), "frame", FAMILY_SP, 4, 4),
    (PrimeField(3), "frame", FAMILY_ORTH, 4, 4),
    (ModularRing(6), "frame", FAMILY_LIN, 3, 2),
]
_COUNTED_IDS = ["Z/9 orth rows", "F_5 orth rows", "F_7 orth rows",
                "Z/6 sp frames", "Z/23 sp frames", "F_2[x]/(x^2) sp frames",
                "F_5 orth frames", "Z/9 orth frames",
                "Z/4 sp 2-row frames", "F_3 sp 2-row frames",
                "F_2[x]/(x^2) sp 2-row frames", "Z/4 lin 2-row frames",
                "F_3 sp 4-row frames", "F_3 orth 4-row frames",
                "Z/6 lin 2-row frames"]


@pytest.mark.parametrize("ring, kind, family, size, frame_rows",
                         _COUNTED_CASES, ids=_COUNTED_IDS)
def test_a_counted_stop_changes_no_byte(monkeypatch, ring, kind, family,
                                        size, frame_rows):
    # the same table with the stop on, with the counts withheld (the full
    # BFS) and with every count one too large (no set is ever reached),
    # and the reference BFS's tables wherever the suite has one; compared
    # as tables, whose codes, links and representatives fix the bytes, and
    # as flags, so a failure reports without a long diff.  A row table's
    # counts are its counted sets, (level, counts), a frame table's its
    # count; each is withheld as the BFS reads no count
    name, withheld, raised = (
        ("_counted_sets", (None, None),
         lambda sets: (sets[0], {k: n + 1 for k, n in sets[1].items()}))
        if kind == "row" else
        ("_frame_orbit_count", None, lambda count: count + 1))
    counted = getattr(oracle, name)
    spec = (ring, kind, family, size, frame_rows)
    tables = []
    for setting, adjust in [("on", lambda sets: sets),
                            ("withheld", lambda sets: withheld),
                            ("raised", raised)]:
        monkeypatch.setattr(oracle, name,
                            lambda *args: adjust(counted(*args)))
        table = enumerate_orbits(ring, kind, family, size,
                                 frame_rows=frame_rows)
        tables.append(table)
        if spec in _REFERENCE_CASES or spec in [g[:5] for g in _GOLDEN]:
            orbit_of, reps, pred = _bfs_closure_ref(*spec)
            same = (table.orbit_of == orbit_of and table.pred == pred
                    and table.reps == tuple(reps))
            assert same, setting
    assert [t == tables[0] for t in tables[1:]] == [True, True]
    # every frame case is counted
    assert kind == "row" or counted(ring, family, size, frame_rows,
                                    oracle.DEFAULT_BUDGET) is not None


# (table, its expand calls, and the calls when only the whole row domain
# is counted and no frame): a counted set stops each orbit once it is
# reached
_EXPANSIONS = [
    ((PrimeField(5), "row", FAMILY_ORTH, 4, 0), 240, 548),
    ((PrimeField(7), "row", FAMILY_ORTH, 4, 0), 672, 2154),
    ((ModularRing(9), "row", FAMILY_ORTH, 4, 0), 2237, 6047),
    ((ModularRing(3), "frame", FAMILY_SP, 4, 2), 1439, 2160),
    ((ModularRing(23), "frame", FAMILY_SP, 2, 1), 486, 528),
    ((ModularRing(6), "frame", FAMILY_SP, 4, 1), 967, 1200),
    ((X2, "frame", FAMILY_SP, 4, 1), 114, 240),
    ((PrimeField(5), "frame", FAMILY_ORTH, 4, 1), 82, 144),
    ((ModularRing(9), "frame", FAMILY_ORTH, 4, 1), 736, 864),
    ((ModularRing(4), "frame", FAMILY_SP, 4, 2), 10820, 15360),
    ((PrimeField(3), "frame", FAMILY_SP, 4, 2), 1439, 2160),
    ((X2, "frame", FAMILY_SP, 4, 2), 10527, 15360),
    # frames that stop on a count beyond the one-row and sp two-row sets
    ((ModularRing(4), "frame", FAMILY_LIN, 3, 2), 2192, 2688),
    ((ModularRing(6), "frame", FAMILY_LIN, 2, 2), 113, 144),
    ((PrimeField(3), "frame", FAMILY_ORTH, 4, 4), 265, 288),
    # lin rows keep the one set, the domain, that stopped them before
    ((ModularRing(8), "row", FAMILY_LIN, 4, 0), 1543, 1543),
    # a frame of three rows has no count and runs to the end
    ((ModularRing(2), "frame", FAMILY_SP, 4, 3), 360, 360),
]


def test_counted_sets_pin_the_expansions(monkeypatch):
    # the expand calls with the counts on, and with only the whole row
    # domain counted and no frame (the rule before the level sets and
    # frames: the last orbit of a row table stops once every row is reached)
    expanded = _count_expansions(monkeypatch)
    rules = [(oracle._counted_sets, oracle._frame_orbit_count),
             (lambda table, domain: (None, {None: len(domain)}),
              lambda *args: None)]
    got = {}
    for rows, frames in rules:
        monkeypatch.setattr(oracle, "_counted_sets", rows)
        monkeypatch.setattr(oracle, "_frame_orbit_count", frames)
        for spec, _, _ in _EXPANSIONS:
            expanded.clear()
            enumerate_orbits(*spec[:4], frame_rows=spec[4])
            got.setdefault(spec, []).append(len(expanded))
    assert [got[spec] for spec, _, _ in _EXPANSIONS] == [
        [now, before] for _, now, before in _EXPANSIONS]
    # fewer wherever a count beyond the row domain stops a table
    assert [now < before for now, before in got.values()] == (
        [True] * 15 + [False] * 2)


def test_a_row_orbit_that_leaves_its_domain_is_refused(monkeypatch):
    # a codec defect that proposes a code outside the row domain (here one
    # past the last row code) is refused when the code is committed,
    # instead of running the BFS on until memory runs out
    class Leaky(oracle._Codec):
        def expander(self, gens):
            expand = super().expander(gens)
            outside = self.q ** self.width

            def leaky(node, link, fresh):
                expand(node, link, fresh)
                if outside not in link:
                    link[outside] = node, gens[0]
                    fresh.append(outside)

            return leaky

    monkeypatch.setattr(oracle, "_Codec", Leaky)
    got = within(10, lambda: enumerate_orbits(ModularRing(6), "row",
                                              FAMILY_LIN, 2))
    assert isinstance(got, ObjectOutOfDomain)
    assert got.message == "internal: a row orbit left the row domain"


# the rings of the swept-line differential: Z/m local and not, the zero
# ring, a field, F_2[x]/(x^2) and F_2 x F_2 as a JSON quotient
_SWEEP_RINGS = [ModularRing(n) for n in (1, 2, 6, 8, 9, 12)] + [
    PrimeField(7), TruncatedPolyLocal(2, 2), F2xF2]
# the widest row of each ring past which the reference BFS takes seconds
_SWEEP_WIDEST = {2: 10, 4: 5}


def _sweep_shapes(ring, codes):
    """(kind, family, size, frame_rows) of every lin, sp and orth row table
    and one-row frame table over ``ring`` of at most ``codes`` codes."""
    q = ring.cardinality()
    widest = _SWEEP_WIDEST.get(q, 12) if q > 1 else 4
    for family in (FAMILY_LIN, FAMILY_SP, FAMILY_ORTH):
        for size in range(1, widest + 1):
            if q ** size > codes or family != FAMILY_LIN and size % 2:
                continue
            if family == FAMILY_ORTH and size > 2 and not has_half(ring):
                continue  # the catalog refuses orth without 1/2
            yield "row", family, size, 0
            yield "frame", family, size, 1


@pytest.mark.parametrize("ring", _SWEEP_RINGS, ids=[
    "Z/1", "Z/2", "Z/6", "Z/8", "Z/9", "Z/12", "F_7", "F_2[x]/(x^2)",
    "F_2xF_2"])
def test_swept_lines_match_the_reference(ring):
    # every row table and one-row frame table of at most 4,096 codes (rows
    # of 10 over Z/2 and of 5 over the rings of four elements) dumps the
    # bytes of the reference BFS's table: a line swept from a non-unit
    # source (x = 2 over Z/8, Z/6 and Z/12) or from a run that misses a
    # parameter would leave an image unproposed or proposed by another
    # parent
    built = 0
    for spec in _sweep_shapes(ring, 4096):
        table = enumerate_orbits(ring, spec[0], spec[1], spec[2],
                                 frame_rows=spec[3])
        orbit_of, reps, pred = _bfs_closure_ref(ring, *spec)
        want = OrbitTable(ring, *spec, orbit_of, reps, pred)
        assert json.dumps(table.to_json()) == json.dumps(want.to_json()), \
            spec
        built += 1
    assert built >= 8


def _swept_images(ring, gens, keys, links):
    # the images each key proposes, expanded by one expander into the link
    # dict given with it, which holds the key
    table = OrbitTable(ring, "row", FAMILY_LIN, len(keys[0]))
    codec = table._codec
    expand, out = codec.expander(gens), []
    for key, link in zip(keys, links):
        fresh = []
        link[codec.encode(key)] = None
        expand(codec.encode(key), link, fresh)
        out.append(sorted(codec.decoder()(c) for c in fresh))
    return out


def test_a_run_missing_a_parameter_sweeps_no_line():
    # e_12(1) alone over Z/8 moves (1, 0) to (1, 1) and (1, 1) to (1, 2):
    # its run misses six parameters, so it sweeps no line, and (1, 1),
    # expanded after (1, 0) into the same links, still proposes (1, 2)
    ring = ModularRing(8)
    g = Generator(FAMILY_LIN, 1, 2, ring.one(), 2)
    link: dict = {}
    assert _swept_images(ring, [g], [(1, 0), (1, 1)], [link, link]) == [
        [(1, 1)], [(1, 2)]]


def test_a_non_unit_source_sweeps_no_line():
    # over Z/8 the row (2, 1, 0) meets e_13(c) first, whose source 2 reaches
    # only the even third entries: e_23(c), from the unit 1, must still
    # propose the odd ones, and (2, 1, 4), on the same line, expanded next
    # into the same links, proposes nothing new on it
    ring = ModularRing(8)
    gens = oracle.generator_catalog(ring, FAMILY_LIN, 3)
    link: dict = {}
    first, second = _swept_images(ring, gens, [(2, 1, 0), (2, 1, 4)],
                                  [link, link])
    assert {(2, 1, c) for c in range(1, 8)} <= set(first)
    assert not any(key[:2] == (2, 1) for key in second)


def test_the_memo_starts_afresh_for_another_link():
    # one expander, two link dicts: the line of (1, 0, 0) through its last
    # entry is swept into the first, and the same row, expanded into a
    # second that holds only it, proposes the whole line again
    ring = ModularRing(8)
    gens = oracle.generator_catalog(ring, FAMILY_LIN, 3)
    first, second = _swept_images(ring, gens, [(1, 0, 0)] * 2, [{}, {}])
    assert first == second
    assert {(1, 0, c) for c in range(1, 8)} <= set(second)


class _CountedLinks(dict):
    """A link dict that counts its membership tests, the BFS's lookups."""

    lookups = 0

    def __contains__(self, code):
        _CountedLinks.lookups += 1
        return dict.__contains__(self, code)


def test_swept_lines_pin_the_link_lookups(monkeypatch):
    # the link lookups of a build, before the swept-line rule and now: Um_4(Z/8)
    # 98,700 -> 23,891, the Z/23 one-row sp frames of 2 20,878 -> 968 and
    # F_2 lin rows of 8 6,811 -> 1,968 (no memo over F_2: each node's bits
    # alone); orth runs have two updates and sweep nothing, so the F_7 orth
    # rows of 4 keep their 30,888.  The tables keep their golden bytes
    bfs = oracle._bfs_closure

    def counted(table, *args):
        table._link = _CountedLinks()
        return bfs(table, *args)

    monkeypatch.setattr(oracle, "_bfs_closure", counted)
    got = []
    for spec in [(ModularRing(8), "row", FAMILY_LIN, 4, 0),
                 (ModularRing(23), "frame", FAMILY_SP, 2, 1),
                 (PrimeField(2), "row", FAMILY_LIN, 8, 0),
                 (PrimeField(7), "row", FAMILY_ORTH, 4, 0)]:
        _CountedLinks.lookups = 0
        table = enumerate_orbits(*spec[:4], frame_rows=spec[4])
        got.append((len(table._orbit), _CountedLinks.lookups))
    assert got == [(3840, 23891), (528, 968), (255, 1968), (2400, 30888)]


def test_a_row_table_build_decodes_no_code(monkeypatch):
    # the BFS keeps its codes: no build, of rows or of frames, decodes a
    # code or writes one as JSON, and the first read of a row table's views
    # decodes each row once
    with monkeypatch.context() as m:
        m.setattr(oracle._Codec, "decoder", _refuse)
        m.setattr(oracle._Codec, "writer", _refuse)
        tables = [enumerate_orbits(ring, "row", family, size)
                  for ring, family, size in [
                      (ModularRing(4), FAMILY_LIN, 3),
                      (PrimeField(5), FAMILY_ORTH, 4),
                      (ModularRing(6), FAMILY_LIN, 3),
                      (TruncatedPolyLocal(2, 2), FAMILY_LIN, 2),
                      (ModularRing(9), FAMILY_ORTH, 4)]]
        frames = [enumerate_orbits(ring, "frame", FAMILY_SP, size,
                                   frame_rows=rows)
                  for ring, size, rows in [(ModularRing(3), 4, 2),
                                           (ModularRing(23), 2, 1)]]
    # the orth tables' orbits stop on the level sets of Q, computed on
    # digits, and the frames' on their counts
    assert [t.orbit_count() for t in tables + frames] == [1, 5, 1, 1, 9, 1, 1]
    assert [sum(t.orbit_sizes()) for t in frames] == [2160, 528]
    split, splits = oracle._split, []
    monkeypatch.setattr(oracle, "_split", lambda code, base, count:
                        splits.append(code) or split(code, base, count))
    for table in tables:
        splits.clear()
        assert table.orbit_of and table.pred and table.reps
        assert sorted(splits) == sorted(table._orbit)


def test_a_frame_build_lists_no_row_domain_and_no_level(monkeypatch):
    # a frame table's one count is its proven size: no build lists the row
    # domain or the levels of Q.  The counted frames (one-row lin, sp and
    # orth, sp pairs, a lin frame over Z/15 and over F_2 x F_2) stop before
    # they expand every frame; orth frames of two rows have no count
    monkeypatch.setattr(oracle, "_row_domain", _refuse)
    monkeypatch.setattr(oracle._Codec, "levels", _refuse)
    expanded = _count_expansions(monkeypatch)
    sizes = []
    for ring, family, size, rows in [
            (ModularRing(6), FAMILY_LIN, 3, 1),
            (ModularRing(6), FAMILY_SP, 4, 1),
            (PrimeField(5), FAMILY_ORTH, 4, 1),
            (ModularRing(9), FAMILY_ORTH, 4, 1), (X2, FAMILY_SP, 2, 2),
            (ModularRing(15), FAMILY_LIN, 2, 2), (F2xF2, FAMILY_LIN, 3, 1),
            (PrimeField(3), FAMILY_ORTH, 4, 2)]:
        expanded.clear()
        table = enumerate_orbits(ring, "frame", family, size, frame_rows=rows)
        sizes.append((len(table._orbit), len(expanded)))
    assert sizes == [(182, 147), (1200, 967), (144, 82), (864, 736),
                     (48, 37), (2880, 2476), (49, 29), (288, 288)]


def _counted_value_from_json(monkeypatch, cls):
    calls = []
    original = cls.value_from_json
    monkeypatch.setattr(cls, "value_from_json",
                        lambda self, p: calls.append(p) or original(self, p))
    return calls


def test_loading_decodes_each_distinct_entry_once(monkeypatch):
    # Um_3(Z/4): keys and parameters hold four distinct entries; a true
    # where a 1 stood is decoded apart from 1, to the same payload
    obj = json.loads(json.dumps(_um3_z4().to_json()))
    calls = _counted_value_from_json(monkeypatch, ModularRing)
    assert OrbitTable.from_json(obj).to_json() == obj
    assert sorted(calls) == [0, 1, 2, 3]
    calls.clear()
    _entry(obj, [1, 0, 0])["v"][0] = True
    back = OrbitTable.from_json(obj)
    assert sorted(map(repr, calls)) == ["0", "1", "2", "3", "True"]
    assert (1, 0, 0) in back.orbit_of
    # F_2[x]/(x^2): list entries, keyed as tuples
    table = enumerate_orbits(TruncatedPolyLocal(2, 2), "row", FAMILY_LIN, 2)
    obj = json.loads(json.dumps(table.to_json()))
    calls = _counted_value_from_json(monkeypatch, TruncatedPolyLocal)
    assert OrbitTable.from_json(obj).to_json() == obj
    assert len(calls) == len({json.dumps(p) for p in calls}) == 4


def test_a_row_read_before_is_looked_up_once(monkeypatch):
    # lin frames of two rows over F_2[x]/(x^2), whose entries are lists:
    # 56 distinct rows, each read about 190 times, mostly as a parent's.
    # A row read again costs one repr, its key, where a repr of each of its
    # three entries made more than three reprs a row
    table = enumerate_orbits(TruncatedPolyLocal(2, 2), "frame", FAMILY_LIN,
                             3, frame_rows=2)
    obj = json.loads(json.dumps(table.to_json()))
    rows = [row for e in obj["objects"]
            for v in [e["v"]] + ([e["pred"][0]] if e["pred"] else [])
            for row in v]
    assert len({json.dumps(row) for row in rows}) == 56
    keyed = []
    monkeypatch.setattr(oracle, "repr", lambda x: keyed.append(x) or repr(x),
                        raising=False)
    assert OrbitTable.from_json(obj) == table
    assert len(keyed) < 2 * len(rows)


def test_a_bad_entry_raises_at_each_load_as_before():
    # a failed decode is not kept: the same error, at every occurrence
    obj = json.loads(json.dumps(_um3_z4().to_json()))
    for e in obj["objects"][:2]:
        e["v"][0] = 1.5
    for _ in range(2):
        with pytest.raises(ValueError, match="integer expected, got 1.5"):
            OrbitTable.from_json(obj)
    obj["objects"][0]["v"][0] = {"n": 1}
    with pytest.raises(ValueError, match="integer expected"):
        OrbitTable.from_json(obj)
    # a float equal to an entry read before it, in a key, in a parameter
    # and in an index, is refused as well
    for field, bad in (("v", 3.0), ("param", 1.0), ("i", 2.0)):
        obj = json.loads(json.dumps(_um3_z4().to_json()))
        last = obj["objects"][-1]
        if field == "v":
            last["v"][0] = bad
        else:
            last["pred"][1][field] = bad
        with pytest.raises(ValueError, match=f"integer expected, got {bad}"):
            OrbitTable.from_json(obj)


@functools.cache
def _spans_one_ref(ring, entries):
    # reference: whether the payloads ``entries`` generate the unit ideal,
    # by brute force: {0} closed under adding c * v for each element c and
    # each entry v, in the reference arithmetic
    pool = [v.payload for v in ring.elements()]
    ideal = {ring.zero().payload}
    for v in entries:
        multiples = {ref.mul(ring, c, v) for c in pool}
        ideal = {ref.add(ring, a, m) for a in ideal for m in multiples}
    return ring.one().payload in ideal


def _is_unimodular_row_ref(ring, values):
    # reference: the per-row test on boxed values that the row domain ran
    # before it was built as the complement of the maximal-ideal rows; a
    # ring that is neither local nor a Z/m is tested by brute force, once
    # per set of distinct entries
    if ring.is_zero_ring:
        return True
    if ring.is_local:
        return any(v.is_unit() for v in values)
    modulus = ring.integer_modulus
    if modulus is None:
        return _spans_one_ref(ring, frozenset(v.payload for v in values))
    return gcd(modulus, *(v.payload for v in values)) == 1


# Z/8 and Z/9 are local but no fields, Z/30 has three primes; the largest
# row size is 3 unless given here
_ROW_DOMAIN_RINGS = _KEY_ORDER_RINGS + [F2xF2, ModularRing(8), ModularRing(9),
                                        ModularRing(30), F3xF3, X3_PLUS_X]
_ROW_DOMAIN_IDS = _KEY_ORDER_IDS + ["F_2xF_2", "Z/8", "Z/9", "Z/30",
                                    "F_3xF_3", "F_2[x]/(x^3+x)"]
_ROW_DOMAIN_LARGEST = {"Z/6": 4, "Z/8": 4, "Z/30": 2}


@pytest.mark.parametrize("ring, name",
                         zip(_ROW_DOMAIN_RINGS, _ROW_DOMAIN_IDS),
                         ids=_ROW_DOMAIN_IDS)
def test_row_domain_matches_the_boxed_reference(ring, name):
    # every row of each size: the domain holds the rows the boxed test
    # passes, and comes out in key order without a sort
    for size in range(_ROW_DOMAIN_LARGEST.get(name, 3) + 1):
        table = OrbitTable(ring, "row", FAMILY_LIN, size)
        decode = table._codec.decoder()
        want = [tuple(v.payload for v in combo) for combo in
                itertools.product(list(ring.elements()), repeat=size)
                if _is_unimodular_row_ref(ring, combo)]
        assert [decode(c) for c in oracle._row_domain(table._codec)] == \
            sorted(want, key=lambda k: _key_order_ref(ring, "row", k))


def test_the_size_one_domain_of_a_large_modulus_is_its_units():
    # Z/(2 * 99,991): the multiples of 2 and of the prime 99,991 are merged
    # out of the ranks, leaving phi(m) = 99,990 codes, the units' ranks
    m = 2 * 99991
    table = OrbitTable(ModularRing(m), "row", FAMILY_LIN, 1)
    domain = oracle._row_domain(table._codec)
    assert len(domain) == 99990
    assert domain == [r for r in range(m) if gcd(r, m) == 1]


@pytest.mark.parametrize("ring", _KEY_ORDER_RINGS, ids=_KEY_ORDER_IDS)
def test_form_levels_match_the_boxed_form(ring):
    # each row code's level is the rank of Q(v) = v_1 v_2 + v_3 v_4 + ...,
    # the form the orth generators keep, as boxed arithmetic computes it
    for size in (0, 2, 4):
        codec = OrbitTable(ring, "row", FAMILY_ORTH, size)._codec
        values = [RingValue(ring, codec.unrank(r)) for r in range(codec.q)]
        want = [codec.rank(sum((a * b for a, b in zip(v[::2], v[1::2])),
                               ring.zero()).payload)
                for v in itertools.product(values, repeat=size)]
        assert codec.levels() == want


@pytest.mark.parametrize("ring", [ModularRing(4), TruncatedPolyLocal(2, 2),
                                  F4], ids=["Z/4", "F_2[x]/(x^2)", "F_4"])
def test_a_key_with_a_list_entry_is_out_of_domain(ring):
    # a list where an element stands has no rank over any ring: the
    # constructor, path_word and certify_equivalence refuse such a row or
    # frame as object_out_of_domain, not with a TypeError
    one, zero = ring.one().payload, ring.zero().payload
    entry = list(one) if isinstance(one, tuple) else [one]
    for kind, frame_rows, bad in (("row", 0, (entry, zero)),
                                  ("frame", 1, ((zero, entry),))):
        table = enumerate_orbits(ring, kind, FAMILY_LIN, 2,
                                 frame_rows=frame_rows)
        good = table.reps[0]
        # a key holding a list is no dict key, so the constructor meets it
        # as a representative and as a parent
        calls = [lambda: OrbitTable(ring, kind, FAMILY_LIN, 2, frame_rows,
                                    None, [bad]),
                 lambda: OrbitTable(ring, kind, FAMILY_LIN, 2, frame_rows,
                                    None, None, {good: (bad, None)}),
                 lambda: table.path_word(bad),
                 lambda: certify_equivalence(bad, good, table),
                 lambda: certify_equivalence(good, bad, table)]
        for call in calls:
            with pytest.raises(ObjectOutOfDomain) as info:
                call()
            assert info.value.to_json()["code"] == "object_out_of_domain"
