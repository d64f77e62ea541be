"""F_p[x]/(x^e) on the F[x]/(f) arithmetic, against the reference kernel."""

import hashlib
import itertools
import json
import random

import pytest

import reference as ref
from cgf.cli import main
from cgf.errors import NotAUnit
from cgf.rings import (PolyExt, PrimeField, QuotientRing, RationalField,
                       TruncatedPolyLocal, _poly_divmod_field, ring_from_json)

SHAPES = ((2, 1), (2, 2), (2, 3), (3, 2), (5, 2))

# sha256 of the descriptor lines and, per element in elements() order, its
# render, repr, JSON, sort key and payload; recorded on the ring's own
# arithmetic before it moved onto F[x]/(f)
SURFACE_DIGESTS = {
    (2, 1): "b43acb4285e8ca73682fe3ded76be7083238c24fa5fb8aa91430d852add5d6e6",
    (2, 2): "1ef7b4b782a3053f6be0ccd435e9575f7f9f9fae48346a0e725b48f0d484cd29",
    (2, 3): "6b3806927f088fd5b2f761109e68f7740f0bff5038f0b837b439155a47dae2d1",
    (3, 2): "5ec7473bf5ef2bda65b9cd49db5296ed04572ccde0bf1d3d8c64bf1cab4cf626",
    (5, 2): "dbb876598c0848b8d9b28c84d0d59e26d1fd8d4bb4685d48a74808714a3a602e",
}


@pytest.mark.parametrize("p,e", SHAPES)
def test_every_element_and_pair_against_a_naive_reference(p, e):
    R = TruncatedPolyLocal(p, e)
    elements = list(R.elements())
    payloads = [v.payload for v in elements]
    assert len(set(payloads)) == len(payloads) == p ** e == R.cardinality()
    assert list(map(R.rank, payloads)) == list(range(p ** e))
    for a in elements:
        pa = a.payload
        assert (-a).payload == ref.neg(R, pa)
        unit = pa[:1] not in ((), (0,))
        assert a.is_unit() == unit and R.is_nilpotent_payload(pa) != unit
        if a.is_unit():
            assert ref.mul(R, pa, a.inverse().payload) == (1,)
        else:
            with pytest.raises(NotAUnit) as info:
                a.inverse()
            assert info.value.to_json()["code"] == "not_a_unit"
            assert R.render(a.payload) in str(info.value)
        for b in elements:
            pb = b.payload
            assert (a + b).payload == ref.add(R, pa, pb)
            assert (a - b).payload == ref.sub(R, pa, pb)
            assert (a * b).payload == ref.mul(R, pa, pb)


@pytest.mark.parametrize("p,e", SHAPES)
def test_payloads_agree_with_the_polynomial_quotient(p, e):
    R = TruncatedPolyLocal(p, e)
    F = PolyExt(PrimeField(p), "x")
    Q = QuotientRing(F, [F.coerce([0] * e + [1])])
    payloads = [v.payload for v in R.elements()]
    assert sorted(payloads) == sorted(v.payload for v in Q.elements())
    for a in payloads:
        assert R.neg(a) == Q.neg(a)
        assert R.is_unit_payload(a) == Q.is_unit_payload(a)
        assert R.is_nilpotent_payload(a) == Q.is_nilpotent_payload(a)
        if R.is_unit_payload(a):
            assert R.inverse_payload(a) == Q.inverse_payload(a)
        for b in payloads:
            assert R.add(a, b) == Q.add(a, b) == ref.add(Q, a, b)
            assert R.mul(a, b) == Q.mul(a, b) == ref.mul(Q, a, b)


@pytest.mark.parametrize("p,e", SHAPES)
def test_seeded_draws_are_canonical_coefficient_draws(p, e):
    R = TruncatedPolyLocal(p, e)
    for seed in range(20):
        drawn, reference = random.Random(seed), random.Random(seed)
        for _ in range(25):
            coeffs = [reference.randrange(p) for _ in range(e)]
            v = R.random(drawn)
            stripped = list(coeffs)
            while stripped and stripped[-1] == 0:
                stripped.pop()
            assert v.payload == R.canon(coeffs) == tuple(stripped)


@pytest.mark.parametrize("p,e", SHAPES)
def test_describe_render_and_json_are_unchanged(p, e):
    R = TruncatedPolyLocal(p, e)
    lines = [R.describe(), repr(R), json.dumps(R.to_json(), sort_keys=True),
             repr(R.key())]
    for v in R.elements():
        lines.append("|".join((R.render(v.payload), repr(v),
                               json.dumps(v.to_json()),
                               repr(v.payload + (0,) * (e - len(v.payload))),
                               repr(v.payload))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SURFACE_DIGESTS[(p, e)]
    assert ring_from_json(R.to_json()) == R
    for v in R.elements():
        assert R.value_from_json(v.to_json()) == v


def test_canon_truncates_and_reduces_each_coefficient():
    R = TruncatedPolyLocal(3, 2)
    assert R.value_from_json([4, 5, 7]).payload == (1, 2)
    assert R.coerce(-1).payload == (2,)
    assert R.coerce((3, 6, 1)).payload == ()
    assert R.render((1, 2)) == "1+2x"
    assert TruncatedPolyLocal(2, 3).render((0, 1, 1)) == "1x+1x^2"


def test_a_non_unit_message_renders_the_polynomial():
    R = TruncatedPolyLocal(2, 2)
    with pytest.raises(NotAUnit, match=r"^1x is not a unit in F_2\[x\]/\(x\^2\)"):
        R.coerce((0, 1)).inverse()


def test_products_reach_twice_the_truncation_degree():
    # a product of two degree-39 remainders has degree 78 before reduction,
    # above PolyExt's default cap of 64
    p, e = 2, 40
    R = TruncatedPolyLocal(p, e)
    rng = random.Random(40)
    for _ in range(10):
        pa = (1, *(rng.randrange(p) for _ in range(e - 2)), 1)
        pb = (*(rng.randrange(p) for _ in range(e - 1)), 1)
        a, b = R.coerce(pa), R.coerce(pb)
        assert (a * b).payload == ref.mul(R, pa, pb)
        assert (a * a.inverse()).payload == (1,)
        assert ref.mul(R, pa, a.inverse().payload) == (1,)


def test_only_the_ring_specific_surface_is_its_own():
    own = vars(TruncatedPolyLocal)
    for name in ("add", "mul", "neg", "inverse_payload", "elements",
                 "cardinality", "random"):
        assert name not in own, name


def test_remainders_agree_with_division_by_any_monic_f():
    # the reduction acts only through f's nonzero lower terms; against
    # long division with remainder, for dense and sparse f
    rng = random.Random(5)
    for p in (2, 3, 5):
        F = PolyExt(PrimeField(p), "x")
        for d in (1, 2, 3, 4):
            for _ in range(6):
                f = [rng.randrange(p) for _ in range(d)] + [1]
                Q = QuotientRing(F, [F.coerce(f)])
                for _ in range(30):
                    a = F.canon([rng.randrange(p)
                                 for _ in range(rng.randrange(2 * d + 2))])
                    want = _poly_divmod_field(a, tuple(f), F.base)[1]
                    assert Q.residues._reduce(a) == want, (p, f, a)


@pytest.mark.parametrize("p", [2, 3])
def test_quotient_flags_match_brute_force(p):
    # local iff every element is a unit or nilpotent, a field iff every
    # nonzero element is a unit; for every monic f of degree 1 to 3
    F = PolyExt(PrimeField(p), "x")
    seen = set()
    for d in (1, 2, 3):
        for lower in itertools.product(range(p), repeat=d):
            Q = QuotientRing(F, [F.coerce(list(lower) + [1])])
            elements = [v.payload for v in Q.elements()]
            one = Q.one().payload
            units = {a for a in elements
                     if any(Q.mul(a, b) == one for b in elements)}

            def nilpotent(a):
                x = a
                for _ in range(d):
                    x = Q.mul(x, a)
                return x == ()

            local = all(a in units or nilpotent(a) for a in elements)
            field = len(units) == len(elements) - 1
            assert (Q.is_local, Q.is_field) == (local, field), (p, lower)
            seen.add((local, field))
    assert seen == {(True, True), (True, False), (False, False)}


def test_an_infinite_base_field_leaves_both_flags_false():
    Q = QuotientRing(PolyExt(RationalField(), "x"), [[0, 0, 1]])
    assert (Q.is_local, Q.is_field) == (False, False)


# the quotient F_2[x]/(x^2) and polyloc:2:2 are one ring: every local-only
# verb answers alike under both descriptors
_X2 = json.dumps({"kind": "quot", "gens": [[0, 0, 1]],
                  "base": {"kind": "poly", "var": "x",
                           "base": {"kind": "prime", "p": 2}}})
_LOCAL_VERBS = [
    ["reduce-row", "--row", "[[0,1],[1]]"],
    ["reduce-row", "--row", "[[0,1],[1,1],[1]]"],
    ["reduce-row", "--row", "[[0,1],[0,1]]"],
    ["reduce-row", "--flavor", "sp", "--row", "[[0,1],[1],[1],[0,1]]"],
    ["complete", "--matrix", "[[[1],[0,1],[1]],[[0],[1],[0,1]]]"],
    ["transvection", "--col", "[[1],[0,1],[1]]", "--row", "[[0,1],[1],[0]]"],
    ["common-perp", "--v1", "[[1],[0,1],[1]]", "--v2", "[[1],[1],[0,1]]",
     "--w", "[[1],[0],[0]]"],
    ["two-row", "--matrix", "[[[1],[0,1],[1]],[[0],[1],[0,1]]]"],
    ["roitman", "--row", "[[0,1],[1],[0]]", "--k", "1",
     "--target", "[[0],[1]]"],
    ["whitehead", "--flavor", "sp", "--matrix", "[[[1],[0,1]],[[0],[1]]]"],
]


@pytest.mark.parametrize("argv", _LOCAL_VERBS, ids=lambda a: a[0])
def test_the_quotient_x2_answers_as_polyloc(argv, capsys):
    outs = []
    for ring in ("polyloc:2:2", _X2):
        code = main([argv[0], "--ring", ring, *argv[1:]])
        outs.append((code, capsys.readouterr().out))
    (code, out), (qcode, qout) = outs
    assert qcode == code
    if code == 0:
        polyloc = json.dumps(TruncatedPolyLocal(2, 2).to_json(),
                             sort_keys=True, separators=(",", ":"))
        quot = json.dumps(json.loads(_X2), sort_keys=True,
                          separators=(",", ":"))
        assert qout == out.replace(polyloc, quot)
    else:
        assert json.loads(qout)["code"] == json.loads(out)["code"]


def test_reduce_row_over_the_quotient_x2_is_polyloc_word(capsys):
    assert main(["reduce-row", "--ring", _X2, "--row", "[[1],[0,1]]"]) == 0
    word = json.loads(capsys.readouterr().out)["outputs"]["word"]
    assert word["gens"] == [{"i": 1, "j": 2, "param": [0, 1]}]
