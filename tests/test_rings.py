"""Ring tower: canonical forms, axioms, units, substitution, localization."""

import json
import random
from fractions import Fraction

import pytest

import reference as ref
from cgf import rings
from cgf.errors import (DegreeCapExceeded, DescriptorMismatch, NotAUnit,
                        UnsupportedQuotient, UnsupportedRing)
from cgf.matrices import Mat
from cgf.rings import (FractionRing, IntegerRing, LocalizedIntegers,
                       ModularRing, PolyExt, PrimeField, QuotientRing,
                       RationalField, RingValue, TruncatedPolyLocal,
                       _is_prime, _prime_power_base,
                       _strong_probable_prime, arith, inverse, is_unit,
                       localize_denominator_check, ring_from_json,
                       substitute, unit_ideal_witness, ideal_combination)

from conftest import all_test_rings, local_test_rings


# ---------------------------------------------------------------------------
# arith

def test_arith_mod4():
    R = ModularRing(4)
    assert arith(R.coerce(3), R.coerce(3), "mul") == R.coerce(1)


def test_arith_localized_integers():
    R = LocalizedIntegers(5)
    a = R.coerce(Fraction(1, 2))
    b = R.coerce(Fraction(1, 3))
    assert arith(a, b, "add") == R.coerce(Fraction(5, 6))


def test_arith_truncated_poly():
    R = TruncatedPolyLocal(2, 2)
    x = R.coerce((0, 1))
    assert (x * x).is_zero()


def test_arith_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        arith(ModularRing(4).coerce(1), ModularRing(5).coerce(1), "add")


def test_ring_axioms_randomized():
    # 1250 triples x 8 axiom instances: >= 10^4 checked samples per ring
    rng = random.Random(7)
    for ring in all_test_rings():
        for _ in range(1250):
            a, b, c = (ring.random(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a + ring.zero() == a
            assert a * ring.one() == a
            assert a - a == ring.zero()


# ---------------------------------------------------------------------------
# units

def test_units_mod4():
    R = ModularRing(4)
    assert not is_unit(R.coerce(2))
    assert inverse(R.coerce(3)) == R.coerce(3)
    with pytest.raises(NotAUnit):
        inverse(R.coerce(2))


def test_nonconstant_poly_not_unit_over_domain():
    R = PolyExt(LocalizedIntegers(5), "T")
    f = R.coerce([2, 5])  # 2 + 5T
    assert not is_unit(f)


def test_poly_unit_with_nilpotent_tail():
    R = PolyExt(ModularRing(4), "T")
    f = R.coerce([1, 2])  # 1 + 2T, unit since (1+2T)(1-2T) = 1
    assert is_unit(f)
    assert f * inverse(f) == R.one()


def test_unit_times_inverse_on_local_rings():
    rng = random.Random(11)
    for ring in local_test_rings():
        seen = 0
        for a in ring.elements():
            if is_unit(a):
                assert a * inverse(a) == ring.one()
                seen += 1
        assert seen > 0
    R = LocalizedIntegers(5)
    for _ in range(200):
        a = R.random(rng)
        if is_unit(a):
            assert a * inverse(a) == R.one()


def test_pivot_existence_on_local_rings():
    # in a local ring a tuple generating the unit ideal has a unit entry
    rng = random.Random(13)
    for ring in local_test_rings():
        pool = list(ring.elements())
        for _ in range(300):
            tup = [rng.choice(pool) for _ in range(3)]
            witness = unit_ideal_witness(ring, tup)
            if witness is not None:
                assert ref.combination(ring, witness, tup) == \
                    ring.one().payload
                assert any(v.is_unit() for v in tup)


# ---------------------------------------------------------------------------
# substitution

def test_substitute_basics():
    Z4 = ModularRing(4)
    RT = PolyExt(Z4, "T")
    f = RT.coerce([0, 3, 1])  # T^2 + 3T
    assert substitute(f, Z4.coerce(0)).is_zero()
    assert substitute(f, Z4.coerce(1)).is_zero()  # 4 = 0 mod 4
    g = RT.coerce([0, 2])  # 2T
    assert substitute(g, Z4.coerce(2)).is_zero()


def test_substitute_constant_term_randomized():
    rng = random.Random(17)
    for base in (ModularRing(9), PrimeField(5), IntegerRing()):
        RT = PolyExt(base, "T")
        for _ in range(100):
            f = RT.random(rng)
            assert substitute(f, base.zero()) == RT.constant_term(f)


# ---------------------------------------------------------------------------
# localization of denominators

def test_localize_denominator_check_examples():
    Z6 = FractionRing(IntegerRing(), 6)
    RT = PolyExt(Z6, "T")
    two_thirds_t = RT.coerce([0, Fraction(2, 3)])
    assert localize_denominator_check(two_thirds_t, 3)
    minus_half_t = RT.coerce([0, Fraction(-1, 2)])
    assert localize_denominator_check(minus_half_t, -2)
    sixth_t = RT.coerce([0, Fraction(1, 6)])
    assert not localize_denominator_check(sixth_t, 3)


def test_fraction_ring_membership():
    Z6 = FractionRing(IntegerRing(), 6)
    Z6.coerce(Fraction(5, 36))
    with pytest.raises(DescriptorMismatch):
        Z6.coerce(Fraction(1, 5))
    assert is_unit(Z6.coerce(Fraction(4, 3)))
    assert not is_unit(Z6.coerce(Fraction(5, 6)))


# the three subrings of Q share one Fraction arithmetic; their admitted
# denominators, units and error messages stay their own
FRACTION_CASES = [
    (RationalField(), 1.5, "rational payload expected, got 1.5",
     [2, 5, Fraction(3, 7)], [0]),
    (LocalizedIntegers(5), Fraction(1, 5),
     "1/5 has denominator divisible by 5", [2, 3, Fraction(3, 7)],
     [0, 5, Fraction(10, 3)]),
    (FractionRing(IntegerRing(), 6), Fraction(1, 5),
     "1/5 does not lie in Z[1/6]", [2, 3, Fraction(4, 3)],
     [0, 5, Fraction(5, 6)]),
]


@pytest.mark.parametrize("ring, bad, message, units, non_units",
                         FRACTION_CASES, ids=["Q", "Z_(5)", "Z[1/6]"])
def test_fraction_rings(ring, bad, message, units, non_units):
    with pytest.raises(DescriptorMismatch) as exc:
        ring.coerce(bad)
    assert exc.value.code == "descriptor_mismatch"
    assert exc.value.message == message
    if isinstance(bad, Fraction):
        with pytest.raises(DescriptorMismatch) as exc:
            ring.value_from_json([bad.numerator, bad.denominator])
        assert exc.value.message == message
    for other in (ModularRing(5).coerce(1), PolyExt(ring).coerce(1)):
        with pytest.raises(DescriptorMismatch, match="value from another ring"):
            ring.coerce(other)
    for u in units:
        v = ring.coerce(u)
        assert v.is_unit() and v * v.inverse() == ring.one()
    for n in non_units:
        v = ring.coerce(n)
        assert not v.is_unit()
        with pytest.raises(NotAUnit) as exc:
            v.inverse()
        assert exc.value.message == f"{v} is not a unit in {ring}"
    x = ring.coerce(Fraction(2, 3))
    assert ring.value_from_json(x.to_json()) == x
    assert x.to_json() == [2, 3] and ring.coerce(7).to_json() == [7, 1]


def test_fraction_ring_inputs_by_kind():
    Z = IntegerRing()
    assert FractionRing(Z, 6).coerce(Z.coerce(3)) == FractionRing(Z, 6).coerce(3)
    assert LocalizedIntegers(5).coerce((1, 2)).payload == Fraction(1, 2)
    for ring in (RationalField(), LocalizedIntegers(5)):
        with pytest.raises(DescriptorMismatch, match="value from another ring"):
            ring.coerce(Z.coerce(3))
    with pytest.raises(DescriptorMismatch,
                       match="rational payload expected"):
        RationalField().coerce((1, 2))


def test_base_coerce():
    for ring in (IntegerRing(), RationalField(), ModularRing(6),
                 PrimeField(5)):
        v = ring.coerce(4)
        assert ring.coerce(v) is v
        with pytest.raises(DescriptorMismatch, match="value from another ring"):
            ring.coerce(ModularRing(7).coerce(4))
    assert ModularRing(6).coerce(-1).payload == 5
    with pytest.raises(DescriptorMismatch, match="residue payload expected"):
        ModularRing(6).coerce("1")


def test_integer_payload_of_a_bool_is_an_int():
    # a bool is an int in Python, but its JSON is true/false, not the
    # integer the schema promises
    for ring in (IntegerRing(), QuotientRing(IntegerRing(), [0])):
        one = ring.coerce(True)
        assert type(one.payload) is int and one == ring.one()
        m = Mat(ring, [[True, 2], [False, 1]])
        assert json.dumps(m.to_json()["entries"]) == "[[1, 2], [0, 1]]"


def test_factor_by_trial_division():
    assert list(ref.factor(360)) == [(2, 3), (3, 2), (5, 1)]
    assert list(ref.factor(97)) == [(97, 1)]
    assert list(ref.factor(2 * 101 ** 2)) == [(2, 1), (101, 2)]
    assert [list(ref.factor(n)) for n in (1, 0, -4)] == [[], [], []]
    assert [n for n in range(-2, 40) if _is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert [_prime_power_base(n) for n in (0, 1, 2, 8, 9, 12, 25, 97, 100)] \
        == [None, None, 2, 2, 3, None, 5, 97, None]
    # both stop at the smallest prime factor, never searching the cofactor
    assert not _is_prime(2 * (10 ** 12 + 39))
    assert _prime_power_base(2 * (10 ** 12 + 39)) is None


def test_classifier_matches_trial_division_below_10_5():
    for n in range(-2, 10 ** 5):
        factors = list(ref.factor(n))
        assert _is_prime(n) == (factors == [(n, 1)]), n
        assert _prime_power_base(n) == (
            factors[0][0] if len(factors) == 1 else None), n


def test_a_prime_field_classifies_its_modulus_once(monkeypatch):
    # F_p takes Z/p's classification of p: the 13 strong probable-prime
    # tests that decide 10^18 + 3 run once, as for Z/p
    calls = []
    spp = rings._strong_probable_prime
    monkeypatch.setattr(rings, "_strong_probable_prime",
                        lambda n, a: calls.append(n) or spp(n, a))
    p = 10 ** 18 + 3
    for build in (ModularRing, PrimeField):
        calls.clear()
        assert build(p).is_field
        assert calls == [p] * 13
    for n in (0, 1, -3, 4, True):
        with pytest.raises(UnsupportedRing, match=f"^{n} is not prime$"):
            PrimeField(n)


# the first 13 prime bases decide primality exactly below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017); M89 = 2^89 - 1 is a prime
# above it
_MR_BOUND = 3317044064679887385961981
_M89 = 2 ** 89 - 1


def test_classifier_on_strong_pseudoprimes_and_large_moduli():
    # strong pseudoprimes to the first 4, 11 and 12 prime bases: a later
    # base proves each composite
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for n, liars in ((3215031751, 4), (3825123056546413051, 11),
                     (318665857834031151167461, 12)):
        assert all(_strong_probable_prime(n, a) for a in bases[:liars])
        assert not _is_prime(n) and _prime_power_base(n) is None
        assert not ModularRing(n).is_local
    # the bound itself is composite and fools all 13 bases
    with pytest.raises(UnsupportedRing):
        _is_prime(_MR_BOUND)
    p, q = 10 ** 18 + 3, 10 ** 18 + 9
    assert _is_prime(p) and _is_prime(q) and not _is_prime(p * q)
    assert [_prime_power_base(n) for n in (p, p ** 3, p * q, 2 * p ** 2,
                                           p ** 2 * q)] == [
        p, p, None, None, None]
    assert ModularRing(p ** 2).is_local and not ModularRing(p ** 2).is_field
    assert PrimeField(p).is_field
    # above the bound a composite is still proven composite, and a probable
    # prime is refused rather than guessed
    assert _M89 > _MR_BOUND and p * q * q > _MR_BOUND
    assert not _is_prime(_M89 * p) and _prime_power_base(_M89 * p) is None
    assert _prime_power_base(p * q * q) is None
    for build in (ModularRing, PrimeField, LocalizedIntegers,
                  lambda n: TruncatedPolyLocal(n, 2),
                  lambda n: ModularRing(n ** 2)):
        with pytest.raises(UnsupportedRing, match="cannot decide whether "
                           f"{_M89} is prime"):
            build(_M89)


# ---------------------------------------------------------------------------
# descriptor flags and tree

def test_local_flags():
    assert ModularRing(4).is_local
    assert ModularRing(9).is_local
    assert not ModularRing(6).is_local
    assert PrimeField(7).is_local
    assert TruncatedPolyLocal(3, 2).is_local
    assert LocalizedIntegers(5).is_local
    assert not PolyExt(ModularRing(4)).is_local
    assert not FractionRing(IntegerRing(), 6).is_local
    assert not IntegerRing().is_local


def test_residue_size_matches_brute_force():
    # kappa = |R/M| = q / |M|, M the non-units of a finite local ring;
    # a non-local, infinite or zero ring has no residue size
    F2x, F3x, F5x = (PolyExt(PrimeField(p), "x") for p in (2, 3, 5))
    for ring in local_test_rings() + [
            QuotientRing(IntegerRing(), [9]), ModularRing(27),
            QuotientRing(F3x, [[1, 0, 1]]), QuotientRing(F5x, [[2, 0, 1]]),
            QuotientRing(F2x, [[1, 0, 1]]),
            QuotientRing(F3x, [[1, 0, 2, 0, 1]])]:
        non_units = sum(not v.is_unit() for v in ring.elements())
        assert ring.residue_size == ring.cardinality() // non_units, ring
    for ring in (ModularRing(6), QuotientRing(F2x, [[0, 1, 1]]),
                 ModularRing(1), IntegerRing(), RationalField(),
                 LocalizedIntegers(5)):
        assert ring.residue_size is None, ring


def test_quotient_integer_style():
    Q = QuotientRing(ModularRing(4), [2])
    assert Q.modulus == 2
    assert Q.is_local
    assert Q.coerce(3) == Q.coerce(1)
    Z = IntegerRing()
    Q2 = QuotientRing(Z, [Z.coerce(6)])
    assert Q2.modulus == 6 and not Q2.is_local
    # projection / lift round trip
    v = Z.coerce(7)
    assert Q2.lift(Q2.project(v)) == Z.coerce(1)


def test_quotient_poly_style():
    F5 = PrimeField(5)
    RT = PolyExt(F5, "x")
    Q = QuotientRing(RT, [RT.coerce([1, 0, 1])])  # x^2 + 1
    x = Q.coerce(RT.variable())
    assert x * x == Q.coerce(-1)
    inv = inverse(x)
    assert x * inv == Q.one()
    with pytest.raises(UnsupportedQuotient):
        QuotientRing(RT, [RT.coerce([1, 0, 1]), RT.coerce([2])])


def test_degree_cap():
    RT = PolyExt(ModularRing(5), "T", degree_cap=4)
    with pytest.raises(DegreeCapExceeded):
        RT.coerce([1] * 7)


def test_degree_cap_is_part_of_the_descriptor():
    F5 = PrimeField(5)
    capped, default = PolyExt(F5, "T", degree_cap=4), PolyExt(F5, "T")
    assert capped != default and capped.key() != default.key()
    assert PolyExt(F5, "T", degree_cap=64) == default
    x, y = capped.one(), default.coerce([0] * 10 + [1])
    for a, b in ((x, y), (y, x)):
        with pytest.raises(DescriptorMismatch):
            a + b
    # the mismatch message tells the two rings apart; a default cap is not
    # shown, so default-cap text and witness bytes are unchanged
    with pytest.raises(DescriptorMismatch,
                       match=r"^operands live in different rings: "
                             r"F_5\[T; degree_cap=4\] vs F_5\[T\]$"):
        capped.one() + default.one()
    assert default.describe() == "F_5[T]"
    # the cap survives a JSON round trip, and a default cap is not written
    assert capped.to_json()["degree_cap"] == 4
    assert ring_from_json(capped.to_json()).degree_cap == 4
    assert ring_from_json(capped.to_json()) == capped
    assert default.to_json() == {"kind": "poly", "base": F5.to_json(),
                                 "var": "T"}


def test_residue_modulus():
    Z = IntegerRing()
    for ring, n in ((Z, 0), (ModularRing(6), 6), (PrimeField(5), 5),
                    (QuotientRing(Z, [6]), 6),
                    (QuotientRing(ModularRing(12), [6]), 6),
                    (QuotientRing(Z, [0]), 0), (RationalField(), None),
                    (LocalizedIntegers(5), None),
                    (PolyExt(ModularRing(6), "T"), None),
                    (QuotientRing(PolyExt(PrimeField(3)), [[1, 0, 1]]), None)):
        assert ring.integer_modulus == n, ring


def test_fraction_ring_base_restriction():
    with pytest.raises(UnsupportedRing):
        FractionRing(ModularRing(6), 2)


def test_serialization_round_trip():
    rng = random.Random(19)
    for ring in all_test_rings():
        back = ring_from_json(ring.to_json())
        assert back == ring
        for _ in range(20):
            v = ring.random(rng)
            assert back.value_from_json(v.to_json()) == v


def test_ideal_combination_mod4():
    R = ModularRing(4)
    gens = [R.coerce(2)]
    q = ideal_combination(R, gens, R.coerce(2))
    assert q is not None
    assert ref.combination(R, q, gens) == 2
    assert ideal_combination(R, gens, R.coerce(1)) is None


# ---------------------------------------------------------------------------
# element order

_F3x = PolyExt(PrimeField(3), "x")
_F9 = QuotientRing(_F3x, [[1, 0, 1]])
_F3_BY_X = QuotientRing(_F3x, [[0, 1]])  # F_3 as F_3[x]/(x)
RANK_RINGS = {
    "Z/1": ModularRing(1),
    "Z/6": ModularRing(6),
    "Z/12/(6)": QuotientRing(ModularRing(12), [6]),
    "F_5": PrimeField(5),
    "F_2[x]/(x^2)": TruncatedPolyLocal(2, 2),
    "F_3[x]/(x^3)": TruncatedPolyLocal(3, 3),
    "F_4": QuotientRing(PolyExt(PrimeField(2), "x"), [[1, 1, 1]]),
    "F_9": _F9,
    # coefficients in F_9 whose payload order is not F_9's rank order
    "F_9[y]/(y^2+x)": QuotientRing(PolyExt(_F9, "y"), [[(0, 1), 0, 1]]),
    "F_3[x]/(x)[y]/(y^2+1)": QuotientRing(PolyExt(_F3_BY_X, "y"),
                                          [[1, 0, 1]]),
    "F_2[x]/(x^2+x)": QuotientRing(PolyExt(PrimeField(2), "x"), [[0, 1, 1]]),
    "Z/5[x]/(x^3+2)": QuotientRing(PolyExt(ModularRing(5), "x"),
                                   [[2, 0, 0, 1]]),
}


@pytest.mark.parametrize("ring", RANK_RINGS.values(), ids=RANK_RINGS.keys())
def test_rank_is_the_sort_key_order(ring):
    # the ranks of the elements sorted by the old key are 0, 1, ..., q - 1,
    # the key ties no two of them, and unrank inverts rank
    key = lambda p: ref.sort_key(ring, p)  # noqa: E731
    payloads = sorted((v.payload for v in ring.elements()), key=key)
    q = ring.cardinality()
    assert len(payloads) == q
    assert all(key(a) < key(b) for a, b in zip(payloads, payloads[1:]))
    assert [ring.rank(p) for p in payloads] == list(range(q))
    assert [ring.unrank(r) for r in range(q)] == payloads


def test_rank_refuses_what_is_no_canonical_payload():
    # wrong type, out of range, a trailing zero, too long, unhashable
    junk = {
        "Z/6": [True, 1.0, "1", None, -1, 6, [1], (1,)],
        "Z/12/(6)": [6, 11, [0]],
        "F_3[x]/(x^3)": [1, [1], (3,), (-1,), (1, 0), (0, 0, 0, 1),
                         (1, 1.0), (True,), ([1],), ({},)],
        "F_9": [1, (1, 0), (3,), (0, 0, 1), [1], ([1],), ((1,),)],
        "F_9[y]/(y^2+x)": [(1,), ((1,), ()), ((0, 1), (1,), (1,)),
                           ((1, 0),), ((3,),), ([1],), [(1,)], (((1,),),)],
        "F_3[x]/(x)[y]/(y^2+1)": [((0,),), ((1,), ()), ((1, 1),), ((3,),),
                                  (1,), ([1],)],
        "Z/5[x]/(x^3+2)": [(5,), (1, 0), (0, 0, 0, 1), (1.0,), [1], ([1],)],
    }
    for name, payloads in junk.items():
        ring = RANK_RINGS[name]
        for p in payloads:
            assert ring.rank(p) is None, (name, p)


def test_an_infinite_ring_has_no_rank():
    Q = QuotientRing(PolyExt(RationalField(), "x"), [[1, 0, 1]])
    for ring in (IntegerRing(), QuotientRing(IntegerRing(), [0]), Q):
        for call in (lambda: ring.rank(()), lambda: ring.unrank(0)):
            with pytest.raises(UnsupportedRing, match="is not finite$"):
                call()


@pytest.mark.parametrize("ring", all_test_rings(), ids=str)
def test_reflected_sub_and_hash_agree_with_the_reference(ring):
    # int - value coerces the int, like value - value, and a value hashes
    # as an equal value built afresh from its payload
    rng = random.Random(f"rsub:{ring}")
    for _ in range(10):
        v = ring.random(rng)
        k = rng.randint(-9, 9)
        got = k - v
        assert got.ring == ring
        assert got.payload == ref.sub(ring, ring.coerce(k).payload, v.payload)
        assert got == ring.coerce(k) - v and got + v == ring.coerce(k)
        assert hash(v) == hash(RingValue(ring, v.payload))
        assert len({v, ring.coerce(v.payload), v + ring.zero()}) == 1


@pytest.mark.parametrize("base", [ModularRing(4), ModularRing(9),
                                  ModularRing(12), PrimeField(5),
                                  TruncatedPolyLocal(2, 2)], ids=str)
def test_poly_nilpotent_payload_matches_reference_powers(base):
    # f in R[T] is nilpotent iff some power is zero; then f lies in N[T]
    # for the nilradical N of R, and N^k = 0 for some k < q = |R|, so the
    # q-th power decides it
    rt = PolyExt(base, "T")
    rng = random.Random(f"nil:{base}")
    nilpotents = [v.payload for v in base.elements()
                  if base.is_nilpotent_payload(v.payload)]
    polys = [rt.canon([rng.choice(nilpotents) for _ in range(3)])
             for _ in range(15)]
    polys += [rt.random(rng).payload for _ in range(15)]
    for f in polys:
        power = rt.one().payload
        for _ in range(base.cardinality()):
            power = ref.mul(rt, power, f)
        assert rt.is_nilpotent_payload(f) == (power == ()), rt.render(f)
    # only a reduced base (F_5) has no nonzero nilpotent polynomial
    assert any(rt.is_nilpotent_payload(f) and f for f in polys) == (
        len(nilpotents) > 1)
    assert not all(rt.is_nilpotent_payload(f) for f in polys)
