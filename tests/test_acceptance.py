"""Acceptance criteria: every check is an exact (tolerance-zero) identity.

Each criterion prints one PASS line with its runtime when it completes; any
assertion failure fails the criterion.  Run with `pytest -s` to see the
lines as they appear.
"""

import itertools
import json
import random
import time
import warnings

import pytest

import reference as ref
from cgf.factor import (common_perp, roitman, sp_inverse, transvection_factor,
                        two_row_equiv, whitehead_linear, whitehead_symplectic)
from cgf.homotopy import (Homotopy, commutator_witness, homotopy_commute_linear,
                          homotopy_commute_orthogonal,
                          homotopy_commute_symplectic, vaserstein_transport)
from cgf.localglobal import patch, quillen_split
from cgf.matrices import Mat, block_perp, identity, membership, right_inverse
from cgf.oracle import OrbitTable, certify_equivalence, enumerate_orbits
from cgf.orthoquot import (FactoredOrthogonal, classify_o2, commutator_harness,
                           orth_inverse, vaserstein_quotient)
from cgf.reduce import (complete_orth, complete_sp, complete_um_linear,
                        reduce_row_linear)
from cgf.rings import (FractionRing, IntegerRing, ModularRing, PolyExt,
                       PrimeField, TruncatedPolyLocal)
from cgf.sampling import random_frame, random_unimodular_rows, random_word
from cgf.words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator,
                       apply_word_to_row, gen_matrix, word_from_pairs)
from cgf.errors import HalfNotInvertible, SplitExponentExhausted


def _report(number: int, label: str, started: float):
    print(f"PASS criterion {number}: {label} ({time.time() - started:.2f}s)")


def test_criterion_1_generator_form_preservation():
    # each generator's matrix is the reference kernel's, written from the
    # definition, and preserves the form by the reference product
    started = time.time()
    count = 0
    for m in (1, 2, 3):
        size = 2 * m
        for family, rings in ((FAMILY_SP, (ModularRing(4), PrimeField(5))),
                              (FAMILY_ORTH, (PrimeField(5),))):
            # the orthogonal family is defined where 1/2 exists: Z/5 here,
            # and construction over Z/4 is rejected outright
            for ring in rings:
                for i, j in itertools.permutations(range(1, size + 1), 2):
                    if family == FAMILY_ORTH and i == (j + 1 if j % 2
                                                       else j - 1):
                        continue
                    for z in ring.elements():
                        g = Generator(family, i, j, z, size)
                        assert gen_matrix(g) == ref.generator_matrix(g)
                        assert ref.is_member(gen_matrix(g), family)
                        count += 1
    with pytest.raises(HalfNotInvertible):
        Generator(FAMILY_ORTH, 1, 3, ModularRing(4).coerce(1), 4)
    # 396 symplectic (sizes 2, 4, 6 over Z/4 and Z/5) + 160 orthogonal
    # (sizes 4, 6 over Z/5; the size-2 orthogonal family is empty)
    assert count == 556
    _report(1, f"exhaustive se/oe form preservation ({count} generators)",
            started)


def test_criterion_2_local_row_reduction_exhaustive():
    started = time.time()
    rings = [ModularRing(4), ModularRing(8), ModularRing(9),
             TruncatedPolyLocal(2, 2), TruncatedPolyLocal(3, 2)]
    total = 0
    for ring in rings:
        for m in (2, 3):
            e1 = [ring.one()] + [ring.zero()] * (m - 1)
            seen_unimodular = 0
            for combo in itertools.product(list(ring.elements()), repeat=m):
                if not any(v.is_unit() for v in combo):
                    continue
                word = reduce_row_linear(Mat(ring, [list(combo)]))
                assert apply_word_to_row(list(combo), word) == e1
                assert len(word) <= 2 * m
                seen_unimodular += 1
            table = enumerate_orbits(ring, "row", FAMILY_LIN, m)
            assert table.orbit_count() == 1
            assert table.orbit_sizes() == [seen_unimodular]
            total += seen_unimodular
    _report(2, f"local rows reduce to e_1 and form one orbit ({total} rows)",
            started)


def test_criterion_3_completion_round_trips():
    started = time.time()
    rng = random.Random(20240803)
    rings = (ModularRing(9), PrimeField(5))

    lin_shapes = [(1, 3), (2, 3), (2, 4), (3, 3)]
    done = 0
    while done < 500:
        ring = rings[done % 2]
        n, m = lin_shapes[done % len(lin_shapes)]
        v, _ = random_unimodular_rows(rng, ring, n, m, 6)
        word = complete_um_linear(v)
        got = word.eval()
        assert Mat(ring, got.entries[:n]) == v
        assert got.det() == ring.one()
        done += 1

    sp_shapes = [(1, 2), (2, 3), (2, 2), (3, 3)]
    done = 0
    while done < 500:
        ring = rings[done % 2]
        n, m = sp_shapes[done % len(sp_shapes)]
        fr, _ = random_frame(rng, ring, "sp", n, m, 6)
        word = complete_sp(fr)
        got = word.eval()
        assert Mat(ring, got.entries[:2 * n]) == fr.mat
        assert membership(got, "Sp")
        done += 1

    orth_shapes = [(1, 3), (2, 4)]
    done = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while done < 500:
            ring = rings[done % 2]
            n, m = orth_shapes[done % len(orth_shapes)]
            fr, _ = random_frame(rng, ring, "orth", n, m, 6)
            word = complete_orth(fr)
            got = word.eval()
            assert Mat(ring, got.entries[:2 * n]) == fr.mat
            assert membership(got, "O")
            done += 1
    _report(3, "500 completion round trips per flavor, exact rows and "
               "membership", started)


def test_criterion_4_factorization_suite():
    started = time.time()
    rng = random.Random(20240804)
    rings = (ModularRing(9), PrimeField(5))

    for idx in range(200):
        ring = rings[idx % 2]
        d = random_word(rng, ring, FAMILY_LIN, 2 + idx % 2, 5).eval()
        w = whitehead_linear(d)
        assert w.eval() == d.block_perp(d.inverse())

    for idx in range(200):
        ring = rings[idx % 2]
        d = random_word(rng, ring, FAMILY_SP, 2 + 2 * (idx % 2), 5).eval()
        w = whitehead_symplectic(d)
        assert w.eval() == d.block_perp(sp_inverse(d))

    for idx in range(200):
        ring = rings[idx % 2]
        m = 3 + idx % 2
        col_mat, _ = random_unimodular_rows(rng, ring, 1, m, 5)
        c = col_mat.transpose()
        dual = right_inverse(c.transpose()).beta.transpose()
        u = Mat(ring, [[ring.random(rng) for _ in range(m)]])
        uc = (u @ c).entries[0][0]
        r = u - dual.scale(uc)
        w = transvection_factor(c, r)
        out = w.eval()
        assert out == identity(ring, m) + c @ r
        assert out.det() == ring.one()

    # oracle-backed confirmations on a finite ring
    Z4 = ModularRing(4)
    table = enumerate_orbits(Z4, "row", FAMILY_LIN, 3)
    for _ in range(40):
        v1m, _ = random_unimodular_rows(rng, Z4, 1, 3, 4)
        v1 = list(v1m.entries[0])
        w = right_inverse(v1m).beta.transpose()
        u = [Z4.random(rng) for _ in range(3)]
        uw = sum((x * y for x, y in zip(u, w.entries[0])), Z4.zero())
        u = [x - uw * y for x, y in zip(u, v1)]
        v2 = [x + y for x, y in zip(v1, u)]
        eps = common_perp(Mat(Z4, [v1]), Mat(Z4, [v2]), w)
        assert apply_word_to_row(v1, eps) == v2
        assert certify_equivalence(tuple(p.payload for p in v1),
                                   tuple(p.payload for p in v2),
                                   table) is not None
    confirmed = 0
    for _ in range(120):
        m, _ = random_unimodular_rows(rng, Z4, 2, 3, 5)
        eps = two_row_equiv(m, right_inverse(m))
        k1 = tuple(v.payload for v in m.entries[0])
        k2 = tuple(v.payload for v in m.entries[1])
        assert apply_word_to_row(list(m.entries[0]), eps) == list(m.entries[1])
        assert certify_equivalence(k1, k2, table) is not None
        confirmed += 1
    roit = 0
    attempts = 0
    while roit < 40 and attempts < 400:
        attempts += 1
        xm, _ = random_unimodular_rows(rng, Z4, 1, 3, 5)
        y = Mat(Z4, [[Z4.random(rng), Z4.random(rng)]])
        from cgf.errors import IdealNotComaximal
        try:
            eps = roitman(xm, 1, y)
        except IdealNotComaximal:
            continue
        x = list(xm.entries[0])
        target = [x[0]] + list(y.entries[0])
        assert apply_word_to_row(x, eps) == target
        assert certify_equivalence(tuple(v.payload for v in x),
                                   tuple(v.payload for v in target),
                                   table) is not None
        roit += 1
    assert roit == 40
    _report(4, "Whitehead words, transvections, and oracle-confirmed row "
               "equivalences", started)


def test_criterion_5_homotopy_commutativity():
    started = time.time()
    rng = random.Random(20240805)
    Z9, Z5 = ModularRing(9), PrimeField(5)

    lin_shapes = [(2, 3), (2, 4), (3, 3)]
    for idx in range(300):
        ring = (Z9, Z5)[idx % 2]
        rt = PolyExt(ring, "T")
        n, m = lin_shapes[idx % 3]
        hom = Homotopy.from_word(
            "linear",
            random_word(rng, ring, FAMILY_LIN, n, 2).times_variable(rt))
        v, _ = random_unimodular_rows(rng, ring, n, m, 4)
        res = homotopy_commute_linear(hom, v)
        assert res.witness.all_passed()
        if n == m:
            # corollary shape at T = 1: a b = b a eval(eps)
            eps = commutator_witness(hom, v)
            alpha = hom.at(1)
            assert (alpha @ v) == (v @ alpha @ eps.eval())

    sp_shapes = [(2, 3), (3, 3)]
    for idx in range(300):
        ring = (Z9, Z5)[idx % 2]
        rt = PolyExt(ring, "T")
        n, m = sp_shapes[idx % 2]
        hom = Homotopy.from_word(
            "symplectic",
            random_word(rng, ring, FAMILY_SP, 2 * n, 2).times_variable(rt))
        fr, _ = random_frame(rng, ring, "sp", n, m, 4)
        res = homotopy_commute_symplectic(hom, fr)
        assert res.witness.all_passed()
        if n == m:
            eps = commutator_witness(hom, fr.mat)
            alpha = hom.at(1)
            assert (alpha @ fr.mat) == (fr.mat @ alpha @ eps.eval())

    orth_shapes = [(2, 4), (2, 5)]
    for idx in range(300):
        ring = (Z9, Z5)[idx % 2]
        rt = PolyExt(ring, "T")
        n, m = orth_shapes[idx % 2]
        hom = Homotopy.from_word(
            "orthogonal",
            random_word(rng, ring, FAMILY_ORTH, 2 * n, 2).times_variable(rt))
        fr, _ = random_frame(rng, ring, "orth", n, m, 4)
        res = homotopy_commute_orthogonal(hom, fr)
        assert res.witness.all_passed()
    _report(5, "300 witnessed homotopy commutations per flavor with "
               "commutator specializations", started)


def test_criterion_6_vaserstein_transport():
    started = time.time()
    rng = random.Random(20240806)
    Z9, Z5 = ModularRing(9), PrimeField(5)
    done = 0
    while done < 50:
        ring = (Z9, Z5)[done % 2]
        d = random_word(rng, ring, FAMILY_LIN, 2, 4).eval()
        if d.det() != ring.one():
            continue
        v, _ = random_unimodular_rows(rng, ring, 2, 3, 4)
        res = vaserstein_transport(d, v, "linear")
        assert res.witness.all_passed()
        assert res.word.eval() == block_perp(res.sigma, d.inverse())
        done += 1
    done = 0
    while done < 50:
        ring = (Z9, Z5)[done % 2]
        d = random_word(rng, ring, FAMILY_SP, 2 + 2 * (done % 2), 4).eval()
        n = d.rows // 2
        fr, _ = random_frame(rng, ring, "sp", n, n + 1, 4)
        res = vaserstein_transport(d, fr, "symplectic")
        assert res.witness.all_passed()
        assert res.word.eval() == block_perp(res.sigma, sp_inverse(d))
        done += 1
    _report(6, "100 transports with exact block checks and certified words",
            started)


def test_criterion_7_quillen_split_and_patch():
    started = time.time()
    from fractions import Fraction
    rng = random.Random(20240807)
    z = IntegerRing()
    rt = PolyExt(FractionRing(z, 6), "T")

    theta = word_from_pairs(rt, 2, FAMILY_LIN,
                            [(1, 2, rt.coerce([0, Fraction(1, 6)]))])
    res = quillen_split(theta, 3, -2, exponent=2)
    assert res.b == rt.base.coerce(4)
    assert res.witness.all_passed()

    split_count, exhausted = 0, 0
    for _ in range(50):
        gens = []
        for pos in ((1, 2), (2, 3), (1, 3)):
            num = rng.randint(-6, 6)
            den = 6 ** rng.randrange(3)
            deg = rng.randrange(1, 3)
            coeffs = [Fraction(0)] * deg + [Fraction(num, den)]
            gens.append((pos[0], pos[1], rt.coerce(coeffs)))
        theta = word_from_pairs(rt, 3, FAMILY_LIN, gens)
        try:
            res = quillen_split(theta, 3, -2, n_max=16)
        except SplitExponentExhausted:
            exhausted += 1
            continue
        # zero false certifications: re-verify everything independently
        assert (res.theta_a.eval() @ res.theta_b.eval()) == theta.eval()
        assert res.witness.all_passed()
        split_count += 1
    assert split_count + exhausted == 50
    assert split_count > 0

    r1 = PolyExt(FractionRing(z, 3), "T")
    r2 = PolyExt(FractionRing(z, -2), "T")
    for _ in range(20):
        entries = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
        m1 = Mat(r1, [[r1.coerce([Fraction(9 * e, 9)]) for e in row]
                      for row in entries])
        m2 = Mat(r2, [[r2.coerce([Fraction(4 * e, 4)]) for e in row]
                      for row in entries])
        glued = patch(m1, m2, 3, -2)
        zt = PolyExt(z, "T")
        assert glued == Mat(zt, [[zt.coerce(e) for e in row]
                                 for row in entries])
    _report(7, f"documented split (b = 4), {split_count} splits / "
               f"{exhausted} exhaustions, exact patches", started)


def test_criterion_8_orthogonal_quotient():
    started = time.time()
    rng = random.Random(20240808)
    for p, expected in ((5, 8), (7, 12)):
        ring = PrimeField(p)
        count = 0
        for quad in itertools.product(list(ring.elements()), repeat=4):
            m = Mat(ring, [[quad[0], quad[1]], [quad[2], quad[3]]])
            if membership(m, "O"):
                cls = classify_o2(m)
                assert cls.reconstruct() == m
                count += 1
        assert count == expected

    Z5 = PrimeField(5)
    for _ in range(100):
        w = random_word(rng, Z5, FAMILY_ORTH, 6, 6)
        delta, word = vaserstein_quotient(w.eval())
        assert delta.is_identity()
        assert block_perp(identity(Z5, 4), delta) @ word.eval() == w.eval()

    from cgf.orthoquot import O2Class
    from conftest import random_unit
    shapes = ("diag", "antidiag")
    for idx in range(100):
        da = O2Class(shapes[idx % 2], random_unit(rng, Z5)).reconstruct()
        db = O2Class(shapes[(idx // 2) % 2], random_unit(rng, Z5)).reconstruct()
        a = FactoredOrthogonal(da, random_word(rng, Z5, FAMILY_ORTH, 6, 4))
        b = FactoredOrthogonal(db, random_word(rng, Z5, FAMILY_ORTH, 6, 4))
        word, witness = commutator_harness(a, b)
        assert witness.all_passed()
        am, bm = a.matrix(), b.matrix()
        comm = am @ bm @ orth_inverse(am) @ orth_inverse(bm)
        assert word.eval() == block_perp(comm, identity(Z5, 2))

    rx = PolyExt(Z5, "X")
    for idx in range(20):
        da = O2Class("diag", rx.coerce(2)).reconstruct()
        a = FactoredOrthogonal(da, random_word(rng, rx, FAMILY_ORTH, 6, 3))
        b = FactoredOrthogonal.from_word(random_word(rng, rx, FAMILY_ORTH,
                                                     6, 3))
        word, witness = commutator_harness(a, b)
        assert witness.all_passed()
    _report(8, "O_2 classification exhaustive, trivial corners for "
               "elementary words, 120 commutator certificates", started)


def test_criterion_9_oracle_self_consistency():
    started = time.time()
    Z2 = ModularRing(2)
    t1 = enumerate_orbits(Z2, "row", FAMILY_LIN, 2)
    assert t1.orbit_count() == 1 and t1.orbit_sizes() == [3]
    for ring, size in ((ModularRing(4), 3), (ModularRing(9), 2)):
        a = enumerate_orbits(ring, "row", FAMILY_LIN, size)
        b = enumerate_orbits(ring, "row", FAMILY_LIN, size)
        assert a.orbit_count() == 1
        assert a.orbit_of == b.orbit_of
        assert a.pred == b.pred
        dumped = json.dumps(a.to_json())
        back = OrbitTable.from_json(json.loads(dumped))
        assert json.dumps(back.to_json()) == dumped
    _report(9, "orbit tables are reproducible and survive a JSON round "
               "trip byte for byte; Um_2(Z/2) has one orbit of size 3",
            started)
