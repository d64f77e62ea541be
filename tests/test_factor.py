"""Factorizations: Whitehead words, transvections, row equivalences."""

import random

import pytest

import reference as ref
from cgf.errors import (BadPerp, IdealNotComaximal, NotInvertible,
                        NotPerpendicular, SizeBound)
from cgf.factor import (_block_gens, common_perp, roitman, sp_inverse,
                        transvection_factor, two_row_equiv, whitehead_linear,
                        whitehead_symplectic)
from cgf.matrices import (Mat, RightInverseCert, identity, membership,
                          right_inverse)
from cgf.oracle import certify_equivalence, enumerate_orbits
from cgf.rings import IntegerRing, ModularRing, PrimeField
from cgf.sampling import random_unimodular_rows, random_word
from cgf.words import (FAMILY_LIN, FAMILY_SP, Generator, GenWord,
                       apply_word_to_row)


def test_whitehead_linear_identity_input():
    Z9 = ModularRing(9)
    w = whitehead_linear(identity(Z9, 2))
    assert w.eval().is_identity()


def test_whitehead_linear_unit_example():
    Z4 = ModularRing(4)
    d = Mat(Z4, [[3]])
    w = whitehead_linear(d)
    assert w.eval() == Mat(Z4, [[3, 0], [0, 3]])


def test_whitehead_linear_elementary_block():
    Z = IntegerRing()
    d = Mat(Z, [[1, 1], [0, 1]])
    w = whitehead_linear(d)
    assert w.eval() == d.block_perp(d.inverse())


def test_whitehead_linear_randomized():
    rng = random.Random(3)
    for ring in (ModularRing(9), PrimeField(5)):
        for _ in range(30):
            word = random_word(rng, ring, FAMILY_LIN, 3, 5)
            d = word.eval()
            w = whitehead_linear(d)
            assert w.eval() == d.block_perp(d.inverse())


def _block_upper_gens_ref(a, n, size):
    # reference: the upper block builder before the one block builder;
    # [[I, A], [0, I]] as e_(i, n+j)(A_ij), row-major, from the boxed entries
    return [Generator(FAMILY_LIN, i + 1, n + j + 1, a.entries[i][j], size)
            for i in range(n) for j in range(a.cols)
            if not a.entries[i][j].is_zero()]


def _block_lower_gens_ref(b, n, size):
    # reference: [[I, 0], [B, I]] as e_(n+i, j)(B_ij), row-major
    return [Generator(FAMILY_LIN, n + i + 1, j + 1, b.entries[i][j], size)
            for i in range(n) for j in range(n)
            if not b.entries[i][j].is_zero()]


def _whitehead_linear_ref(d):
    # reference: the Whitehead word assembled from the two old builders
    n, ident = d.rows, identity(d.ring, d.rows)
    gens = (_block_upper_gens_ref(d, n, 2 * n)
            + _block_lower_gens_ref(-d.inverse(), n, 2 * n)
            + _block_upper_gens_ref(d, n, 2 * n)
            + _block_upper_gens_ref(-ident, n, 2 * n)
            + _block_lower_gens_ref(ident, n, 2 * n)
            + _block_upper_gens_ref(-ident, n, 2 * n))
    return GenWord(d.ring, 2 * n, FAMILY_LIN, tuple(gens))


def test_block_gens_match_the_two_old_builders():
    rng = random.Random(17)
    for ring in (ModularRing(9), PrimeField(5), ModularRing(4),
                 IntegerRing()):
        for n in (1, 2, 3, 4):
            for cols in (1, n, n + 2):
                upper = Mat(ring, [[rng.choice([0, 0, 1, 2, -1])
                                    for _ in range(cols)] for _ in range(n)])
                lower = Mat(ring, [[rng.choice([0, 0, 1, 3])
                                    for _ in range(n)] for _ in range(n)])
                size = 2 * n + cols
                assert list(_block_gens(upper, 0, n, size)) == \
                    _block_upper_gens_ref(upper, n, size)
                assert list(_block_gens(lower, n, 0, size)) == \
                    _block_lower_gens_ref(lower, n, size)
            d = (random_word(rng, ring, FAMILY_LIN, n, 6).eval() if n > 1
                 else Mat(ring, [[-1]]))
            assert whitehead_linear(d) == _whitehead_linear_ref(d)


def test_whitehead_linear_rejects_non_units():
    Z4 = ModularRing(4)
    with pytest.raises(NotInvertible):
        whitehead_linear(Mat(Z4, [[2]]))


def test_whitehead_symplectic_identity_and_generator():
    Z5 = PrimeField(5)
    assert whitehead_symplectic(identity(Z5, 2)).eval().is_identity()
    w_in = random_word(random.Random(1), Z5, FAMILY_SP, 2, 1)
    d = w_in.eval()
    w = whitehead_symplectic(d)
    assert w.eval() == d.block_perp(sp_inverse(d))


def test_whitehead_symplectic_randomized():
    rng = random.Random(9)
    for ring in (ModularRing(9), PrimeField(5)):
        for _ in range(25):
            d = random_word(rng, ring, FAMILY_SP, 4, 5).eval()
            w = whitehead_symplectic(d)
            target = d.block_perp(sp_inverse(d))
            assert w.eval() == target
            assert membership(w.eval(), "Sp")


def test_transvection_trivia():
    Z9 = ModularRing(9)
    r0 = Mat(Z9, [[0, 0, 0]])
    c = Mat(Z9, [[1], [0], [0]])
    assert len(transvection_factor(c, r0)) == 0
    r = Mat(Z9, [[0, 5, 7]])
    w = transvection_factor(c, r)
    assert [(g.i, g.j, g.param.payload) for g in w] == [(1, 2, 5), (1, 3, 7)]


def test_transvection_frozen_example():
    Z4 = ModularRing(4)
    c = Mat(Z4, [[2], [3], [0]])
    r = Mat(Z4, [[3, 2, 2]])
    w = transvection_factor(c, r)
    assert w.eval() == identity(Z4, 3) + c @ r
    with pytest.raises(NotPerpendicular):
        transvection_factor(c, Mat(Z4, [[1, 0, 0]]))
    with pytest.raises(SizeBound):
        transvection_factor(Mat(Z4, [[1], [0]]), Mat(Z4, [[0, 1]]))


def test_transvection_randomized_det_one():
    rng = random.Random(17)
    Z9 = ModularRing(9)
    for _ in range(40):
        col, _ = random_unimodular_rows(rng, Z9, 1, 4, 5)
        c = col.transpose()
        # build r with r . c = 0: r = u - (u.c) * c_dual where c_dual . c = 1
        cert = right_inverse(c.transpose())
        dual = cert.beta.transpose()  # 1 x 4 with dual . c = 1
        u = Mat(Z9, [[Z9.random(rng) for _ in range(4)]])
        uc = (u @ c).entries[0][0]
        r = u - dual.scale(uc)
        w = transvection_factor(c, r)
        out = w.eval()
        assert out == identity(Z9, 4) + c @ r
        assert out.det() == Z9.one()


def test_common_perp_examples():
    Z9 = ModularRing(9)
    v1 = Mat(Z9, [[1, 0, 0]])
    v2 = Mat(Z9, [[1, 1, 0]])
    w = Mat(Z9, [[1, 0, 0]])
    eps = common_perp(v1, v2, w)
    assert apply_word_to_row(list(v1.entries[0]), eps) == list(v2.entries[0])
    assert len(common_perp(v1, v1, w)) == 0
    with pytest.raises(BadPerp):
        common_perp(v1, v2, Mat(Z9, [[2, 0, 0]]))


def test_common_perp_randomized_with_oracle():
    rng = random.Random(23)
    Z4 = ModularRing(4)
    table = enumerate_orbits(Z4, "row", FAMILY_LIN, 3)
    for _ in range(25):
        v1m, _ = random_unimodular_rows(rng, Z4, 1, 3, 4)
        v1 = list(v1m.entries[0])
        cert = right_inverse(v1m)
        w = cert.beta.transpose()
        # v2 = v1 + u with u.w^t = 0
        u = [Z4.random(rng) for _ in range(3)]
        uw = Z4.coerce(ref.combination(Z4, u, w.entries[0]))
        v1w = w
        u = [a - uw * b for a, b in zip(u, v1)]  # (u - (u.w) v1) . w = 0
        v2 = [a + b for a, b in zip(v1, u)]
        eps = common_perp(Mat(Z4, [v1]), Mat(Z4, [v2]), v1w)
        assert apply_word_to_row(v1, eps) == v2
        # oracle confirms the equivalence independently
        assert certify_equivalence(tuple(p.payload for p in v1),
                                   tuple(p.payload for p in v2),
                                   table) is not None


def test_two_row_equiv():
    Z4 = ModularRing(4)
    a = Mat(Z4, [[1, 0, 0], [0, 1, 0]])
    eps = two_row_equiv(a, right_inverse(a))
    assert apply_word_to_row(list(a.entries[0]), eps) == list(a.entries[1])

    rng = random.Random(29)
    for _ in range(25):
        m, _ = random_unimodular_rows(rng, Z4, 2, 5, 6)
        eps = two_row_equiv(m, right_inverse(m))
        assert apply_word_to_row(list(m.entries[0]), eps) == list(m.entries[1])


def test_two_row_equiv_equal_rows_impossible():
    # a 2 x n matrix with equal rows is never right invertible; the
    # degenerate "equal rows" equivalence lives at the common_perp level
    from cgf.errors import NotRightInvertible
    Z9 = ModularRing(9)
    a = Mat(Z9, [[1, 0, 0], [1, 0, 0]])
    with pytest.raises(NotRightInvertible):
        right_inverse(a)


def test_roitman_frozen_example():
    Z4 = ModularRing(4)
    x = Mat(Z4, [[2, 1, 0]])
    y = Mat(Z4, [[0, 1]])
    eps = roitman(x, 1, y)
    assert apply_word_to_row(list(x.entries[0]), eps) == \
        [Z4.coerce(2), Z4.zero(), Z4.one()]
    # shape I_k ⊥ e: no generator touches the leading column as a target
    assert all(g.j != 1 for g in eps)


def test_roitman_identity_tail():
    Z9 = ModularRing(9)
    x = Mat(Z9, [[2, 1, 5]])  # unit leading entry keeps the ideal condition
    y = Mat(Z9, [[1, 5]])
    eps = roitman(x, 1, y)
    assert apply_word_to_row(list(x.entries[0]), eps) == list(x.entries[0])


def test_roitman_k_zero_runs_two_row():
    Z4 = ModularRing(4)
    x = Mat(Z4, [[1, 0, 0]])
    y = Mat(Z4, [[0, 1, 0]])
    eps = roitman(x, 0, y)
    assert apply_word_to_row(list(x.entries[0]), eps) == list(y.entries[0])


def test_roitman_comaximality_guard():
    Z4 = ModularRing(4)
    x = Mat(Z4, [[2, 2, 0]])
    y = Mat(Z4, [[2, 0]])
    with pytest.raises(IdealNotComaximal):
        roitman(x, 1, y)


def test_roitman_oracle_cross_check():
    rng = random.Random(31)
    Z4 = ModularRing(4)
    table = enumerate_orbits(Z4, "row", FAMILY_LIN, 3)
    count = 0
    for _ in range(60):
        xm, _ = random_unimodular_rows(rng, Z4, 1, 3, 5)
        x = list(xm.entries[0])
        y = [Z4.random(rng), Z4.random(rng)]
        try:
            eps = roitman(Mat(Z4, [x]), 1, Mat(Z4, [y]))
        except IdealNotComaximal:
            continue
        got = apply_word_to_row(x, eps)
        target = [x[0]] + y
        assert got == target
        if tuple(p.payload for p in target) in table.orbit_of:
            assert certify_equivalence(tuple(p.payload for p in x),
                                       tuple(p.payload for p in target),
                                       table) is not None
        count += 1
    assert count > 10


def _refusal(fn, *args):
    out = ref.outcome(fn, *args)
    return (out.code, out.message) if isinstance(out, ref.Raised) else out


def test_cross_ring_inputs_keep_their_errors():
    # the rings are compared before any entry is read: a dot product of
    # the payloads of two rings would answer here (r . c = 3 != 0 and
    # <v1, w> = 2 != 1), and the answers would be not_perpendicular and
    # bad_perp
    Z9, F5 = ModularRing(9), PrimeField(5)
    different = ("shape_mismatch", "matrices over different rings")
    assert _refusal(transvection_factor, Mat(Z9, [[1], [0], [0]]),
                    Mat(F5, [[1, 1, 2]])) == different
    assert _refusal(common_perp, Mat(Z9, [[1, 0, 0]]), Mat(Z9, [[1, 1, 0]]),
                    Mat(F5, [[2, 0, 0]])) == different
    assert _refusal(common_perp, Mat(F5, [[1, 0, 0]]), Mat(Z9, [[1, 1, 0]]),
                    Mat(F5, [[1, 0, 0]])) == different
    # two_row_equiv reads its witness row off a certificate, which refuses
    # a right inverse over another ring
    a = Mat(F5, [[1, 0, 0], [0, 1, 0]])
    beta = Mat(Z9, [[1, 0], [0, 1], [0, 0]])
    assert _refusal(lambda: two_row_equiv(
        a, RightInverseCert(a, beta))) == different
    # roitman's tail minors multiply ring values of x and y
    operands = ("descriptor_mismatch",
                "operands live in different rings: Z/9 vs F_5")
    assert _refusal(roitman, Mat(Z9, [[1, 0, 0]]), 0,
                    Mat(F5, [[0, 1, 0]])) == operands
    assert _refusal(roitman, Mat(Z9, [[2, 1, 0]]), 1,
                    Mat(F5, [[1, 0]])) == operands


def test_roitman_checks_each_residual_step_against_the_word_limit(
        monkeypatch):
    # a unit leading entry makes the quotient the zero ring, so the lifted
    # word is empty and both tail positions are cleared by residual steps;
    # each step is checked as a word of one generator
    Z9 = ModularRing(9)
    x, y = Mat(Z9, [[1, 2, 0]]), Mat(Z9, [[5, 3]])
    assert len(roitman(x, 1, y)) == 2
    monkeypatch.setenv("CGF_WORD_LIMIT", "0")
    assert _refusal(roitman, x, 1, y) == (
        "word_limit_exceeded", "word length 1 exceeds limit 0")


def _perpendicular_row(rng, ring, c):
    """A seeded row r with r . c = 0 for a unimodular column c."""
    dual = right_inverse(c.transpose()).beta.transpose()  # dual . c = 1
    u = [ring.random(rng) for _ in range(c.rows)]
    uc = ring.coerce(ref.sum_of_products(
        ring, ring.zero().payload, [x.payload for x in u],
        [x for (x,) in c._grid]))
    return Mat(ring, [[a - uc * ring.coerce(d) for a, d in
                       zip(u, dual._grid[0])]])


@pytest.mark.parametrize("ring", [ModularRing(9), PrimeField(5),
                                  ModularRing(4)], ids=str)
def test_row_lemmas_match_reference(ring):
    # each word acts on rows as its claim says, by the reference's action
    rng = random.Random(41)
    for m in (3, 4, 5):
        for _ in range(6):
            col, _ = random_unimodular_rows(rng, ring, 1, m, 5)
            c = col.transpose()
            r = _perpendicular_row(rng, ring, c)
            w = transvection_factor(c, r)
            a = Mat(ring, [[ring.random(rng) for _ in range(m)]
                           for _ in range(3)])
            # a (I + c r) = a + (a c) r
            assert ref.times_gens(a, w.gens) == ref.mat_add(
                a, ref.matmul(ref.matmul(a, c), r))

            v1, _ = random_unimodular_rows(rng, ring, 1, m, 5)
            w_row = right_inverse(v1).beta.transpose()  # <v1, w> = 1
            u = _perpendicular_row(rng, ring, w_row.transpose())
            v2 = ref.mat_add(v1, u)
            eps = common_perp(v1, v2, w_row)
            assert ref.act_rows(ring, v1._grid, eps.gens) == list(v2._grid)

    found = 0
    for n, k in ((2, 1), (3, 1), (3, 2), (3, 0), (4, 1)):
        for _ in range(12):
            x, _ = random_unimodular_rows(rng, ring, 1, n + 1, 5)
            y = Mat(ring, [[ring.random(rng) for _ in range(n - k + 1)]])
            try:
                eps = roitman(x, k, y)
            except IdealNotComaximal:
                continue
            found += 1
            assert ref.act_rows(ring, x._grid, eps.gens) == [
                x._grid[0][:k] + y._grid[0]]
            # shape I_k ⊥ e: no generator targets a leading column
            assert all(g.j > k for g in eps)
    assert found > 20
