"""Matrices: forms, membership, determinants, right inverses, frames."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import reference as ref
from cgf import matrices
from cgf.errors import (CgfError, HalfNotInvertible, NotInvertible,
                        NotRightInvertible, ShapeMismatch, SizeLimit,
                        UnsupportedRing, FormViolation)
from cgf.matrices import (HyperbolicVector, IsotropicFrame, Mat,
                          _constant_terms, block_perp, hyperbolic_pair_check,
                          identity, membership, phi, psi, right_inverse)
from cgf.rings import (FractionRing, IntegerRing, LocalizedIntegers,
                       ModularRing, PolyExt, PrimeField, QuotientRing,
                       RationalField, TruncatedPolyLocal, ring_from_json)
from cgf.sampling import random_word
from cgf.words import FAMILY_LIN, FAMILY_ORTH


def test_block_perp_builds_psi():
    R = PrimeField(5)
    assert block_perp(psi(R, 1), psi(R, 1)) == psi(R, 2)


def test_det_trivia():
    R = ModularRing(9)
    assert identity(R, 3).det() == R.one()
    assert psi(R, 1).det() == R.one()


def test_det_cap():
    R = PrimeField(5)
    with pytest.raises(SizeLimit):
        identity(R, 13).det()
    with pytest.raises(SizeLimit):
        identity(R, 13).inverse()


DET_RINGS = (IntegerRing(), RationalField(), PrimeField(7),
             LocalizedIntegers(3), ModularRing(8), ModularRing(9),
             TruncatedPolyLocal(2, 2), PolyExt(ModularRing(9), "T"),
             PolyExt(PrimeField(5), "T"))


def test_det_methods_agree():
    rng = random.Random(5)
    for ring in DET_RINGS:
        one = ring.one()
        for n in range(1, 9):
            for _ in range(6 if n <= 4 else 2):
                m = Mat(ring, [[ring.random(rng) for _ in range(n)]
                               for _ in range(n)])
                d = m.det()
                assert d.payload == ref.determinant(m)
                if d.is_unit():
                    inv = m.inverse()
                    assert ref.is_identity(ref.matmul(m, inv))
                    assert ref.is_identity(ref.matmul(inv, m))
                else:
                    with pytest.raises(NotInvertible) as exc:
                        m.inverse()
                    assert exc.value.context["det"] == d
            if n == 1:
                continue
            a = random_word(rng, ring, FAMILY_LIN, n, 3 * n).eval()
            assert a.det() == one and ref.determinant(a) == one.payload
            inv = a.inverse()
            assert ref.is_identity(ref.matmul(a, inv))
            assert ref.is_identity(ref.matmul(inv, a))


def _sympy_cases(rng):
    for ring in (IntegerRing(), RationalField(), ModularRing(8),
                 ModularRing(9), ModularRing(6), PrimeField(7)):
        for n in range(1, 9):
            for _ in range(3):
                yield ring, Mat(ring, [[ring.random(rng) for _ in range(n)]
                                       for _ in range(n)])
            if n > 1:
                yield ring, random_word(rng, ring, FAMILY_LIN, n, 2 * n).eval()


def _from_sympy(ring, x):
    if isinstance(ring, RationalField):
        return ring.coerce(Fraction(int(x.p), int(x.q)))
    return ring.coerce(int(x))


def test_det_and_inverse_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for ring, m in _sympy_cases(rng):
        sym = sympy.Matrix([[sympy.Rational(e.payload) for e in row]
                            for row in m.entries])
        ref_det = sym.det()
        assert m.det() == _from_sympy(ring, ref_det)
        if isinstance(ring, ModularRing):
            try:
                ref_inv = sym.inv_mod(ring.n)
            except ValueError:
                ref_inv = None
        elif ref_det != 0 and (ring.is_field or abs(ref_det) == 1):
            ref_inv = sym.inv()
        else:
            ref_inv = None
        if ref_inv is None:
            with pytest.raises(NotInvertible):
                m.inverse()
        else:
            assert m.inverse() == Mat(ring, [
                [_from_sympy(ring, x) for x in ref_inv.row(i)]
                for i in range(m.rows)])


def test_form_symmetries():
    R = IntegerRing()
    for n in range(1, 7):
        assert psi(R, n).transpose() == -psi(R, n)
        assert phi(R, n).transpose() == phi(R, n)
        assert psi(R, n).det() == R.one()
        assert phi(R, n).det() ** 2 == R.one()


def test_membership_examples():
    Z5 = PrimeField(5)
    d = Mat(Z5, [[2, 0], [0, 3]])  # u = 2, u^-1 = 3
    assert membership(d, "O") and membership(d, "SO")
    anti = Mat(Z5, [[0, 2], [3, 0]])
    assert membership(anti, "O") and not membership(anti, "SO")
    assert membership(identity(Z5, 4), "Sp")


def test_membership_needs_half():
    Z4 = ModularRing(4)
    with pytest.raises(HalfNotInvertible):
        membership(identity(Z4, 2), "O")


def test_membership_closure_under_product():
    rng = random.Random(23)
    Z9 = ModularRing(9)
    f = psi(Z9, 2)
    mats = []
    for _ in range(6):
        # random symplectic built from a symplectic transvection-like move
        z = Z9.random(rng)
        m = identity(Z9, 4)
        rowop = Mat(Z9, [[1, z.payload, 0, 0], [0, 1, 0, 0],
                         [0, 0, 1, 0], [0, 0, 0, 1]])
        if membership(rowop, "Sp"):
            mats.append(rowop)
    for a in mats:
        for b in mats:
            assert membership(a @ b, "Sp")


def test_right_inverse_standard_rows():
    Z4 = ModularRing(4)
    a = Mat(Z4, [[1, 0, 0], [0, 1, 0]])
    cert = right_inverse(a)
    assert (a @ cert.beta).is_identity()


def test_right_inverse_derived_example():
    Z4 = ModularRing(4)
    row = Mat(Z4, [[2, 3, 0]])
    cert = right_inverse(row)
    # oracle: 2*b1 + 3*b2 = 1 mod 4 must hold for the returned column
    assert ref.is_identity(ref.matmul(row, cert.beta))


def test_right_inverse_failure():
    Z4 = ModularRing(4)
    with pytest.raises(NotRightInvertible):
        right_inverse(Mat(Z4, [[2, 2]]))


def test_right_inverse_non_local_modulus():
    Z6 = ModularRing(6)
    a = Mat(Z6, [[2, 3, 1], [0, 1, 0]])
    cert = right_inverse(a)
    assert (a @ cert.beta).is_identity()


def test_right_inverse_over_residue_quotients():
    # Z/(6) presented as a quotient of Z or of Z/12 solves like Z/6
    grid = [[2, 3, 1], [0, 1, 0]]
    expected = right_inverse(Mat(ModularRing(6), grid)).beta
    for ring in (QuotientRing(IntegerRing(), [6]),
                 QuotientRing(ModularRing(12), [6])):
        beta = right_inverse(Mat(ring, grid)).beta
        assert beta.ring == ring
        assert beta._payloads() == expected._payloads()
        with pytest.raises(NotRightInvertible):
            right_inverse(Mat(ring, [[2, 4]]))


def test_right_inverse_integers():
    Z = IntegerRing()
    a = Mat(Z, [[2, 3, 0], [1, 2, 1]])
    cert = right_inverse(a)
    assert (a @ cert.beta).is_identity()
    with pytest.raises(NotRightInvertible):
        right_inverse(Mat(Z, [[2, 4, 6]]))


# (ring, m) with the ring Z/m, m = 0 meaning Z; all but the last two are
# not local, so the integral solver answers them
_INTEGRAL_RINGS = [
    (IntegerRing(), 0), (ModularRing(6), 6), (ModularRing(10), 10),
    (ModularRing(12), 12), (ModularRing(15), 15),
    (QuotientRing(IntegerRing(), [0]), 0),
    (QuotientRing(IntegerRing(), [6]), 6),
    (QuotientRing(ModularRing(12), [6]), 6),
    (QuotientRing(ModularRing(12), [0]), 12),
    (QuotientRing(IntegerRing(), [4]), 4),
    (QuotientRing(ModularRing(12), [3]), 3),
]


def _unit_minor_gcd(a, m):
    # independent criterion: a (n x k over Z/m) is right invertible exactly
    # when its n x n minors, with m, generate the unit ideal of Z
    n, k = a.rows, a.cols
    g = m
    for cols in itertools.combinations(range(k), n):
        sub = [[row[j] for j in cols] for row in a._payloads()]
        g = math.gcd(g, ref.determinant(Mat(IntegerRing(), sub)))
    return g == 1


def test_right_inverse_exactly_when_minors_generate_the_unit_ideal():
    rng = random.Random(71)
    solvable = 0
    for case in range(1500):
        ring, m = _INTEGRAL_RINGS[case % len(_INTEGRAL_RINGS)]
        n = rng.randint(1, 3)
        k = rng.randint(n, 4)
        a = Mat(ring, [[rng.randint(-6, 6) for _ in range(k)]
                       for _ in range(n)])
        expected = _unit_minor_gcd(a, m)
        try:
            cert = right_inverse(a)
        except NotRightInvertible:
            assert not expected, a
            continue
        assert expected, a
        assert cert.beta.ring == ring and (a @ cert.beta).is_identity()
        solvable += 1
    assert 300 < solvable < 1200


@pytest.mark.parametrize("n,grid,beta", [
    (4, [[2, 3, 0]], [[0], [3], [0]]),
    (4, [[1, 2, 3], [2, 1, 1]], [[1, 2], [2, 1], [0, 0]]),
    (4, [[2, 1, 0, 3], [1, 0, 2, 2]], [[0, 1], [1, 2], [0, 0], [0, 0]]),
    (9, [[3, 4, 1]], [[0], [7], [0]]),
    (9, [[1, 2, 0], [3, 6, 1]], [[1, 0], [0, 0], [6, 1]]),
    (9, [[6, 3, 2, 5], [0, 1, 4, 7], [3, 3, 3, 1]],
     [[0, 0, 0], [4, 7, 3], [8, 6, 8], [0, 6, 4]]),
])
def test_right_inverse_over_local_moduli_is_pinned(n, grid, beta):
    # local rings keep unit pivots: the two-row witnesses read this beta
    assert right_inverse(Mat(ModularRing(n), grid)).beta._payloads() == beta


def test_integral_failure_messages():
    over_z = "^no integral right inverse$"
    with pytest.raises(NotRightInvertible, match=over_z):
        right_inverse(Mat(IntegerRing(), [[2, 4, 6], [1, 1, 1]]))
    with pytest.raises(NotRightInvertible, match=over_z):
        right_inverse(Mat(QuotientRing(IntegerRing(), [0]), [[1, 0], [0, 0]]))
    with pytest.raises(NotRightInvertible, match="no unit pivot"):
        right_inverse(Mat(ModularRing(6), [[2, 4, 0]]))


def test_right_inverse_rationals():
    Q = RationalField()
    a = Mat(Q, [[2, 3, 0], [0, 1, 5]])
    assert (a @ right_inverse(a).beta).is_identity()


def test_right_inverse_unsupported_over_poly():
    RT = PolyExt(ModularRing(4), "T")
    with pytest.raises(UnsupportedRing):
        right_inverse(Mat(RT, [[1, 0], [0, 1]]))


def test_isotropic_frame_round_trip():
    Z9 = ModularRing(9)
    fr = IsotropicFrame.standard(Z9, "sp", 1, 2)
    cert = fr.right_inverse()
    assert (fr.mat @ cert.beta).is_identity()
    with pytest.raises(FormViolation):
        IsotropicFrame(Mat(Z9, [[1, 0, 0, 0], [0, 2, 0, 0]]), "sp")


def test_matrix_inverse_adjugate():
    Z9 = ModularRing(9)
    m = Mat(Z9, [[1, 2, 0], [0, 1, 5], [0, 0, 1]])
    assert (m @ m.inverse()).is_identity()


# the rings the right-inverse solvers answer (local, then the Z/m family),
# then the ones that keep the adjugate
_X2 = ring_from_json({"kind": "quot", "base": {
    "kind": "poly", "base": {"kind": "prime", "p": 2}, "var": "x"},
    "gens": [[0, 0, 1]]})
_SOLVED_RINGS = [ModularRing(9), PrimeField(5), RationalField(),
                 LocalizedIntegers(5), TruncatedPolyLocal(2, 2), _X2,
                 ModularRing(1), ModularRing(12), IntegerRing(),
                 QuotientRing(IntegerRing(), [12])]
_ADJUGATE_RINGS = [PolyExt(ModularRing(9), "T"), FractionRing(IntegerRing(), 6)]


def _inverse_inputs(rng, ring, n):
    """Random matrices (singular or not), an elementary matrix, that matrix
    with one row scaled by a random element (a non-unit often), and with
    its first row repeated (singular)."""
    for _ in range(4 if n <= 4 else 2):
        yield Mat(ring, [[ring.random(rng) for _ in range(n)]
                         for _ in range(n)])
    if n > 1:
        e = random_word(rng, ring, FAMILY_LIN, n, 2 * n).eval()
        yield e
        c = ring.random(rng)
        yield Mat(ring, [[c * x for x in row] if i == 0 else row
                         for i, row in enumerate(e.entries)])
        yield Mat(ring, [e.entries[0], *e.entries[:-1]])


@pytest.mark.parametrize("ring", _SOLVED_RINGS + _ADJUGATE_RINGS, ids=str)
def test_inverse_matches_the_adjugate(ring):
    # the inverse (the solver's beta where a solver covers the ring) against
    # the Cayley-Hamilton adjugate on a fresh copy of the same matrix: the
    # same matrix, or the same NotInvertible with the same det
    rng = random.Random(97)
    inverted = singular = 0
    for n in range(1, 9):
        for m in _inverse_inputs(rng, ring, n):
            got = ref.outcome(m.inverse)
            want = ref.outcome(Mat._box(ring, m._grid)._adjugate_inverse)
            assert got == want, (n, m)
            if isinstance(got, Mat):
                assert ref.is_identity(ref.matmul(m, got))
                assert ref.is_identity(ref.matmul(got, m))
                inverted += 1
            else:
                assert got == ref.Raised(
                    NotInvertible, "not_invertible",
                    "determinant is not a unit",
                    {"det": ring.coerce(ref.determinant(m))})
                singular += 1
    assert inverted >= 7
    assert singular >= (0 if ring == ModularRing(1) else 7)


@pytest.mark.parametrize("ring", _SOLVED_RINGS + _ADJUGATE_RINGS, ids=str)
def test_inverse_keeps_the_shape_and_size_errors(ring):
    def square(rows, cols):
        return Mat.identity(ring, max(rows, cols)).submatrix(0, rows, 0, cols)

    non_square = ref.Raised(ShapeMismatch, "shape_mismatch",
                            "determinant of a non-square matrix", {})
    too_big = ref.Raised(SizeLimit, "size_limit",
                         "determinant capped at size 12", {})
    for rows, cols, want in ((2, 3, non_square), (3, 2, non_square),
                             (13, 14, non_square), (14, 13, non_square),
                             (13, 13, too_big)):
        m = square(rows, cols)
        assert ref.outcome(m.inverse) == want == ref.outcome(m.det)
    assert square(12, 12).inverse().is_identity()


def test_inverse_takes_a_determinant_only_where_no_solver_runs(monkeypatch):
    runs = []
    berkowitz = Mat._berkowitz

    def counting(self):
        runs.append(str(self.ring))
        return berkowitz(self)

    monkeypatch.setattr(Mat, "_berkowitz", counting)
    rng = random.Random(5)
    for ring in _SOLVED_RINGS + _ADJUGATE_RINGS:
        random_word(rng, ring, FAMILY_LIN, 4, 8).eval().inverse()
    # an invertible matrix runs Berkowitz only where the adjugate is kept
    assert runs == [str(r) for r in _ADJUGATE_RINGS]
    # a singular one runs it once, for the det of its error
    runs.clear()
    proper = [r for r in _SOLVED_RINGS if r != ModularRing(1)]
    for ring in proper:
        with pytest.raises(NotInvertible):
            Mat(ring, [[0, 0], [0, 1]]).inverse()
    assert runs == [str(r) for r in proper]


def test_hyperbolic_pairs():
    Z = IntegerRing()
    one, neg = Z.one(), Z.coerce(-1)
    w1 = HyperbolicVector((one,), (one,))
    w2 = HyperbolicVector((one,), (neg,))
    assert hyperbolic_pair_check(w1, w2)
    assert not hyperbolic_pair_check(w1, w1)
    w0 = HyperbolicVector((Z.zero(),), (one,))
    assert w0.q().is_zero()
    assert not hyperbolic_pair_check(w0, w2)


def test_symplectic_matrices_have_unit_determinant():
    import random as _random
    from cgf.sampling import random_word
    from cgf.words import FAMILY_SP
    rng = _random.Random(37)
    Z9 = ModularRing(9)
    for _ in range(30):
        a = random_word(rng, Z9, FAMILY_SP, 4, 5).eval()
        assert membership(a, "Sp")
        assert a.det().is_unit()


def test_frame_construction_matches_right_invertibility():
    # the frame constructor and the right-inverse solver never disagree:
    # a form-compatible block always yields both
    import random as _random
    from cgf.sampling import random_frame
    rng = _random.Random(41)
    Z9 = ModularRing(9)
    for _ in range(15):
        fr, _ = random_frame(rng, Z9, "sp", 1, 2, 5)
        cert_frame = fr.right_inverse()
        cert_solver = right_inverse(fr.mat)
        assert (fr.mat @ cert_frame.beta).is_identity()
        assert (fr.mat @ cert_solver.beta).is_identity()


def test_serialization_round_trip():
    Z9 = ModularRing(9)
    m = psi(Z9, 2)
    assert Mat.from_json(m.to_json()) == m


# ---------------------------------------------------------------------------
# SO over R[T]: det a = det a(0) for every a in O

def _so_by_rt_det(a):
    # reference: SO as it was decided over R[T] before, the form check and
    # then a Berkowitz determinant over R[T]
    return membership(a, "O") and a.det() == a.ring.one()


def _pair_swap(ring, size):
    # [[0, 1], [1, 0]] ⊥ I: in O (it swaps a hyperbolic pair), det -1
    rows = identity(ring, size)._payloads()
    rows[0], rows[1] = rows[1], rows[0]
    return Mat._box(ring, rows)


def _so_cases(rng, rt, size, count):
    """(a, in O, in SO): a(0) = I (a word times the variable), a(0) a pair
    swap, a(0) a random word over the base, a word over R[T], and a
    product of linear generators."""
    for _ in range(count):
        a = random_word(rng, rt, FAMILY_ORTH, size, 4).eval()
        yield a, True, True
        yield _pair_swap(rt, size) @ a, True, False
        yield random_word(rng, rt, FAMILY_LIN, size, 2).eval(), False, False
        path = random_word(rng, rt.base, FAMILY_ORTH, size, 3) \
            .times_variable(rt).eval()
        yield path, True, True
        yield _pair_swap(rt, size) @ path, True, False
        const = random_word(rng, rt.base, FAMILY_ORTH, size, 3).lift_to(rt)
        yield const.eval() @ path, True, True


SO_RINGS = [PolyExt(ModularRing(9), "T"), PolyExt(PrimeField(5), "T"),
            # non-local, with 1/2
            PolyExt(ModularRing(15), "T"),
            PolyExt(PolyExt(ModularRing(9), "T"), "S")]


@pytest.mark.parametrize("rt", SO_RINGS, ids=str)
def test_so_over_rt_matches_the_rt_determinant(rt):
    rng = random.Random(f"so:{rt}")
    sizes = (4,) if rt.base.kind == "poly" else (4, 6, 8)
    for size in sizes:
        for a, in_o, in_so in _so_cases(rng, rt, size, 3):
            assert membership(a, "O") is in_o
            assert membership(a, "SO") is in_so
            assert _so_by_rt_det(a) is in_so


def _so_by_constant_det(a):
    # reference: SO over R[T] as a in O with det a(0) = 1, read off the
    # reference kernel
    if not ref.is_member(a, FAMILY_ORTH):
        return False
    while a.ring.kind == "poly":
        a = ref.substitute(a, a.ring.base.zero())
    return ref.determinant(a) == a.ring.one().payload


@pytest.mark.parametrize("rt", SO_RINGS, ids=str)
def test_so_at_identity_constant_terms_matches_the_determinant(rt,
                                                               monkeypatch):
    # a(0) = I decides SO with no determinant; every other a(0) takes one
    rng = random.Random(f"so-id:{rt}")
    runs = []
    charpoly = Mat._charpoly

    def counted(self):
        runs.append(self.ring)
        return charpoly(self)

    for a, _, in_so in _so_cases(rng, rt, 4, 3):
        at_identity = _constant_terms(a).is_identity()
        want = _so_by_constant_det(a)
        monkeypatch.setattr(Mat, "_charpoly", counted)
        runs.clear()
        assert membership(a, "SO") is want is in_so
        monkeypatch.setattr(Mat, "_charpoly", charpoly)
        assert (runs == []) is (at_identity or not membership(a, "O"))


def test_so_over_a_base_ring_takes_the_determinant(monkeypatch):
    # I over R is no R[T]: its SO test keeps the determinant
    runs = []
    charpoly = Mat._charpoly
    monkeypatch.setattr(Mat, "_charpoly",
                        lambda self: runs.append(self) or charpoly(self))
    assert membership(identity(ModularRing(9), 4), "SO")
    assert len(runs) == 1


def test_so_over_rt_keeps_the_determinant_size_cap():
    # past DET_SIZE_CAP the determinant of an a(0) other than I raises;
    # a(0) = I needs none, so SO answers at any size
    rt = PolyExt(ModularRing(9), "T")
    rng = random.Random(14)
    a = random_word(rng, rt, FAMILY_ORTH, 14, 6).eval()
    assert membership(a, "O") and not _constant_terms(a).is_identity()
    for fn in (lambda m: membership(m, "SO"), _so_by_rt_det):
        with pytest.raises(SizeLimit):
            fn(a)
    path = random_word(rng, rt.base, FAMILY_ORTH, 14, 6) \
        .times_variable(rt).eval()
    assert membership(path, "SO")
    with pytest.raises(SizeLimit):
        _so_by_rt_det(path)


def test_so_over_rt_at_small_caps_returns_wherever_the_rt_determinant_does():
    # the constant terms form no R[T] products, so a small cap may now let
    # SO return where the R[T] determinant raised, never the reverse
    newly_returned = 0
    for cap in (2, 3, 4, 6):
        rng = random.Random(f"so-cap:{cap}")
        rt = PolyExt(ModularRing(9), "T", degree_cap=cap)
        for size in (4, 6):
            for _ in range(4):
                try:
                    a = random_word(rng, rt, FAMILY_ORTH, size, 3).eval()
                except CgfError:
                    continue
                old = ref.outcome(_so_by_rt_det, a)
                got = ref.outcome(membership, a, "SO")
                assert got in (True, False) or got.code == "degree_cap_exceeded"
                if not isinstance(old, ref.Raised):
                    assert got == old
                elif got != old:
                    assert got in (True, False)
                    newly_returned += 1
    assert newly_returned


# ---------------------------------------------------------------------------
# membership is decided once per matrix

def _fresh(a):
    return Mat._box(a.ring, a._grid)


def _groups_known(a):
    """The group answers that a matrix keeps, without its other facts."""
    return {k: v for k, v in a._known.items()
            if k in ("GL", "SL", "Sp", "O", "SO")}


def _memo_cases(rng):
    """(matrix, groups) for members and non-members of every group, over
    base rings and R[T]."""
    for ring in (ModularRing(9), PrimeField(5), ModularRing(15),
                 LocalizedIntegers(3)):
        for size in (4, 6):
            yield random_word(rng, ring, FAMILY_ORTH, size, 5).eval(), \
                ("GL", "SL", "Sp", "O", "SO")
            yield _pair_swap(ring, size), ("GL", "SL", "O", "SO")
            yield Mat(ring, [[ring.random(rng) for _ in range(size)]
                             for _ in range(size)]), ("GL", "SL", "Sp", "O")
            yield psi(ring, size // 2), ("GL", "SL", "Sp", "O", "SO")
    rt = PolyExt(ModularRing(9), "T")
    for a, _, _ in _so_cases(rng, rt, 4, 2):
        yield a, ("O", "SO")


def test_membership_keeps_its_answers_and_they_match_a_fresh_copy():
    rng = random.Random(31)
    seen = set()
    for a, groups in _memo_cases(rng):
        for group in groups:
            first = membership(a, group)
            assert first is membership(a, group) is membership(_fresh(a), group)
            seen.add((group, first))
        assert _groups_known(a) == {g: membership(_fresh(a), g)
                                    for g in groups}
        # ==, hash, repr and to_json ignore the kept answers
        fresh = _fresh(a)
        assert a == fresh and hash(a) == hash(fresh)
        assert repr(a) == repr(fresh) and a.to_json() == fresh.to_json()
    assert seen == {(g, b) for g in ("GL", "SL", "Sp", "O", "SO")
                    for b in (True, False)}


def test_o_then_so_on_one_matrix():
    # a pair swap is in O with det -1: each group keeps its own answer
    for ring in (ModularRing(9), PolyExt(ModularRing(9), "T")):
        a = _pair_swap(ring, 4)
        assert membership(a, "O") and not membership(a, "SO")
        assert membership(a, "O") and not membership(a, "SO")
        b = _pair_swap(ring, 4)
        assert not membership(b, "SO") and membership(b, "O")
        assert _groups_known(a) == _groups_known(b) == {"O": True,
                                                        "SO": False}


def test_membership_that_raises_keeps_nothing(monkeypatch):
    calls = []
    decide = matrices._decide_membership

    def counting(a, group):
        calls.append(group)
        return decide(a, group)

    monkeypatch.setattr(matrices, "_decide_membership", counting)
    a = identity(ModularRing(4), 2)
    for _ in range(2):
        with pytest.raises(HalfNotInvertible):
            membership(a, "O")
    big = identity(ModularRing(9), 14)
    for _ in range(2):
        with pytest.raises(SizeLimit):
            membership(big, "SL")
    assert calls == ["O", "O", "SL", "SL"]
    assert not a._known and not big._known
    # a later group that returns is kept beside them
    assert membership(a, "Sp") and membership(big, "Sp")
    assert dict(a._known) == dict(big._known) == {"Sp": True}


# ---------------------------------------------------------------------------
# the inverse and the frame check are kept on the matrix

@pytest.mark.parametrize("ring", _SOLVED_RINGS + _ADJUGATE_RINGS, ids=str)
def test_inverse_is_kept_and_matches_a_fresh_copy(ring):
    # a kept inverse is the object the first call returned, and it equals,
    # byte for byte in to_json, the inverse of a fresh copy; an inverse
    # that raises keeps nothing and raises the same error again
    rng = random.Random(f"inverse-memo:{ring}")
    kept = refused = 0
    for n in range(1, 6):
        for m in _inverse_inputs(rng, ring, n):
            first = ref.outcome(m.inverse)
            fresh = ref.outcome(_fresh(m).inverse)
            if isinstance(first, ref.Raised):
                assert "inverse" not in m._known
                assert ref.outcome(m.inverse) == first == fresh
                refused += 1
                continue
            assert m.inverse() is first and m._known["inverse"] is first
            assert first.to_json() == fresh.to_json()
            kept += 1
    assert kept and (refused or ring == ModularRing(1))


def test_inverse_keeps_its_size_guard():
    # the guard runs before the memo is read, on every call
    a = identity(ModularRing(9), 3)
    assert a.inverse().is_identity()
    wide = Mat(ModularRing(9), [[1, 0, 0], [0, 1, 0]])
    for _ in range(2):
        with pytest.raises(ShapeMismatch):
            wide.inverse()
    assert not wide._known


def _frame_memo_cases(rng):
    """(matrix, kind) for frames and non-frames of both kinds."""
    for ring in (ModularRing(9), PrimeField(5), LocalizedIntegers(3)):
        for kind, family in (("sp", "sp"), ("orth", FAMILY_ORTH)):
            for n, m in ((1, 2), (1, 3), (2, 3), (2, 2)):
                full = random_word(rng, ring, family, 2 * m, 6).eval()
                top = full.submatrix(0, 2 * n, 0, 2 * m)
                yield top, kind
                rows = [list(r) for r in top.entries]
                rows[0][-1] = rows[0][-1] + ring.one()
                yield Mat(ring, rows), kind


def test_frame_check_is_kept_and_matches_a_fresh_copy():
    rng = random.Random(37)
    seen = set()
    for v, kind in _frame_memo_cases(rng):
        first = ref.outcome(IsotropicFrame, v, kind)
        fresh = ref.outcome(IsotropicFrame, _fresh(v), kind)
        passed = not isinstance(first, ref.Raised)
        seen.add(passed)
        if passed:
            assert not isinstance(fresh, ref.Raised)
            assert v._known[("frame", kind)] is True
            assert IsotropicFrame(v, kind).mat is v
            assert first.mat.to_json() == fresh.mat.to_json()
        else:
            # a check that raises keeps nothing, and raises again
            assert fresh == first
            assert not v._known
            assert ref.outcome(IsotropicFrame, v, kind) == first
    assert seen == {True, False}


def test_a_kept_frame_check_still_runs_the_guards():
    # the shape, kind and 1/2 guards run before the kept check is read
    v = identity(ModularRing(9), 4).submatrix(0, 2, 0, 4)
    IsotropicFrame(v, "sp")
    IsotropicFrame(v, "orth")
    assert {("frame", "sp"), ("frame", "orth")} <= set(v._known)
    with pytest.raises(ShapeMismatch):
        IsotropicFrame(v, "lin")
    even = identity(ModularRing(4), 4).submatrix(0, 2, 0, 4)
    IsotropicFrame(even, "sp")
    for _ in range(2):
        with pytest.raises(HalfNotInvertible):
            IsotropicFrame(even, "orth")
    assert ("frame", "orth") not in even._known
