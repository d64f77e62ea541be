"""The payload kernels against the naive reference kernel.

Every fast path here (each ring's ``act`` through the word actions and
generator matrices, and directly; each ring's ``products`` through
``Mat.__matmul__`` and the form checks, and directly; the other payload
``Mat`` bodies, each ring's ``dot`` and ``fma``, R[T]'s ``_raw_sum`` and
``_horner``, the
form kernel ``_form`` behind membership, the form inverses and the
isotropic frames) is compared with ``reference``, which shares no code with
them.  ``_IntegerQuotientRef`` holds the integer-style ``QuotientRing``
bodies from before the quotient took Z/m's arithmetic from
``ModularRing(m)`` (``IntegerRing()`` for m = 0), and
``_unit_ideal_witness_ref`` the unit-ideal solver from before
``unit_ideal_witness`` asked ``ideal_combination`` for the target 1; both
record replaced algorithms, and take their sums of products from the
reference.
"""

import ast
import itertools
import pathlib
import random
from math import gcd

import pytest

import reference as ref
from cgf.errors import (DegreeCapExceeded, FormViolation, NotAUnit,
                        ShapeMismatch, UnsupportedRing)
from cgf.factor import (common_perp, roitman, sp_inverse, transvection_factor,
                        whitehead_linear)
from cgf.homotopy import (Homotopy, homotopy_commute_orthogonal,
                          mat_substitute, vaserstein_transport)
from cgf.matrices import (IsotropicFrame, Mat, _constant_terms, _form,
                          identity, membership, phi, psi, right_inverse)
from cgf.orthoquot import (FactoredOrthogonal, O2Class, commutator_harness,
                           orth_inverse, vaserstein_quotient)
from cgf.rings import (FractionRing, IntegerRing, LocalizedIntegers,
                       ModularRing, PolyExt, PrimeField, QuotientRing,
                       RingValue, TruncatedPolyLocal, _xgcd_chain, has_half,
                       unit_ideal_witness)
from cgf.sampling import random_frame, random_unimodular_rows, random_word
from cgf.words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator,
                       apply_word_left, apply_word_right, apply_word_to_row,
                       gen_matrix)

from conftest import all_test_rings

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RINGS = all_test_rings()
SETTINGS = hypothesis.settings(max_examples=300, deadline=None,
                               database=None, derandomize=True)

# the kernels that the reference must not reach: a defect in one of them
# would pass both sides of its own differential test
FAST_PATHS = {"dot", "fma", "updates", "_payload_updates", "act", "products",
              "identity_rows", "eval", "det", "inverse", "_berkowitz", "_charpoly",
              "membership", "_form", "_gram_is_form", "_raw_sum", "_mac",
              "_horner", "_triples"}


def _fast_path_uses(source):
    """(line, what) for each ``@`` and each call of a fast path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in FAST_PATHS or (name or "").startswith("apply_word_"):
                found.append((node.lineno, name))
    return found


def test_reference_kernel_calls_no_fast_path():
    source = pathlib.Path(ref.__file__).read_text()
    assert _fast_path_uses(source) == []
    # the scan sees what it looks for
    assert [what for _, what in _fast_path_uses(
        "a @ b\nx @= y\nring.dot(0, xs, ys)\nw.eval()\n"
        "apply_word_right(m, w)\nring.act(rows, gens)\n")] == [
            "@", "@", "dot", "eval", "apply_word_right", "act"]


def test_reference_reads_no_fast_path_attribute():
    # a stored fast path, such as a generator's update triples, is read
    # without a call, so the scan above cannot see it
    def reads(source):
        return [node.attr for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and node.attr in FAST_PATHS]

    assert reads(pathlib.Path(ref.__file__).read_text()) == []
    assert reads("g._triples\nring.fma\ng.param.payload\n") == [
        "_triples", "fma"]


def _random_mat(rng, ring, rows, cols):
    return Mat(ring, [[ring.random(rng) for _ in range(cols)]
                      for _ in range(rows)])


@st.composite
def words(draw, families=(FAMILY_LIN, FAMILY_SP, FAMILY_ORTH)):
    """(ring, word, rng): a random word over one of the test rings."""
    ring = RINGS[draw(st.integers(0, len(RINGS) - 1))]
    family = draw(st.sampled_from(families))
    if family == FAMILY_ORTH:
        hypothesis.assume(has_half(ring))
    size = draw(st.sampled_from({FAMILY_LIN: (2, 3, 4, 5), FAMILY_SP: (2, 4),
                                 FAMILY_ORTH: (4, 6)}[family]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    word = random_word(rng, ring, family, size, draw(st.integers(0, 12)))
    return ring, word, rng


@SETTINGS
@hypothesis.given(words(), st.integers(1, 4))
def test_apply_word_right_matches_reference(case, n_rows):
    ring, word, rng = case
    m = _random_mat(rng, ring, n_rows, word.size)
    assert apply_word_right(m, word) == ref.times_gens(m, word.gens)
    # the row action agrees with the product of the generator matrices
    product = ref.identity(ring, word.size)
    for g in word:
        product = ref.matmul(product, ref.generator_matrix(g))
    assert word.eval() == ref.word_matrix(word) == product


@SETTINGS
@hypothesis.given(words())
def test_apply_word_to_row_matches_reference(case):
    ring, word, rng = case
    row = [ring.random(rng) for _ in range(word.size)]
    want = ref.act_rows(ring, [[v.payload for v in row]], word.gens)[0]
    assert apply_word_to_row(row, word) == [ring.coerce(p) for p in want]


@SETTINGS
@hypothesis.given(words())
def test_gen_matrix_matches_reference(case):
    ring, word, _ = case
    for g in word:
        assert gen_matrix(g) == ref.generator_matrix(g) == ref.times_gens(
            ref.identity(ring, g.size), (g,))


@SETTINGS
@hypothesis.given(st.integers(0, len(RINGS) - 1), st.integers(1, 4),
                  st.integers(1, 4), st.integers(1, 4),
                  st.integers(0, 2 ** 32 - 1))
def test_matmul_matches_reference(ring_idx, n, k, m, seed):
    ring, rng = RINGS[ring_idx], random.Random(seed)
    a = _random_mat(rng, ring, n, k)
    b = _random_mat(rng, ring, k, m)
    assert a @ b == ref.matmul(a, b)
    assert a @ identity(ring, k) == a



@SETTINGS
@hypothesis.given(words(), st.integers(1, 4))
def test_apply_word_left_matches_eval(case, n_cols):
    ring, word, rng = case
    m = _random_mat(rng, ring, word.size, n_cols)
    assert apply_word_left(word, m) == ref.matmul(ref.word_matrix(word), m)


# Z[1/6] is the one base off the raw path that a workload reaches (the
# split verb's Z[1/6][T])
POLY_BASES = (ModularRing(9), PrimeField(5), LocalizedIntegers(5),
              ModularRing(4), TruncatedPolyLocal(2, 2), IntegerRing(),
              ModularRing(1), FractionRing(IntegerRing(), 6))


@st.composite
def poly_terms(draw):
    """(ring, acc, xs, ys): payloads of R[T] with a degree cap of 0 to 4."""
    base = draw(st.sampled_from(POLY_BASES))
    ring = PolyExt(base, "T", degree_cap=draw(st.integers(0, 4)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def poly():
        coeffs = [base.random(rng).payload
                  for _ in range(rng.randrange(ring.degree_cap + 2))]
        return ref.trim(ring, coeffs)

    n = draw(st.integers(0, 5))
    return ring, poly(), [poly() for _ in range(n)], [poly()
                                                      for _ in range(n)]


def _poly_edge_cases():
    """(ring, acc, xs, ys) at degree cap 2 over each base: an accumulator
    longer and shorter than the products, zero operands, and products of
    degree exactly the cap and cap + 1 (over Z/4 the top coefficient of
    (1 + 2T)(2T^2) vanishes, elsewhere it raises)."""
    cases = []
    for base in POLY_BASES:
        ring = PolyExt(base, "T", degree_cap=2)

        def p(*coeffs):
            return ref.trim(ring, [base.coerce(c).payload for c in coeffs])
        cases += [
            (ring, p(1, 2, 3), [p(2)], [p(3)]),
            (ring, p(1), [p(0, 1), p(2)], [p(0, 1), p(1, 1)]),
            (ring, p(1, 1), [(), p(1, 2), p(0, 0, 1)], [p(3), (), ()]),
            (ring, (), [()], [()]),
            (ring, p(0, 1), [p(1, 1)], [p(1, 1)]),
            (ring, p(1), [p(1, 1), p(0, 1)], [p(1), p(0, 0, 1)]),
            (ring, p(0, 3), [p(1, 1), p(1, 2)], [p(1), p(0, 0, 2)]),
        ]
    return cases


@hypothesis.settings(SETTINGS, max_examples=1000)
@hypothesis.given(poly_terms())
def test_poly_dot_matches_reference(case):
    # equal sums, and DegreeCapExceeded with the same message exactly when
    # the term-by-term loop raises, for dot, fma and the lazy mul over Z and
    # Z/n as for the reducing loop over the other bases
    ring, acc, xs, ys = case
    def outcome(fn, *args):
        return ref.outcome(fn, *args, catch=DegreeCapExceeded)

    expected = outcome(ref.sum_of_products, ring, acc, xs, ys)
    assert outcome(ring.dot, acc, xs, ys) == expected
    for x, y in zip(xs, ys):
        assert outcome(ring.add, x, y) == outcome(ref.add, ring, x, y)
        assert outcome(ring.mul, x, y) == outcome(ref.mul, ring, x, y)
        assert outcome(ring.fma, acc, x, y) == outcome(
            ref.sum_of_products, ring, acc, (x,), (y,))


for _case in _poly_edge_cases():
    test_poly_dot_matches_reference = hypothesis.example(_case)(
        test_poly_dot_matches_reference)


@SETTINGS
@hypothesis.given(st.integers(0, len(RINGS) - 1), st.integers(0, 6),
                  st.integers(0, 2 ** 32 - 1))
def test_ring_dot_and_fma_match_term_by_term(ring_idx, n, seed):
    # every test ring's fused dot and fma against add(acc, mul(x, y)), to
    # the same canonical payload; R[T] over Z, Z/1, Z/4, Z/9 and F_5 with
    # small degree caps is test_poly_dot_matches_reference's
    ring, rng = RINGS[ring_idx], random.Random(seed)
    acc, *terms = (ring.random(rng).payload for _ in range(2 * n + 1))
    xs, ys = terms[:n], terms[n:]
    got = ring.dot(acc, xs, ys)
    assert got == ref.sum_of_products(ring, acc, xs, ys)
    assert ring.canon(got) == got
    for x, y in zip(xs, ys):
        assert ring.fma(acc, x, y) == ref.sum_of_products(ring, acc, (x,),
                                                          (y,))
    # zero operands, which R[T] over Z and Z/n skips without a product
    zero = ring.zero().payload
    xs, ys = [zero, *xs, acc], [acc, *ys, zero]
    assert ring.dot(acc, xs, ys) == ref.sum_of_products(ring, acc, xs,
                                                        ys) == got
    assert ring.fma(acc, zero, acc) == acc == ring.fma(acc, acc, zero)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_zero_and_one_are_cached(ring):
    assert ring.zero() == ring.coerce(0) and ring.one() == ring.coerce(1)
    assert ring.zero() is ring.zero() and ring.one() is ring.one()


FORM_WORDS = words(families=(FAMILY_SP, FAMILY_ORTH))


def _member_and_other(case):
    """A group member evaluated from the word, and a random matrix of the
    same size (almost never a member)."""
    ring, word, rng = case
    return word.eval(), _random_mat(rng, ring, word.size, word.size)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_form_matrices_match_block_sums(ring):
    for n in range(1, 5):
        assert psi(ring, n) == ref.form_matrix(FAMILY_SP, ring, n)
        if has_half(ring):
            assert phi(ring, n) == ref.form_matrix(FAMILY_ORTH, ring, n)


@SETTINGS
@hypothesis.given(FORM_WORDS, st.integers(1, 4))
def test_form_kernel_matches_products(case, n_cols):
    ring, word, rng = case
    m = _random_mat(rng, ring, word.size, n_cols)
    assert _form(word.family, m) == ref.matmul(
        ref.form_matrix(word.family, ring, word.size // 2), m)


@SETTINGS
@hypothesis.given(FORM_WORDS)
def test_membership_matches_reference(case):
    group = "Sp" if case[1].family == FAMILY_SP else "O"
    member, other = _member_and_other(case)
    assert membership(member, group) and ref.is_member(member, case[1].family)
    assert membership(other, group) == ref.is_member(other, case[1].family)


@SETTINGS
@hypothesis.given(FORM_WORDS)
def test_form_inverse_matches_reference(case):
    inverse = sp_inverse if case[1].family == FAMILY_SP else orth_inverse
    for a in _member_and_other(case):
        assert inverse(a) == ref.form_inverse(a, case[1].family)
    assert inverse(case[1].eval()) == ref.word_matrix(case[1].invert())


@SETTINGS
@hypothesis.given(FORM_WORDS, st.integers(0, 2))
def test_isotropic_frame_matches_reference(case, cut):
    # the leading 2n rows of a member are a frame; of a random matrix,
    # almost never
    family = case[1].family
    n_rows = max(2, case[1].size - 2 * cut)
    for a in _member_and_other(case):
        v = a.submatrix(0, n_rows, 0, a.cols)
        is_frame = ref.is_frame(v, family)
        try:
            frame = IsotropicFrame(v, family)
        except FormViolation:
            assert not is_frame
            continue
        assert is_frame
        assert frame.right_inverse().beta == ref.frame_beta(v, family)


def test_form_inverse_needs_an_even_square_matrix():
    ring = PrimeField(5)
    for a in (identity(ring, 3), Mat(ring, [[1, 0, 0, 0], [0, 1, 0, 0]])):
        for inverse in (sp_inverse, orth_inverse):
            with pytest.raises(ShapeMismatch):
                inverse(a)


def test_form_paths_count_products(monkeypatch):
    # the forms are applied by row swaps, never multiplied: membership and
    # the frame check take no Mat product but the upper triangle of theirs
    # (n(n+1)/2 entries for an n x n result), the form inverses none, and
    # the frame's right inverse only its certificate's check alpha @ beta;
    # ``dots`` counts the entries that ring.products computes, and no path
    # makes a single ring.dot (a determinant or adjugate step would).  The
    # frame check runs on a fresh Mat: ``frame.mat`` keeps its passed check,
    # so a second frame on it computes nothing
    calls, dots, single = [], [], []
    matmul, products, dot = (Mat.__matmul__, ModularRing.products,
                             ModularRing.dot)

    def counted(*args, **kwargs):
        out = products(*args, **kwargs)
        dots.extend(1 for row in out for _ in row)
        return out

    monkeypatch.setattr(Mat, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    monkeypatch.setattr(ModularRing, "products", counted)
    monkeypatch.setattr(ModularRing, "dot",
                        lambda *args: single.append(1) or dot(*args))
    ring = ModularRing(9)
    for word in (random_word(random.Random(5), ring, FAMILY_SP, 4, 6),
                 random_word(random.Random(5), ring, FAMILY_ORTH, 4, 6)):
        a = word.eval()
        group = "Sp" if word.family == FAMILY_SP else "O"
        inverse = sp_inverse if word.family == FAMILY_SP else orth_inverse
        frame = IsotropicFrame(a.submatrix(0, 2, 0, 4), word.family)
        for fn, args, expected, n_dots in (
                (membership, (a, group), 0, 10),
                (IsotropicFrame, (Mat._box(ring, frame.mat._grid),
                                  word.family), 0, 3),
                (IsotropicFrame, (frame.mat, word.family), 0, 0),
                (frame.right_inverse, (), 1, 4),
                (inverse, (a,), 0, 0)):
            calls.clear()
            dots.clear()
            single.clear()
            fn(*args)
            assert (len(calls), len(dots), len(single)) == (
                expected, n_dots, 0), fn


RAW_BASES = (IntegerRing(), ModularRing(9), ModularRing(4), ModularRing(1),
             PrimeField(5), QuotientRing(IntegerRing(), [6]),
             QuotientRing(ModularRing(12), [8]))


@pytest.mark.parametrize("base", RAW_BASES, ids=str)
def test_fma_matches_raw_sum_around_the_cap(base):
    # the one-product fma against _raw_sum's one-pair path, for products
    # whose untrimmed degree is cap - 1, cap, cap + 1 and cap + 2: the same
    # payload, or DegreeCapExceeded with the same message
    def outcome(fn, *args):
        return ref.outcome(fn, *args, catch=DegreeCapExceeded)

    rng = random.Random(f"fma:{base}")
    nonzero = [p for p in (base.canon(k) for k in range(1, 13)) if p]
    seen = set()

    def poly(degree):
        # a leading coefficient that is nonzero (a zero divisor over Z/4)
        return tuple(base.random(rng).payload for _ in range(degree)) + (
            rng.choice(nonzero),) if nonzero else ()

    for cap in range(1, 5):
        ring = PolyExt(base, "T", degree_cap=cap)
        assert ring._raw
        for _ in range(40):
            degree = min(cap + rng.randint(-1, 2), 2 * cap)
            da = rng.randint(max(0, degree - cap), min(cap, degree))
            c, x = poly(da), poly(degree - da)
            acc = ref.trim(ring, [base.random(rng).payload
                                  for _ in range(rng.randint(0, cap + 1))])
            got = outcome(ring.fma, acc, c, x)
            assert got == outcome(ring._raw_sum, acc, ((c, x),))
            assert got == outcome(ref.sum_of_products, ring, acc, (c,), (x,))
            assert got == outcome(ring.fma, acc, x, c)
            if c:
                seen.add((degree - cap, not isinstance(got, ref.Raised)))
    if not base.is_zero_ring:
        assert {(-1, True), (0, True), (1, False), (2, False)} <= seen


@pytest.mark.parametrize("base", RAW_BASES, ids=str)
def test_raw_horner_matches_the_fma_loop(base):
    # the exact Horner reduced once against the reference Horner, at 0, 1
    # and random points, over R[T] up to the default cap
    rng = random.Random(f"horner:{base}")
    ring = PolyExt(base, "T")
    assert ring._raw
    points = [base.zero().payload, base.one().payload]
    for _ in range(30):
        a = ring.canon([base.random(rng).payload
                        for _ in range(rng.choice((0, 1, 2, 3, 8, 65)))])
        for t in points + [base.random(rng).payload]:
            got = ring._horner(a, t)
            assert got == ref.horner(ring, a, t) and base.canon(got) == got


# every test ring, with Z/1, and R[T] over Z, Z/9 and F_5: the rings whose
# act and products are their own loops, and the generic ones
KERNEL_RINGS = RINGS + [ModularRing(1), PolyExt(IntegerRing(), "T"),
                        PolyExt(ModularRing(9), "T"),
                        PolyExt(PrimeField(5), "T")]


@SETTINGS
@hypothesis.given(st.integers(0, len(KERNEL_RINGS) - 1),
                  st.sampled_from((FAMILY_LIN, FAMILY_SP, FAMILY_ORTH)),
                  st.integers(1, 4), st.integers(0, 10),
                  st.integers(0, 2 ** 32 - 1))
def test_ring_act_matches_reference(ring_idx, family, n_rows, length, seed):
    # in place, on rows with a zero row and zero source entries; over R[T]
    # the parameters have degree 0 to 2, so both of its update paths run
    ring, rng = KERNEL_RINGS[ring_idx], random.Random(seed)
    if family == FAMILY_ORTH:
        hypothesis.assume(has_half(ring))
    size = rng.choice({FAMILY_LIN: (2, 3, 4), FAMILY_SP: (2, 4),
                       FAMILY_ORTH: (4, 6)}[family])
    word = random_word(rng, ring, family, size, length)
    zero = ring.zero().payload
    rows = [[zero] * size] + [
        [rng.choice((zero, ring.random(rng).payload)) for _ in range(size)]
        for _ in range(n_rows)]
    want = ref.act_rows(ring, rows, word.gens)
    got = [list(r) for r in rows]
    assert ring.act(got, word.gens) is got
    assert got == [list(r) for r in want]


@pytest.mark.parametrize("ring", KERNEL_RINGS[-3:], ids=str)
def test_poly_act_matches_reference_on_constant_and_other_parameters(ring):
    # a word lifted from R has constant parameters only, one that
    # times_variable makes has none, and a random word over R[T] mixes them
    rng = random.Random(f"act:{ring}")
    for _ in range(20):
        base = random_word(rng, ring.base, FAMILY_SP, 4, 8)
        for word in (base.lift_to(ring), base.times_variable(ring),
                     random_word(rng, ring, FAMILY_SP, 4, 8)):
            rows = [[ring.random(rng).payload for _ in range(4)]
                    for _ in range(3)]
            want = ref.act_rows(ring, rows, word.gens)
            assert ring.act([list(r) for r in rows], word.gens) == [
                list(r) for r in want]


@SETTINGS
@hypothesis.given(st.integers(0, len(KERNEL_RINGS) - 1), st.integers(1, 4),
                  st.integers(1, 4), st.integers(1, 4),
                  st.integers(0, 2 ** 32 - 1))
def test_ring_products_match_reference(ring_idx, n, k, m, seed):
    # the full product and its upper triangle (row i from column i on; empty
    # below the last column)
    ring, rng = KERNEL_RINGS[ring_idx], random.Random(seed)
    a, b = _random_mat(rng, ring, n, k), _random_mat(rng, ring, k, m)
    full = [list(row) for row in ref.matmul(a, b)._grid]
    cols = list(zip(*b._grid))
    assert ring.products(a._grid, cols) == full
    assert ring.products(a._grid, cols, upper=True) == [
        row[i:] for i, row in enumerate(full)]


@pytest.mark.parametrize("base", RAW_BASES, ids=str)
def test_kernels_match_reference_around_the_cap(base):
    # act and products over R[T] at caps 1 to 4, on operands whose products
    # have untrimmed degree cap - 1 to cap + 2: the same payloads, or
    # DegreeCapExceeded with the same message (lin words, one update per
    # generator, so both sides meet the same product first)
    def outcome(fn, *args, **kwargs):
        return ref.outcome(fn, *args, catch=DegreeCapExceeded, **kwargs)

    rng = random.Random(f"cap:{base}")
    nonzero = [p for p in (base.canon(k) for k in range(1, 13)) if p]

    def poly(degree):
        return tuple(base.random(rng).payload for _ in range(degree)) + (
            rng.choice(nonzero),) if nonzero else ()

    seen = set()
    for cap in range(1, 5):
        ring = PolyExt(base, "T", degree_cap=cap)
        zero = ring.zero().payload
        for _ in range(25):
            degree = min(cap + rng.randint(-1, 2), 2 * cap)
            dz = rng.randint(max(0, degree - cap), min(cap, degree))
            rows = [[poly(rng.randint(0, cap)) for _ in range(3)],
                    [poly(degree - dz), zero, poly(degree - dz)]]
            i, j = rng.sample((1, 2, 3), 2)
            gen = Generator(FAMILY_LIN, i, j, ring.coerce(poly(dz)), 3)
            got = outcome(ring.act, [list(r) for r in rows], (gen,))
            want = outcome(ref.act_rows, ring, rows, (gen,))
            assert got == (want if isinstance(want, ref.Raised)
                           else [list(r) for r in want])
            a = [[poly(dz), poly(rng.randint(0, cap))] for _ in range(2)]
            cols = [(poly(degree - dz), zero), (zero, poly(degree - dz))]
            want = [[outcome(ref.sum_of_products, ring, zero, x, y)
                     for y in cols[upper * i:]] for i, x in enumerate(a)
                    for upper in (0, 1)]
            for upper in (False, True):
                entries = [e for row in want[upper::2] for e in row]
                first = next((e for e in entries
                              if isinstance(e, ref.Raised)), None)
                got = outcome(ring.products, a, cols, upper=upper)
                assert got == (first or want[upper::2])
                if nonzero:
                    seen.add((degree - cap, first is None))
    if not base.is_zero_ring:
        assert {(-1, True), (0, True), (1, False), (2, False)} <= seen


def _fresh(m):
    """An equal matrix whose boxed view has not been read."""
    return Mat._box(m.ring, m._grid)


@SETTINGS
@hypothesis.given(st.integers(0, len(RINGS) - 1), st.integers(1, 4),
                  st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_payload_ops_match_boxed_reference(ring_idx, n, m, seed):
    ring, rng = RINGS[ring_idx], random.Random(seed)
    a, b = _random_mat(rng, ring, n, m), _random_mat(rng, ring, n, m)
    other = _random_mat(rng, ring, rng.randint(1, 3), rng.randint(1, 3))
    c = ring.random(rng)
    r0, c0 = rng.randrange(n), rng.randrange(m)
    r1, c1 = rng.randint(r0 + 1, n), rng.randint(c0 + 1, m)
    rt = PolyExt(ring, "T")
    for got, expected in (
            (a + b, ref.mat_add(a, b)), (a - b, ref.mat_add(a, ref.mat_neg(b))),
            (-a, ref.mat_neg(a)), (a.scale(c), ref.scale(a, c)),
            (a.scale(-3), ref.scale(a, -3)),
            (a.transpose(), ref.transpose(a)),
            (a.block_perp(other), ref.block_perp(a, other)),
            (a.submatrix(r0, r1, c0, c1), ref.submatrix(a, r0, r1, c0, c1)),
            (a.map_ring(rt), ref.map_ring(a, rt)),
            (a.map_ring(ring), ref.map_ring(a, ring)),
            (a.map_ring(rt, rt.coerce), ref.map_ring(a, rt, rt.coerce))):
        assert got == expected and hash(got) == hash(expected)
        assert got.to_json() == ref.to_json(expected)
        assert repr(_fresh(got)) == repr(expected)
    squares = [a, identity(ring, n)]
    if n <= m:
        squares.append(identity(ring, n) + b.submatrix(0, n, 0, n))
    for square in squares:
        assert square.is_identity() == ref.is_identity(square)
    # a value or a ring from elsewhere is refused as the boxed code did
    alien = ModularRing(7)
    assert ref.outcome(a.scale, alien.one()) == ref.outcome(
        ref.scale, a, alien.one())
    assert ref.outcome(a.map_ring, alien) == ref.outcome(
        ref.map_ring, a, alien)


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(st.integers(0, len(RINGS) - 1), st.integers(1, 3),
                  st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_boxed_view_is_the_coerced_payloads(ring_idx, n, m, seed):
    ring, rng = RINGS[ring_idx], random.Random(seed)
    a = _random_mat(rng, ring, n, m)
    b = _fresh(a)
    assert a == b and hash(a) == hash(b)
    boxed = tuple(tuple(ring.coerce(p) for p in row) for row in a._grid)
    assert b.entries == boxed and b.entries is b.entries
    assert all(b[i, j] == boxed[i][j] and b[i, j].ring == ring
               for i in range(n) for j in range(m))


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(st.sampled_from(POLY_BASES), st.integers(1, 3),
                  st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_mat_substitute_matches_reference(base, n, m, seed):
    rng = random.Random(seed)
    rt = PolyExt(base, "T")
    mt = _random_mat(rng, rt, n, m)
    for t in (base.zero(), base.one(), base.random(rng)):
        assert mat_substitute(mt, t) == ref.substitute(mt, t)
    alien = PolyExt(base, "T").one()
    assert ref.outcome(mat_substitute, mt, alien) == ref.outcome(
        ref.substitute, mt, alien)


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(st.sampled_from(POLY_BASES), st.integers(1, 3),
                  st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_constant_terms_are_horner_at_zero(base, n, m, seed):
    # over R[T] and R[T][S]: m(0) read off the payloads is Horner at 0
    rng = random.Random(seed)
    rt = PolyExt(base, "T")
    for ring in (rt, PolyExt(rt, "S")):
        mt = _random_mat(rng, ring, n, m)
        horner = ref.substitute(mt, ring.base.zero())
        assert _constant_terms(mt) == horner
        assert mat_substitute(mt, ring.base.zero()) == horner


@hypothesis.settings(SETTINGS, max_examples=150)
@hypothesis.given(FORM_WORDS, st.integers(0, 2))
def test_upper_triangle_matches_full_product(case, cut):
    # membership and the frame check against the whole product they took
    # before, on members and on (almost always) non-members
    kind, group = (("sp", "Sp") if case[1].family == FAMILY_SP
                   else ("orth", "O"))
    for a in _member_and_other(case):
        assert membership(a, group) == ref.is_member(a, kind)
        v = a.submatrix(0, max(2, a.rows - 2 * cut), 0, a.cols)
        assert ref.outcome(IsotropicFrame, v, kind) == (
            IsotropicFrame(v, kind) if ref.is_frame(v, kind) else
            ref.Raised(FormViolation, "form_violation", "V F_m V^t != F_n",
                       {}))


@hypothesis.settings(SETTINGS, max_examples=150)
@hypothesis.given(st.sampled_from(("sp", "orth")), st.integers(1, 3),
                  st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_upper_triangle_raises_like_full_product(kind, pairs, cap, seed):
    # over R[T] with a small degree cap, the half product raises
    # DegreeCapExceeded with the same message as the whole product, or
    # agrees with it
    rng = random.Random(seed)
    rt = PolyExt(PrimeField(5), "T", degree_cap=cap)
    size = 2 * pairs
    a = Mat(rt, [[rt.coerce([rng.randrange(5) for _ in range(
        rng.randint(0, cap + 1))]) for _ in range(size)] for _ in range(size)])
    group = "Sp" if kind == "sp" else "O"
    assert ref.outcome(membership, a, group) == ref.outcome(
        ref.is_member, a, kind)


def _count_values(monkeypatch):
    """A list that grows by one for every RingValue built from now on."""
    built = []
    init = RingValue.__init__
    monkeypatch.setattr(RingValue, "__init__",
                        lambda self, r, p: built.append(1) or init(self, r, p))
    return built


def test_payload_ops_build_no_ring_values(monkeypatch):
    ring = ModularRing(9)
    rt = PolyExt(ring, "T")
    rng = random.Random(11)
    sp = random_word(rng, ring, FAMILY_SP, 4, 8).eval()
    orth = random_word(rng, ring, FAMILY_ORTH, 4, 8).eval()
    poly = random_word(rng, ring, FAMILY_SP, 4, 3).times_variable(rt).eval()
    # zero() and one() box once per ring, then are cached
    one = ring.one()
    ring.zero(), rt.zero(), rt.one()
    built = _count_values(monkeypatch)
    assert membership(sp, "Sp") and membership(orth, "O")
    assert membership(poly, "Sp")
    for fn in (lambda: sp @ orth, sp.transpose, lambda: sp.block_perp(orth),
               lambda: sp.submatrix(0, 2, 1, 4), lambda: sp + orth,
               lambda: sp - orth, lambda: _form("sp", sp),
               lambda: _form("orth", orth), lambda: mat_substitute(poly, one),
               lambda: IsotropicFrame(sp.submatrix(0, 2, 0, 4), "sp"),
               sp.is_identity, lambda: sp.map_ring(rt), sp.to_json):
        fn()
    assert built == []
    fresh = _fresh(sp)
    first = fresh.entries
    assert len(built) == 16
    assert fresh.entries is first and fresh[1, 2] is first[1][2]
    assert len(built) == 16


# RingValues one seeded (n, m) = (2, 4) orthogonal homotopy over Z/9[T]
# builds, from the homotopy's construction to its witness: 2,126 while Mat
# boxed every result, 137 with payload rows inside, 63 once the kernels read
# generator updates as payload triples instead of boxing -z, 61 once the
# homotopy read its word's constant terms off the payloads, 59 once SO
# over R[T] took no determinant of the constant terms I, 1 (the variable T
# that times_variable builds to check the degree cap) once generators held
# payloads and every word rebuild passed payloads.
ORTH_HOMOTOPY_VALUES = 1


def test_orthogonal_homotopy_boxing_stays_bounded(monkeypatch):
    rng = random.Random(2024)
    ring = ModularRing(9)
    rt = PolyExt(ring, "T")
    base = random_word(rng, ring, FAMILY_ORTH, 4, 2)
    frame, _ = random_frame(rng, ring, "orth", 2, 4, 5)
    ring.zero(), ring.one(), rt.zero(), rt.one()
    built = _count_values(monkeypatch)
    d = Homotopy.from_word("orthogonal", base.times_variable(rt))
    res = homotopy_commute_orthogonal(d, frame)
    assert res.witness.all_passed()
    assert len(built) <= ORTH_HOMOTOPY_VALUES, len(built)


# RingValues the base-ring constructions build: the linear Whitehead word of
# a seeded 8 x 8 matrix over Z/9 (151 generators), then the transport of a
# seeded 3 x 3 d.  389 while generators held a boxed parameter (the Whitehead
# blocks, the inverted words and the completion each boxed one per
# generator), 4 once they held payloads: one in det, one in membership and
# two for the -1 that scales transport's correction.
BASE_CONSTRUCTION_VALUES = 4


def test_base_ring_constructions_box_no_generator(monkeypatch):
    rng = random.Random(2025)
    ring = ModularRing(9)
    d8 = random_word(rng, ring, FAMILY_LIN, 8, 24).eval()
    d3 = random_word(rng, ring, FAMILY_LIN, 3, 9).eval()
    v, _ = random_unimodular_rows(rng, ring, 3, 4, 9)
    ring.zero(), ring.one()
    built = _count_values(monkeypatch)
    assert len(whitehead_linear(d8)) == 151
    res = vaserstein_transport(d3, v, "linear")
    assert res.witness.all_passed()
    assert len(built) <= BASE_CONSTRUCTION_VALUES, len(built)


# RingValues the row lemmas and the orthogonal corner machinery build on
# seeded inputs: over Z/9 a transvection of size 5, a common perpendicular
# of length 5 and a quotient lift with k = 1; over F_5 a commutator harness
# with diag and antidiag corners and the quotient reduction of a 6 x 6 with
# a diag corner.  444 while they boxed their matrices, multiplied boxed
# values and sent rows through apply_word_to_row; 55 once they computed on
# payload rows and built their words with _gen and _rebuilt.  What is left
# is the edge: the quotient lift's minors, projections and ideal solver
# (36), the corners' O2Class values and their reconstructions (15), and the
# transvection determinants (4).
FACTOR_CONSTRUCTION_VALUES = 55


def test_row_lemmas_and_corners_box_only_at_the_edge(monkeypatch):
    rng = random.Random(2026)
    Z9, F5 = ModularRing(9), PrimeField(5)
    col, _ = random_unimodular_rows(rng, Z9, 1, 5, 9)
    c = col.transpose()
    dual = right_inverse(col).beta  # col . dual = 1
    u = Mat(Z9, [[Z9.random(rng) for _ in range(5)]])
    r = u - dual.transpose().scale((u @ c).entries[0][0])
    v1, _ = random_unimodular_rows(rng, Z9, 1, 5, 9)
    w = right_inverse(v1).beta.transpose()
    v2 = v1 + u - v1.scale((u @ w.transpose()).entries[0][0])
    x, y = Mat(Z9, [[3, 1, 2, 5]]), Mat(Z9, [[4, 1, 7]])
    a = FactoredOrthogonal(O2Class("diag", F5.coerce(2)).reconstruct(),
                           random_word(rng, F5, FAMILY_ORTH, 6, 8))
    b = FactoredOrthogonal(O2Class("antidiag", F5.coerce(3)).reconstruct(),
                           random_word(rng, F5, FAMILY_ORTH, 6, 8))
    m = a.matrix()
    for ring in (Z9, F5):
        ring.zero(), ring.one()
    built = _count_values(monkeypatch)
    transvection_factor(c, r)
    common_perp(v1, v2, w)
    roitman(x, 1, y)
    assert commutator_harness(a, b)[1].all_passed()
    vaserstein_quotient(m)
    assert len(built) <= FACTOR_CONSTRUCTION_VALUES, len(built)


# ---------------------------------------------------------------------------
# integer quotients: Z/m's own arithmetic under a quotient descriptor

class _IntegerQuotientRef:
    # reference: the integer-style QuotientRing bodies, before the quotient
    # took its arithmetic from ModularRing(m) / IntegerRing(); it had no
    # dot or fma of its own, so those are the reference sums of products
    def __init__(self, ring):
        m = 0 if isinstance(ring.base, IntegerRing) else ring.base.n
        for g in ring.gens:
            m = gcd(m, g)
        self.modulus = m
        self.is_zero_ring = m == 1

    def _reduce(self, base_payload):
        return base_payload % self.modulus if self.modulus else base_payload

    def add(self, a, b):
        return self._reduce(a + b)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._reduce(a * b)

    def neg(self, a):
        return self._reduce(-a)

    def is_unit_payload(self, a):
        if self.modulus == 0:
            return a in (1, -1)
        if self.is_zero_ring:
            return True
        return gcd(a, self.modulus) == 1

    def inverse_payload(self, a):
        if self.modulus == 0:
            if a in (1, -1):
                return a
            raise NotAUnit(f"{a} is not a unit")
        if self.is_zero_ring:
            return 0
        if gcd(a, self.modulus) != 1:
            raise NotAUnit(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def is_nilpotent_payload(self, a):
        if self.modulus == 0:
            return a == 0
        x = a % self.modulus if self.modulus else a
        for _ in range(max(1, self.modulus.bit_length())):
            x = (x * x) % self.modulus
        return x == 0

    def elements(self):
        return list(range(self.modulus))

    def random(self, rng):
        if self.modulus == 0:
            return rng.randint(-9, 9)
        return rng.randrange(self.modulus)


def _residue_modulus_ref(ring):
    # reference: Ring.integer_modulus when integer quotients were a style
    if isinstance(ring, ModularRing):
        return ring.n
    if (isinstance(ring, QuotientRing)
            and isinstance(ring.base, (IntegerRing, ModularRing))):
        return ring.modulus
    return 0 if isinstance(ring, IntegerRing) else None


def _unit_ideal_witness_ref(ring, values):
    # reference: the unit-ideal solver before unit_ideal_witness asked
    # ideal_combination for the target 1
    values = list(values)
    if not values:
        return None
    if ring.is_zero_ring:
        return [ring.zero() for _ in values]
    if ring.is_local:
        for i, v in enumerate(values):
            if v.is_unit():
                out = [ring.zero() for _ in values]
                out[i] = v.inverse()
                return out
        return None
    n = _residue_modulus_ref(ring)
    if n is not None:
        acc_g, acc_coeffs = _xgcd_chain(int(v.payload) for v in values)
        if n:
            if gcd(acc_g, n) != 1:
                return None
            t = pow(acc_g % n, -1, n)
            return [ring.coerce(c * t) for c in acc_coeffs]
        if acc_g == 1:
            return [ring.coerce(c) for c in acc_coeffs]
        return None
    if ring.is_finite and ring.cardinality() ** len(values) <= 10 ** 5:
        pool = list(ring.elements())
        zero, one = ring.zero().payload, ring.one().payload
        payloads = [v.payload for v in values]
        for combo in itertools.product(pool, repeat=len(values)):
            if ref.sum_of_products(ring, zero, [c.payload for c in combo],
                                   payloads) == one:
                return list(combo)
        return None
    raise UnsupportedRing(f"no unit-ideal test for {ring}")


_Z = IntegerRing()
# Z/(6), (Z/12)/(8) = Z/4, (Z/9)/(3) = Z/3, (Z/4)/(), the zero ring Z/(1)
# and Z/(10,4) = Z/2
FINITE_INTEGER_QUOTIENTS = [
    QuotientRing(_Z, [6]), QuotientRing(ModularRing(12), [8]),
    QuotientRing(ModularRing(9), [3]), QuotientRing(ModularRing(4), []),
    QuotientRing(_Z, [1]), QuotientRing(_Z, [10, 4])]
Z_MOD_0 = QuotientRing(_Z, [0])
Z_MOD_0_SAMPLE = list(range(-12, 13)) + [2 ** 70 + 1, -(3 ** 50)]


def _check_integer_quotient(q, payloads):
    old = _IntegerQuotientRef(q)
    assert q.modulus == old.modulus
    for a in payloads:
        assert q.neg(a) == old.neg(a)
        assert q.is_unit_payload(a) == old.is_unit_payload(a)
        assert q.is_nilpotent_payload(a) == old.is_nilpotent_payload(a)
        if old.modulus:  # a residue's rank is its value
            assert q.rank(a) == a == q.unrank(a)
        got, want = (ref.outcome(q.inverse_payload, a, catch=NotAUnit),
                     ref.outcome(old.inverse_payload, a, catch=NotAUnit))
        if old.modulus == 0 and isinstance(want, ref.Raised):
            # Z/(0) now answers with Z's own message
            want = ref.Raised(NotAUnit, "not_a_unit", want.message + " in Z",
                              {})
        assert got == want
        for b in payloads:
            for op in ("add", "sub", "mul"):
                assert getattr(q, op)(a, b) == getattr(old, op)(a, b)
            for c in payloads[:6]:
                assert q.fma(a, b, c) == ref.sum_of_products(q, a, [b], [c])
                assert q.dot(a, [b, c, a], [c, a, b]) == ref.sum_of_products(
                    q, a, [b, c, a], [c, a, b])


@pytest.mark.parametrize("q", FINITE_INTEGER_QUOTIENTS, ids=str)
def test_integer_quotient_matches_reference(q):
    old = _IntegerQuotientRef(q)
    elements = list(q.elements())
    assert [v.payload for v in elements] == old.elements()
    assert all(v.ring is q for v in elements)
    assert q.cardinality() == len(elements)
    _check_integer_quotient(q, old.elements())
    for seed in range(20):
        v = q.random(random.Random(seed))
        assert v.ring is q and v.payload == old.random(random.Random(seed))


def test_integer_quotient_of_zero_ideal_matches_reference():
    q = Z_MOD_0
    assert not q.is_finite and q.modulus == 0
    _check_integer_quotient(q, Z_MOD_0_SAMPLE)
    for seed in range(20):
        v = q.random(random.Random(seed))
        old = _IntegerQuotientRef(q).random(random.Random(seed))
        assert v.ring is q and v.payload == old
    for fn in (q.elements, q.cardinality, lambda: q.rank(0)):
        with pytest.raises(UnsupportedRing):
            fn()


def test_poly_over_integer_quotient_matches_modular():
    # R[T] over Z/(6) takes the fused integer path, so its payloads are
    # those over Z/6 and the quotient's own add and mul are never called
    q, z6 = QuotientRing(_Z, [6]), ModularRing(6)
    over_q, over_z6 = PolyExt(q, "T"), PolyExt(z6, "T")
    for name in ("add", "mul"):
        setattr(q, name, None)
    rng = random.Random(6)

    def poly():
        return over_z6.canon([rng.randrange(6)
                              for _ in range(rng.randrange(5))])
    for _ in range(200):
        acc = poly()
        xs, ys = [poly() for _ in range(3)], [poly() for _ in range(3)]
        assert over_q.mul(xs[0], ys[0]) == over_z6.mul(xs[0], ys[0])
        assert over_q.dot(acc, xs, ys) == over_z6.dot(acc, xs, ys)


UNIT_IDEAL_RINGS = FINITE_INTEGER_QUOTIENTS + [
    # F_2[x]/(x^2 + x): neither local nor Z/m, so the exhaustive search
    QuotientRing(PolyExt(PrimeField(2), "x"), [[0, 1, 1]])]


@pytest.mark.parametrize("ring", UNIT_IDEAL_RINGS, ids=str)
def test_unit_ideal_witness_matches_reference(ring):
    assert ring.integer_modulus == _residue_modulus_ref(ring)
    pool = list(ring.elements())
    for k in (1, 2, 3):
        for values in itertools.product(pool, repeat=k):
            got = unit_ideal_witness(ring, values)
            assert (got is None) == (
                _unit_ideal_witness_ref(ring, values) is None), values
            if got is not None:
                assert ref.combination(ring, got, values) == \
                    ring.one().payload


def test_unit_ideal_witness_over_z_mod_0_matches_reference():
    assert Z_MOD_0.integer_modulus == _residue_modulus_ref(Z_MOD_0) == 0
    rng = random.Random(0)
    for _ in range(300):
        values = [Z_MOD_0.coerce(rng.choice(Z_MOD_0_SAMPLE))
                  for _ in range(rng.randrange(1, 4))]
        got = unit_ideal_witness(Z_MOD_0, values)
        assert (got is None) == (
            _unit_ideal_witness_ref(Z_MOD_0, values) is None), values
        if got is not None:
            assert ref.combination(Z_MOD_0, got, values) == 1
