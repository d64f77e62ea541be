"""Orthogonal quotient machinery: the O_2 dichotomy, reduction of O_2m over
a local ring to a corner O_2 block modulo elementary generators, and the
two-stably-elementary commutator harness.

Commutators of corner blocks land in Diag(t^2) for an explicit unit t, and
diag(t^2, t^-2) ⊥ I_2 has an explicit elementary word through an auxiliary
hyperbolic pair: two SL_2 embeddings along (odd, odd) and (odd, even) slots
multiply to the square scaling while cancelling on the helper pair.  That is
exactly where the extra ⊥ I_2 is consumed.

The O_2 classification, the corner conjugation and the square scaling
compute on payloads and build their words with the trusted ``_gen`` and
``_rebuilt`` (the square's first move, on the caller's t, with ``Generator``);
the harness takes orthogonal words only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DescriptorMismatch, HalfNotInvertible, NoUnitEntry,
                     NotClassifiable, NotOrthogonal, ReductionFailed,
                     SizeBound, UnsupportedPresentation, FormViolation,
                     NotLocal)
from .matrices import Mat, _form_inverse, block_perp, identity, membership
from .reduce import _Reduction
from .rings import PolyExt, Ring, RingValue, has_half
from .words import FAMILY_ORTH, GenWord, Generator, Witness, _gen, _rebuilt


def orth_inverse(a: Mat) -> Mat:
    """a^{-1} for orthogonal a via the form: a^{-1} = phi a^t phi."""
    return _form_inverse(a, "orth")


@dataclass(frozen=True)
class O2Class:
    """An O_2 element in normal form: diag(u, u^{-1}) or antidiag(u, u^{-1})."""

    shape: str  # "diag" | "antidiag"
    u: RingValue

    def __post_init__(self):
        if self.shape not in ("diag", "antidiag"):
            raise DescriptorMismatch(f"unknown O_2 shape {self.shape!r}")
        if not self.u.is_unit():
            self.u.inverse()  # raises not_a_unit, with the ring's message

    def reconstruct(self) -> Mat:
        ring = self.u.ring
        ui = self.u.inverse()
        if self.shape == "diag":
            return Mat(ring, [[self.u, ring.zero()], [ring.zero(), ui]])
        return Mat(ring, [[ring.zero(), self.u], [ui, ring.zero()]])

    def inverse(self) -> "O2Class":
        if self.shape == "diag":
            return O2Class("diag", self.u.inverse())
        return self  # antidiag(u, u^{-1}) is an involution


def classify_o2(a: Mat) -> O2Class:
    """Split an O_2 element into its diagonal or antidiagonal normal form."""
    if a.rows != 2 or a.cols != 2:
        raise NotOrthogonal("expected a 2 x 2 matrix")
    if not has_half(a.ring):
        raise HalfNotInvertible(f"O_2 classification needs 1/2 in {a.ring}")
    if not membership(a, "O"):
        raise NotOrthogonal("matrix does not preserve the symmetric form")
    ring = a.ring
    (p, q), (r, s) = a._grid
    zero, one = ring.zero().payload, ring.one().payload
    unit, mul = ring.is_unit_payload, ring.mul
    if q == zero and r == zero and unit(p) and mul(p, s) == one:
        cls = O2Class("diag", RingValue(ring, p))
    elif p == zero and s == zero and unit(q) and mul(q, r) == one:
        cls = O2Class("antidiag", RingValue(ring, q))
    else:
        raise NotClassifiable(
            "matrix fits neither normal form (nontrivial idempotents?)", a=a)
    if cls.reconstruct() != a:
        raise NotClassifiable("internal: reconstruction mismatch")
    return cls


def vaserstein_quotient(a: Mat) -> tuple[Mat, GenWord]:
    """Write a in O_2m (m >= 3, local ring) as (I_{2m-2} ⊥ delta) . eval(w)."""
    ring = a.ring
    if a.rows != a.cols or a.rows % 2:
        raise NotOrthogonal("expected an even square matrix")
    m = a.rows // 2
    if m < 3:
        raise SizeBound("the quotient reduction needs m >= 3")
    if not ring.is_local:
        raise NotLocal("the quotient reduction needs a local ring")
    if not membership(a, "O"):
        raise NotOrthogonal("matrix does not preserve the symmetric form")
    red = _Reduction(a, FAMILY_ORTH)
    try:
        red.pairs(m - 1)
    except (FormViolation, NoUnitEntry) as e:
        raise ReductionFailed(str(e), partial_state=[
            [ring.value_to_json(p) for p in row] for row in red.rows]) from e
    cut = 2 * m - 2
    if any(x != red.zero for row in red.rows[cut:] for x in row[:cut]):
        raise ReductionFailed("orthogonality failed to clear the corner block")
    delta = Mat._box(ring, [row[cut:] for row in red.rows[cut:]])
    word = red.word().invert()
    delta, word = _normalize_corner(delta, word, m)
    if block_perp(identity(ring, cut), delta) @ word.eval() != a:
        raise ReductionFailed("internal: factorization mismatch")
    if not membership(delta, "O"):
        raise ReductionFailed("internal: corner block left O_2")
    return delta, word


def _normalize_corner(delta: Mat, word: GenWord, m: int):
    """Absorb square-scaled corners into the word: corner blocks
    diag(t^2, t^{-2}) are elementary (hyperbolic square through a helper
    pair), so the residual corner is canonicalized across its square class
    over a ring with a finite residue field (``ring.residue_size``);
    elsewhere the raw corner stands.
    """
    ring = delta.ring
    if ring.residue_size is None:
        return delta, word
    try:
        cls = classify_o2(delta)
    except NotClassifiable:
        return delta, word
    t = _corner_root(ring, cls.shape, cls.u.payload)
    if t == ring.one().payload:
        return delta, word
    word_new = hyperbolic_square_word(ring, 2 * m, m, 1,
                                      RingValue(ring, t)) + word
    return O2Class(cls.shape, RingValue(ring, _moved(ring, cls.shape,
                                                     cls.u.payload, t))
                   ).reconstruct(), word_new


def _moved(ring: Ring, shape: str, u, t):
    """The corner's unit once diag(t^2, t^-2) is absorbed: u / t^2 (diag)
    or u * t^2 (antidiag)."""
    sq = ring.mul(t, t)
    return ring.mul(u, ring.inverse_payload(sq) if shape == "diag" else sq)


def _least_units(ring: Ring, order: int) -> dict:
    """Square or not -> the least unit of that class in rank order, found
    by a walk of the ranks from 1 on the first call and kept on the ring
    instance, as ``Ring.identity_rows`` keeps its rows: over F_101[x]/(x^3)
    the walk meets 10,201 units of 1 + M before the non-square 2."""
    least = ring._least_units
    if least is None:
        one, power = ring.one().payload, ring.power
        least, ranked = {}, map(ring.unrank, range(1, ring.cardinality()))
        while len(least) < 2:
            v = next(ranked)
            if ring.is_unit_payload(v):
                least.setdefault(not ring.is_unit_payload(ring.sub(v, one))
                                 or power(v, order // 2) == one, v)
        ring._least_units = least
    return least


def _corner_root(ring: Ring, shape: str, u):
    """The unit t of ``_normalize_corner``: the least moved u, then the
    least t, in the ring's order.  R is finite and local with 1/2, so kappa
    = |R/M| is odd and R* = (cyclic 2-part of k*) x (odd order): a unit v
    is a square iff v^(|R*|/2) = 1, |R*| = (q/kappa)(kappa - 1), and the
    units of 1 + M all are.  The least of u's square class is the least
    unit of that class in rank order, c, and t is the smaller of the two
    roots +-r of u/c (diag) or c/u (antidiag), by Tonelli-Shanks in R*
    from the least non-square."""
    one, mul, power = ring.one().payload, ring.mul, ring.power
    kappa = ring.residue_size
    order = ring.cardinality() // kappa * (kappa - 1)
    least = _least_units(ring, order)
    c, inv = least[power(u, order // 2) == one], ring.inverse_payload
    a = mul(u, inv(c)) if shape == "diag" else mul(c, inv(u))
    # Tonelli-Shanks: |R*| = q 2^s with q odd; for the least non-square
    # z, z^q has order 2^s
    q, s = order, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    b, x, r = power(least[False], q), power(a, q), power(a, (q + 1) // 2)
    while x != one:  # x = a^-1 r^2 has order 2^i < 2^s
        i, y = 0, x
        while y != one:
            i, y = i + 1, mul(y, y)
        f = power(b, 1 << (s - i - 1))
        s, b = i, mul(f, f)
        x, r = mul(x, b), mul(r, f)
    return min(r, ring.neg(r), key=ring.rank)


# ---------------------------------------------------------------------------
# factored presentations and the commutator harness

@dataclass(frozen=True)
class FactoredOrthogonal:
    """(I_{2m-2} ⊥ delta) . eval(word): the presentation the harness consumes."""

    delta: Mat
    word: GenWord

    def __post_init__(self):
        if self.delta.rows != 2 or self.delta.cols != 2:
            raise UnsupportedPresentation("corner block must be 2 x 2")
        if self.delta.ring != self.word.ring:
            raise UnsupportedPresentation("corner and word rings differ")
        if self.word.size < 6:
            raise SizeBound("factored presentations need size >= 6")
        if not membership(self.delta, "O"):
            raise NotOrthogonal("corner block is not orthogonal")
        if self.word.family != FAMILY_ORTH:
            raise UnsupportedPresentation(
                "the word must be in orthogonal generators")

    @property
    def size(self) -> int:
        return self.word.size

    @property
    def ring(self) -> Ring:
        return self.word.ring

    def matrix(self) -> Mat:
        corner = block_perp(identity(self.ring, self.size - 2), self.delta)
        return corner @ self.word.eval()

    @staticmethod
    def from_word(word: GenWord) -> "FactoredOrthogonal":
        return FactoredOrthogonal(identity(word.ring, 2), word)

    @staticmethod
    def from_matrix(a: Mat) -> "FactoredOrthogonal":
        if isinstance(a.ring, PolyExt):
            raise UnsupportedPresentation(
                "polynomial-ring input must arrive already factored")
        delta, word = vaserstein_quotient(a)
        return FactoredOrthogonal(delta, word)


def conjugate_word_by_corner(word: GenWord, cls: O2Class) -> GenWord:
    """(I ⊥ delta) . eval(word) . (I ⊥ delta)^{-1} as a word: corner
    conjugation swaps the last pair (antidiag) and rescales parameters:
    oe_ij(z) becomes oe_ij(d_i z / d_j) with d_prev = u (diag) or 1/u
    (antidiag), d_last = 1/d_prev and d_k = 1 elsewhere.  At most one of
    i, j lies in the last pair; a generator with neither is kept."""
    if word.family != FAMILY_ORTH:
        raise UnsupportedPresentation(
            "corner conjugation needs a word in orthogonal generators")
    ring, size = word.ring, word.size
    # u's payload, or RingValue's refusal of a corner over another ring
    u = ring.one()._coerce_other(cls.u)
    last, prev = size, size - 1
    swap = cls.shape == "antidiag"
    d = ring.inverse_payload(u) if swap else u
    up = {prev: d, last: ring.inverse_payload(d)}  # i in the last pair
    down = {prev: up[last], last: d}               # j in the last pair
    perm = {prev: last, last: prev} if swap else {}
    gens = []
    for g in word:
        c = up.get(g.i, down.get(g.j))
        gens.append(g if c is None else _gen(
            FAMILY_ORTH, perm.get(g.i, g.i), perm.get(g.j, g.j), ring,
            ring.mul(g.z, c), size))
    return _rebuilt(ring, size, FAMILY_ORTH, tuple(gens))


def hyperbolic_square_word(ring: Ring, size: int, pair_p: int, pair_q: int,
                           t: RingValue) -> GenWord:
    """A word for diag(t^2, t^{-2}) on pair_p, identity elsewhere, using
    pair_q as the helper: two SL_2 embeddings whose helper actions cancel.

    The six moves of diag(t, 1/t) = e_12(t) e_21(-1/t) e_12(t) e_12(-1)
    e_21(1) e_12(-1) act on the odd slots a, b of the two pairs, then on a
    and the even slot b + 1.  The first move is built by the checked
    ``Generator``, whose checks cover them all."""
    if pair_p == pair_q:
        raise SizeBound("the helper pair must differ from the target pair")
    a, b = 2 * pair_p - 1, 2 * pair_q - 1
    tz, ti = t.payload, t.ring.inverse_payload(t.payload)
    first = Generator(FAMILY_ORTH, a, b, t, size)
    if t.ring != ring:
        raise DescriptorMismatch("generator parameter ring mismatch")
    zero, one, neg = ring.zero().payload, ring.one().payload, ring.neg
    # (helper slot, from slot a, parameter): True is e_12, False is e_21
    moves = [(h, fwd, z) for h in (b, b + 1)
             for fwd, z in ((True, tz), (False, neg(ti)), (True, tz),
                            (True, neg(one)), (False, one), (True, neg(one)))]
    gens = (first,) + tuple(
        _gen(FAMILY_ORTH, a if fwd else h, h if fwd else a, ring, z, size)
        for h, fwd, z in moves[1:])
    word = _rebuilt(ring, size, FAMILY_ORTH,
                    tuple(g for g in gens if g.z != zero))
    expected = Mat.identity(ring, size)._payloads()
    expected[a - 1][a - 1] = ring.mul(tz, tz)
    expected[a][a] = ring.mul(ti, ti)
    if word.eval() != Mat._box(ring, expected):
        raise FormViolation("internal: square scaling word mismatch")
    return word


def corner_commutator_square_root(cls_a: O2Class, cls_b: O2Class) -> RingValue:
    """t with [delta_a, delta_b] = diag(t^2, t^{-2}); commutators of the two
    normal forms are always diagonal squares."""
    ring = cls_a.u.ring
    if cls_a.shape == "diag" and cls_b.shape == "diag":
        return ring.one()
    if cls_a.shape == "diag":
        return cls_a.u
    if cls_b.shape == "diag":
        return cls_b.u.inverse()
    return cls_a.u * cls_b.u.inverse()


def commutator_harness(a: FactoredOrthogonal,
                       b: FactoredOrthogonal) -> tuple[GenWord, Witness]:
    """An explicit elementary word for [a, b] ⊥ I_2.

    The word parts are moved across the corner blocks by conjugation
    (staying words), the corner commutator is a diagonal square, and the
    square scaling is realized through the freshly added hyperbolic pair.
    """
    if a.ring != b.ring or a.size != b.size:
        raise UnsupportedPresentation("operands live in different ambients")
    ring = a.ring
    size = a.size
    m = size // 2
    if m < 3:
        raise SizeBound("the commutator harness needs m >= 3")
    base = ring.base if isinstance(ring, PolyExt) else ring
    if not base.is_local:
        raise NotLocal("the harness runs over a local base ring")
    if not has_half(ring):
        raise HalfNotInvertible("the harness needs 1/2")
    cls_a = classify_o2(a.delta)
    cls_b = classify_o2(b.delta)

    w1 = conjugate_word_by_corner(a.word, cls_b.inverse()) + b.word \
        + a.word.invert()
    w2 = conjugate_word_by_corner(w1, cls_a) + b.word.invert()
    w3 = conjugate_word_by_corner(w2, cls_b)

    t = corner_commutator_square_root(cls_a, cls_b)
    da, db = cls_a.reconstruct(), cls_b.reconstruct()
    corner_comm = da @ db @ orth_inverse(da) @ orth_inverse(db)
    square = O2Class("diag", t * t).reconstruct()
    if corner_comm != square:
        raise FormViolation("internal: corner commutator is not the "
                            "expected diagonal square")

    big = size + 2
    word = w3.embed(big)
    if t != ring.one():
        word = hyperbolic_square_word(ring, big, m, m + 1, t) + word

    am, bm = a.matrix(), b.matrix()
    comm = am @ bm @ orth_inverse(am) @ orth_inverse(bm)
    target = block_perp(comm, identity(ring, 2))
    word_mat = word.eval()
    check_exact = word_mat == target
    checks = [
        ("inputs are orthogonal",
         membership(am, "O") and membership(bm, "O")),
        ("corner commutator is diag(t^2, t^{-2})", corner_comm == square),
        ("word evaluates to [a, b] ⊥ I_2 exactly", check_exact),
    ]
    if isinstance(ring, PolyExt):
        from .homotopy import mat_substitute
        for point in (ring.base.zero(), ring.base.one()):
            lhs = mat_substitute(word_mat, point)
            rhs = mat_substitute(target, point)
            checks.append((f"specialization at X = {point!r} agrees",
                           lhs == rhs))
    witness = Witness.certify(
        "ortho_commutator", {"a": am, "b": bm}, {"word": word}, checks)
    return word, witness


def commutator_harness_hso(alpha, b: FactoredOrthogonal) -> tuple[GenWord, Witness]:
    """The commutator harness for a special-orthogonally-null-homotopic first
    argument, presented as a word-backed homotopy; the T = 1 specialization
    feeds the factored engine and the homotopy checks join the report."""
    from .homotopy import Homotopy
    if not isinstance(alpha, Homotopy) or alpha.flavor != "orthogonal":
        raise UnsupportedPresentation("expected an orthogonal homotopy")
    if not alpha.is_word_backed():
        raise UnsupportedPresentation("the homotopy factor must be word-backed")
    a_word = alpha.word.specialize(alpha.base_ring.one())
    if a_word.size != b.size or a_word.ring != b.ring:
        raise UnsupportedPresentation("homotopy and factored operand disagree")
    a = FactoredOrthogonal.from_word(a_word)
    word, base_witness = commutator_harness(a, b)
    checks = [(c.name, c.status == "pass") for c in base_witness.checks]
    checks.append(("homotopy starts at the identity",
                   alpha.at(0).is_identity()))
    checks.append(("homotopy stays special orthogonal over R[T]",
                   membership(alpha.delta_t, "SO")))
    witness = Witness.certify("ortho_commutator_hso",
                              base_witness.inputs, base_witness.outputs,
                              checks)
    return word, witness
