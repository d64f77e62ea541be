"""Typed words in elementary generators: the universal witness currency.

Three families share one shape: linear e_ij(z) = I + z E_ij, symplectic
se_ij(z) and orthogonal oe_ij(z), the latter two built on the index pairing
(1,2),(3,4),...  A word is its generators, so that every membership
claim is certified by exhibition; ``eval`` keeps the matrix it computes
beside the word, outside its fields.

A generator holds its parameter as the canonical payload ``z`` of its ring,
never boxed inside the library: ``param`` builds a ``RingValue`` only when
something reads it.  It acts on the right by one or two sparse column
updates col_t += c * col_s, which it stores as 0-based payload triples
(``Generator._triples``), built once with it by ``_gen``.  One kernel per
ring, ``Ring.act``, performs them in place on rows of canonical payloads,
skipping rows whose source entry is zero: ``Ring``'s loop makes one ``fma``
per update, and Z/n (so F_p and the integer quotients mod n) inlines the
update.  Word evaluation, the right actions on matrices and rows, generator
matrices, the reduction engine, the row lemmas and the oracle's link and
path checks all call it.  Matrices keep the payload rows it returns.
``apply_word_to_row`` boxes its result as ``RingValue``s for callers
outside the library; no construction calls it.  The orbit oracle's BFS
reads the same triples once per enumeration, and its tests check its row
kernel against this one.

The left action on matrices runs the same kernel on the transpose: the
transpose of a generator (i, j, z) is the generator (j, i, z) of the same
family.  Only zero-parameter generators are dropped from a word.

Every rebuild passes payloads: an inverse negates z on the payload, and a
lift, a multiplication by T, a specialization and a dilation compute the
new payload directly, so no word transport boxes a value.

Words are checked at the edge: ``Generator`` and ``GenWord`` check every
field they are given.  A word rebuilt from generators that already passed
those checks (an inverse, a concatenation, an embedding, a shift, a lift, a
specialization, a dilation, a transpose) is made by ``_gen`` and
``_rebuilt``, which check only what the rebuild can break: the word limit,
a shifted index range, and zero parameters, which a specialization or a
dilation can make.  So are the construction-internal words, whose indices
come from the construction's own loops and whose zero parameters are
skipped where they arise: the reduction engine's (``reduce._Reduction``),
the block factors of the linear Whitehead word and of transport's
correction (``factor._block_gens``), the row lemmas' words (transvections,
common perpendiculars, the quotient lift and its residual clearing), and
the orthogonal corner conjugation and hyperbolic square (whose first
move, on the caller's parameter, is built by ``Generator`` for its checks).
The oracle's catalog builds the first parameter of each (i, j) with
``Generator`` and the others, which the checks never read, with ``_gen``.
The public constructors and ``word_from_pairs`` keep every check.

A product by a short word costs O(len(w) * rows) ring operations, against
O(size^3) for a matmul by its matrix, so the homotopy engine conjugates by
the completion word W as ``apply_word_right(apply_word_left(W^{-1}, m), W)``
and checks products by a witness word with ``apply_word_right``, without
evaluating either word.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import itemgetter

from .errors import (BadIndices, DescriptorMismatch, HalfNotInvertible,
                     FormViolation, WordLimitExceeded)
from .matrices import Mat, membership
from .rings import PolyExt, Ring, RingValue, has_half

FAMILY_LIN = "lin"
FAMILY_SP = "sp"
FAMILY_ORTH = "orth"

DEFAULT_WORD_LIMIT = 10 ** 5


def word_limit() -> int:
    raw = os.environ.get("CGF_WORD_LIMIT")
    return int(raw) if raw else DEFAULT_WORD_LIMIT


def paired_index(k: int) -> int:
    """The form pairing (1,2),(3,4),... on 1-based indices."""
    return k + 1 if k % 2 == 1 else k - 1


class Generator(tuple):
    """One elementary generator with 1-based indices.

    A tuple in the namedtuple style, (family, i, j, size, ring, z,
    triples): ``z`` is the parameter's canonical payload in ``ring``, and
    ``_triples`` the 0-based column updates of right multiplication, built
    once with the generator (see ``_gen``).  ``param`` boxes ``z`` as a
    ``RingValue`` on each read.  Being a tuple it is immutable; it equals
    only another ``Generator`` with the same fields.
    """

    __slots__ = ()

    def __new__(cls, family: str, i: int, j: int, param: RingValue,
                size: int):
        if family not in (FAMILY_LIN, FAMILY_SP, FAMILY_ORTH):
            raise BadIndices(f"unknown family {family!r}")
        if not (1 <= i <= size and 1 <= j <= size):
            raise BadIndices(f"indices ({i},{j}) out of 1..{size}")
        if i == j:
            raise BadIndices("generator indices must differ")
        if family in (FAMILY_SP, FAMILY_ORTH):
            if size % 2 or size < 2:
                raise BadIndices(f"{family} generators need even size")
            if family == FAMILY_ORTH:
                if i == paired_index(j):
                    raise BadIndices("orthogonal generators exclude i = pair(j)")
                if not has_half(param.ring):
                    raise HalfNotInvertible(
                        f"orthogonal generators need 1/2 in {param.ring}")
        elif size < 2:
            raise BadIndices("linear generators need size >= 2")
        return _gen(family, i, j, param.ring, param.payload, size)

    family = property(itemgetter(0))
    i = property(itemgetter(1))
    j = property(itemgetter(2))
    size = property(itemgetter(3))
    ring = property(itemgetter(4))
    z = property(itemgetter(5))
    # ((target, source, payload), ...), 0-based: col_target += c * col_source
    _triples = property(itemgetter(6))

    @property
    def param(self) -> RingValue:
        return RingValue(self[4], self[5])

    def __eq__(self, other):
        # False, never NotImplemented: a tuple must not equal a generator
        return isinstance(other, Generator) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self[0], self[1], self[2], self[3], self[4].key(),
                     self[5]))

    def __reduce__(self):
        # copies rebuild through _gen: the constructor takes a RingValue
        return _gen, (self[0], self[1], self[2], self[4], self[5], self[3])

    def inverse(self) -> "Generator":
        return _gen(self[0], self[1], self[2], self[4], self[4].neg(self[5]),
                    self[3])

    def updates(self):
        """The sparse column updates of right multiplication.

        Returns ((target, source, coeff), ...): col_target += coeff * col_source.
        """
        ring = self[4]
        return tuple((t + 1, s + 1, RingValue(ring, c))
                     for t, s, c in self[6])

    def __repr__(self):
        tag = {"lin": "e", "sp": "se", "orth": "oe"}[self[0]]
        return f"{tag}_{self[1]}{self[2]}({self[4].render(self[5])})"

    def to_json(self):
        return {"i": self[1], "j": self[2],
                "param": self[4].value_to_json(self[5])}


def _gen(family: str, i: int, j: int, ring: Ring, z, size: int) -> Generator:
    """The generator (i, j) of ``family`` with the canonical payload ``z``
    of ``ring``, and its update triples: one for lin and for sp (i, pair i),
    two otherwise, the second on the partner indices with -z (orth; sp when
    i + j is even) or z.

    The checks are not run: the generator is rebuilt from one that passed
    ``Generator``'s checks, with a payload from the same ring, or built by a
    construction from its own indices.  The caller answers for distinct
    indices in 1..size, an even size for the paired families, i != pair(j)
    and 1/2 in the ring for orth."""
    i0, j0 = i - 1, j - 1
    if family == FAMILY_LIN:
        triples = ((j0, i0, z),)
    else:
        # the 0-based partners: pair(k) - 1 is k for odd k, k - 2 for even
        si = i0 - 1 if i % 2 == 0 else i
        sj = j0 - 1 if j % 2 == 0 else j
        if family == FAMILY_ORTH:
            triples = ((j0, i0, z), (si, sj, ring.neg(z)))
        elif i0 == sj:
            triples = ((j0, i0, z),)
        else:
            triples = ((j0, i0, z),
                       (si, sj, ring.neg(z) if (i + j) % 2 == 0 else z))
    return tuple.__new__(Generator, (family, i, j, size, ring, z, triples))


def _check_length(n: int):
    limit = word_limit()
    if n > limit:
        raise WordLimitExceeded(f"word length {n} exceeds limit {limit}")


def gen_matrix(g: Generator) -> Mat:
    """The defining matrix of a generator; form preservation is asserted
    for the symplectic and orthogonal families."""
    ring = g.ring
    m = Mat._box(ring, ring.act(Mat.identity(ring, g.size)._payloads(),
                                (g,)))
    if g.family == FAMILY_SP and not membership(m, "Sp"):
        raise FormViolation(f"{g} does not preserve the alternating form")
    if g.family == FAMILY_ORTH and not membership(m, "O"):
        raise FormViolation(f"{g} does not preserve the symmetric form")
    return m


@dataclass(frozen=True)
class GenWord:
    """A finite product of same-family generators over one ring."""

    ring: Ring
    size: int
    family: str
    gens: tuple = ()

    def __post_init__(self):
        kept = []
        zero = self.ring.zero().payload
        for g in self.gens:
            if not isinstance(g, Generator):
                raise BadIndices(f"{g!r} is not a generator")
            if g.family != self.family or g.size != self.size:
                raise DescriptorMismatch("generator family/size mismatch")
            if g.ring != self.ring:
                raise DescriptorMismatch("generator parameter ring mismatch")
            if g.z != zero:
                kept.append(g)
        _check_length(len(kept))
        object.__setattr__(self, "gens", tuple(kept))

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __add__(self, other: "GenWord") -> "GenWord":
        if (other.ring != self.ring or other.size != self.size
                or other.family != self.family):
            raise DescriptorMismatch("cannot concatenate incompatible words")
        return _rebuilt(self.ring, self.size, self.family,
                        self.gens + other.gens)

    # -- evaluation --------------------------------------------------------
    def eval(self) -> Mat:
        """The matrix of the word, computed on the first call and kept.

        A word is immutable, so it is evaluated at most once.  The matrix is
        not a dataclass field: ==, hash, repr and to_json ignore it."""
        m = self.__dict__.get("_mat")
        if m is None:
            m = apply_word_right(Mat.identity(self.ring, self.size), self)
            object.__setattr__(self, "_mat", m)
        return m

    def invert(self) -> "GenWord":
        return _rebuilt(self.ring, self.size, self.family,
                        tuple(g.inverse() for g in reversed(self.gens)))

    # -- parameter transport -------------------------------------------------
    def dilate(self, b: RingValue) -> "GenWord":
        """T -> b*T on every parameter (parameters live in R[T])."""
        if not isinstance(self.ring, PolyExt):
            raise DescriptorMismatch("dilate needs parameters in R[T]")
        rt: PolyExt = self.ring
        if b.ring != rt.base:
            raise DescriptorMismatch("dilation scale must live in the base ring")
        zero = rt.zero().payload
        scaled = ((g, rt.compose_scale(g.z, b)) for g in self.gens)
        return _rebuilt(rt, self.size, self.family, tuple(
            _gen(g.family, g.i, g.j, rt, p, g.size)
            for g, p in scaled if p != zero))

    def specialize(self, t: RingValue) -> "GenWord":
        """T -> t on every parameter, producing a word over the base ring."""
        if not isinstance(self.ring, PolyExt):
            raise DescriptorMismatch("specialize needs parameters in R[T]")
        rt: PolyExt = self.ring
        if t.ring != rt.base:
            raise DescriptorMismatch("specialization point must be in the base")
        base, zero = rt.base, rt.base.zero().payload
        values = ((g, rt._horner(g.z, t.payload)) for g in self.gens)
        return _rebuilt(base, self.size, self.family, tuple(
            _gen(g.family, g.i, g.j, base, p, g.size)
            for g, p in values if p != zero))

    def lift_to(self, rt: PolyExt) -> "GenWord":
        """Constant-embed an R-word into R[T]."""
        if rt.base != self.ring:
            raise DescriptorMismatch("polynomial ring has a different base")
        # a nonzero constant z has the payload (z,)
        return _rebuilt(rt, self.size, self.family, tuple(
            _gen(g.family, g.i, g.j, rt, (g.z,), g.size) for g in self.gens))

    def times_variable(self, rt: PolyExt) -> "GenWord":
        """Parameters z -> z*T: the straight-line homotopy of an R-word."""
        if rt.base != self.ring:
            raise DescriptorMismatch("polynomial ring has a different base")
        # z*T has the payload (0, z) for z != 0; building T checks that
        # the degree cap admits it
        rt.variable()
        zero = self.ring.zero().payload
        return _rebuilt(rt, self.size, self.family, tuple(
            _gen(g.family, g.i, g.j, rt, (zero, g.z), g.size)
            for g in self.gens))

    # -- index transport -----------------------------------------------------
    def embed(self, new_size: int) -> "GenWord":
        """Same indices inside a larger ambient size (block ⊥ identity)."""
        if new_size < self.size:
            raise BadIndices("cannot embed into a smaller size")
        if self.family != FAMILY_LIN and new_size % 2:
            raise BadIndices("paired families need even ambient size")
        return _rebuilt(self.ring, new_size, self.family, tuple(
            _gen(g.family, g.i, g.j, g.ring, g.z, new_size)
            for g in self.gens))

    def shift(self, offset: int, new_size: int) -> "GenWord":
        """Indices += offset (offset even for the paired families)."""
        if self.family != FAMILY_LIN and offset % 2:
            raise BadIndices("paired families shift by even offsets")
        for g in self.gens:
            i, j = g.i + offset, g.j + offset
            if not (1 <= i <= new_size and 1 <= j <= new_size):
                raise BadIndices(f"indices ({i},{j}) out of 1..{new_size}")
            if self.family != FAMILY_LIN and new_size % 2:
                raise BadIndices(f"{self.family} generators need even size")
        return _rebuilt(self.ring, new_size, self.family, tuple(
            _gen(g.family, g.i + offset, g.j + offset, g.ring, g.z, new_size)
            for g in self.gens))

    def __repr__(self):
        return f"[{', '.join(repr(g) for g in self.gens)}]"

    def to_json(self) -> dict:
        return {"family": self.family, "size": self.size,
                "ring": self.ring.to_json(),
                "gens": [g.to_json() for g in self.gens]}

    @staticmethod
    def from_json(obj: dict) -> "GenWord":
        from .rings import _json_int, ring_from_json
        ring = ring_from_json(obj["ring"])
        size = _json_int(obj["size"])
        family = obj["family"]
        gens = tuple(Generator(family, _json_int(g["i"]), _json_int(g["j"]),
                               ring.value_from_json(g["param"]), size)
                     for g in obj["gens"])
        return GenWord(ring, size, family, gens)


_set = object.__setattr__


def _rebuilt(ring: Ring, size: int, family: str, gens: tuple) -> GenWord:
    """A word of generators of ``ring``, ``size`` and ``family`` that passed
    their checks (or were built by ``_gen``), none with a zero parameter:
    only the word limit is checked, with ``GenWord``'s message at the same
    length."""
    _check_length(len(gens))
    w = object.__new__(GenWord)
    _set(w, "ring", ring)
    _set(w, "size", size)
    _set(w, "family", family)
    _set(w, "gens", gens)
    return w


def empty_word(ring: Ring, size: int, family: str) -> GenWord:
    return GenWord(ring, size, family, ())


def word_from_pairs(ring: Ring, size: int, family: str, triples) -> GenWord:
    """Build a word from (i, j, param) triples."""
    gens = tuple(Generator(family, i, j, ring.coerce(p), size)
                 for i, j, p in triples)
    return GenWord(ring, size, family, gens)


# ---------------------------------------------------------------------------
# fast application (sparse column/row operations, by ``Ring.act``)

def apply_word_right(m: Mat, w: GenWord) -> Mat:
    """m @ eval(w) via column operations, O(len(w) * rows)."""
    if m.cols != w.size:
        raise DescriptorMismatch("word size does not match matrix columns")
    if m.ring != w.ring:
        raise DescriptorMismatch("word ring does not match matrix ring")
    return Mat._box(m.ring, m.ring.act(m._payloads(), w.gens))


def _transpose_gens(gens) -> tuple:
    """Generators whose product is the transpose of the product of
    ``gens``: each generator (i, j, z) transposes to (j, i, z), in reverse
    order."""
    return tuple(_gen(g.family, g.j, g.i, g.ring, g.z, g.size)
                 for g in reversed(gens))


def apply_word_left(w: GenWord, m: Mat) -> Mat:
    """eval(w) @ m = (m^t @ eval(w)^t)^t via column operations on m^t."""
    if m.rows != w.size:
        raise DescriptorMismatch("word size does not match matrix rows")
    if m.ring != w.ring:
        raise DescriptorMismatch("word ring does not match matrix ring")
    cols = m.ring.act([list(c) for c in zip(*m._grid)],
                      _transpose_gens(w.gens))
    return Mat._box(m.ring, zip(*cols))


def apply_word_to_row(row, w: GenWord):
    """Right action on a 1 x size row given as a list of ring values."""
    ring = w.ring
    if any(v.ring != ring for v in row):
        raise DescriptorMismatch("word ring does not match row ring")
    out = ring.act([[v.payload for v in row]], w.gens)[0]
    return [RingValue(ring, p) for p in out]


def eval_word(w: GenWord) -> Mat:
    return w.eval()


def invert_word(w: GenWord) -> GenWord:
    return w.invert()


def dilate(w: GenWord, b: RingValue) -> GenWord:
    return w.dilate(b)


def specialize(w: GenWord, t: RingValue) -> GenWord:
    return w.specialize(t)


# ---------------------------------------------------------------------------
# witnesses

@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "unverified"

    def to_json(self):
        return {"name": self.name, "status": self.status}


@dataclass(frozen=True)
class Witness:
    """A claimed identity with its verification report.

    Construction only succeeds when every boolean check passed; checks whose
    value is None are recorded as "unverified" (the claim is stated, not
    certified) and never silently treated as passing.
    """

    claim: str
    inputs: dict
    outputs: dict
    checks: tuple = ()
    mode: str = "word"

    @staticmethod
    def certify(claim: str, inputs: dict, outputs: dict, checks,
                mode: str = "word") -> "Witness":
        report = []
        for name, ok in checks:
            if ok is None:
                report.append(Check(name, "unverified"))
            elif ok:
                report.append(Check(name, "pass"))
            else:
                from .errors import WitnessCheckFailed
                raise WitnessCheckFailed(f"check failed: {name}", claim=claim)
        return Witness(claim, inputs, outputs, tuple(report), mode)

    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        def enc(v):
            if hasattr(v, "to_json"):
                return v.to_json()
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v
        return {"claim": self.claim, "mode": self.mode,
                "inputs": {k: enc(v) for k, v in sorted(self.inputs.items())},
                "outputs": {k: enc(v) for k, v in sorted(self.outputs.items())},
                "checks": [c.to_json() for c in self.checks]}
