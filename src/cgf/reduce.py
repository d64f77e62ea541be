"""Local-ring reduction and completion: unimodular rows are carried to e_1
and right-invertible blocks are completed to elementary (symplectic,
orthogonal) matrices, returning the acting word in every case.

Every construction here repeats one step, carried out by one engine,
``_Reduction``, on rows of canonical payloads, which it updates in place
with the ring's own word kernel ``ring.act`` (inlined over Z/n); its
generators hold payloads, so values are boxed only in the errors it raises.
Its sweep carries row[lo:] to (1, 0, ..., 0) on the window of columns
lo+1..size, for every family: the lowest unit entry is pulled into slot 1,
through the pump slot (2 for lin and sp, 3 for orth, whose oe_21 is
excluded) when it sits before it; then a clearing pass zeroes the other
slots against that 1.  The paired families clear the partner slot last,
because the cross terms of their generators feed it: sp with a generator,
while for orth isotropy must already have cleared it (1/2 being a unit).
Its frame-pair loop sweeps the first row of each pair of an isotropic frame
and clears the second row with the same pass, pivoting on the pair's second
slot.

All pivots follow this one deterministic rule, so identical inputs yield
identical witnesses.

The engine's generators and words are construction-internal, so it builds
them with the trusted builders ``words._gen`` and ``words._rebuilt`` rather
than the public checks: every index comes from its own loops over the
window (distinct, in range, never a pair (i, pair(i)) for orth), ``emit``
skips zero parameters, and an orthogonal reduction only runs on an
``IsotropicFrame`` or an O-member, which have 1/2.  The word limit is still
checked, with its message.

A completion is found once per matrix and family: the word is kept in the
input matrix's memo (``Mat._kept``) and returned by a later call on the
same object, after that call's own guards and with the word limit checked
again, so a lowered ``CGF_WORD_LIMIT`` raises as a fresh call would.
"""

from __future__ import annotations

import warnings

from .errors import (FormViolation, NoUnitEntry, NotLocal, NotRightInvertible,
                     ShapeMismatch, SizeBound)
from .matrices import IsotropicFrame, Mat, membership
from .rings import Ring, RingValue
from .words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator, GenWord,
                    _check_length, _gen, _rebuilt)


def _require_local(ring: Ring, what: str):
    if not ring.is_local:
        raise NotLocal(f"{what} needs a local ring, got {ring}")


class _Reduction:
    """The rows of a matrix as canonical payloads, reduced in place by the
    generators of one family; ``acc`` lists them in the order applied."""

    def __init__(self, mat: Mat, family: str):
        self.ring, self.size, self.family = mat.ring, mat.cols, family
        self.rows = mat._payloads()
        self.acc: list[Generator] = []
        self.zero = self.ring.zero().payload
        self.one = self.ring.one().payload

    def box(self, payload) -> RingValue:
        return RingValue(self.ring, payload)

    def word(self) -> GenWord:
        return _rebuilt(self.ring, self.size, self.family, tuple(self.acc))

    def emit(self, i: int, j: int, z):
        """Record the generator (i, j, z) and apply it; z = 0 is skipped."""
        if z != self.zero:
            g = _gen(self.family, i, j, self.ring, z, self.size)
            self.acc.append(g)
            self.ring.act(self.rows, (g,))

    def _set_one(self, lo: int, src: int, dst: int):
        """Window slot dst of row lo becomes 1: add to it a multiple of the
        unit in slot src (slots are 1-based)."""
        ring, row = self.ring, self.rows[lo]
        z = ring.mul(ring.inverse_payload(row[lo + src - 1]),
                     ring.sub(self.one, row[lo + dst - 1]))
        self.emit(lo + src, lo + dst, z)

    def sweep(self, lo: int):
        """Carry rows[lo][lo:] to (1, 0, ..., 0)."""
        ring, row, width = self.ring, self.rows[lo], self.size - lo
        if row[lo] != self.one:
            k = next((t for t in range(1, width + 1)
                      if ring.is_unit_payload(row[lo + t - 1])), None)
            if k is None:
                raise NoUnitEntry("row has no unit entry over the local ring")
            pump = 3 if self.family == FAMILY_ORTH else 2
            if k < pump:
                if self.family == FAMILY_ORTH and width < 4:
                    raise SizeBound(
                        "orthogonal pivot transport needs width >= 4")
                self._set_one(lo, k, pump)
                k = pump
            self._set_one(lo, k, 1)
        if self.clear(lo, 1) is not None:
            raise FormViolation(
                "partner entry did not vanish; the row is not isotropic")

    def clear(self, lo: int, pivot: int):
        """Zero row lo + pivot - 1 on the window from column lo+1 against
        the 1 in its window slot ``pivot`` (1 or 2).  Returns the partner
        entry an orthogonal row still has, or None."""
        row, width = self.rows[lo + pivot - 1], self.size - lo
        if self.family == FAMILY_LIN:
            slots = range(2, width + 1)
        else:
            slots = [*range(3, width + 1), 3 - pivot]
        for j in slots:
            z = row[lo + j - 1]
            if z != self.zero:
                if self.family == FAMILY_ORTH and j == 3 - pivot:
                    return z
                self.emit(lo + pivot, lo + j, self.ring.neg(z))
        return None

    def pairs(self, n_pairs: int):
        """Carry the first n_pairs row pairs of a frame to standard rows."""
        for k in range(n_pairs):
            lo = 2 * k
            if any(x != self.zero for x in self.rows[lo][:lo]):
                raise FormViolation(
                    "form identity failed to clear the leading columns")
            try:
                self.sweep(lo)
            except NoUnitEntry as e:
                if self.family != FAMILY_SP:
                    raise
                raise NoUnitEntry(str(e), pair=k) from e
            partner = self.rows[lo + 1][lo + 1]
            if partner != self.one:
                raise FormViolation(
                    "the form did not force a unit partner entry",
                    got=self.box(partner))
            z = self.clear(lo, 2)
            if z is not None:
                raise FormViolation("isotropy failed to clear the partner row",
                                    got=self.box(z))


# ---------------------------------------------------------------------------
# rows

def _reduce_row(v: Mat, family: str) -> GenWord:
    """Both row reductions: a single row of a length the family takes, over
    a local ring, carried to e_1 by one sweep."""
    lin = family == FAMILY_LIN
    if v.rows != 1:
        raise ShapeMismatch("expected a single row")
    if v.cols < 2 or (not lin and v.cols % 2):
        raise SizeBound("row reduction needs length >= 2" if lin
                        else "symplectic rows have even length >= 2")
    _require_local(v.ring, ("linear" if lin else "symplectic")
                   + " row reduction")
    red = _Reduction(v, family)
    red.sweep(0)
    return red.word()


def reduce_row_linear(v: Mat) -> GenWord:
    """A word w with v . eval(w) = e_1 over a local ring; length <= 2m."""
    return _reduce_row(v, FAMILY_LIN)


def reduce_row_symplectic(v: Mat) -> GenWord:
    """A word w in se-generators with v . eval(w) = e_1 over a local ring."""
    return _reduce_row(v, FAMILY_SP)


# ---------------------------------------------------------------------------
# completions

def _kept_completion(mat: Mat, family: str, complete, *args) -> GenWord:
    """The completion word of ``mat`` in ``family``: ``complete(*args)`` on
    the first call, kept on the matrix.  Every call measures the word
    against the word limit, the one check a fresh call could answer
    differently."""
    word = mat._kept(("complete", family), complete, *args)
    _check_length(len(word))
    return word


def complete_um_linear(v: Mat) -> GenWord:
    """A word W with eval(W) elementary and first n rows equal to V.

    Row i is reduced inside columns i..m (the trailing block of a
    right-invertible matrix with standard leading rows is itself
    right-invertible), then its leading entries are cleared against the
    fresh pivot.
    """
    _require_local(v.ring, "linear completion")
    if v.cols < 2:
        raise SizeBound("completion needs m >= 2")
    if v.rows > v.cols:
        raise NotRightInvertible("more rows than columns")
    return _kept_completion(v, FAMILY_LIN, _complete_linear, v)


def _complete_linear(v: Mat) -> GenWord:
    ring, n, m = v.ring, v.rows, v.cols
    red = _Reduction(v, FAMILY_LIN)
    work, one, zero = red.rows, red.one, red.zero
    for i in range(n):
        if m - i == 1:
            if work[i][i] != one:
                raise NotRightInvertible(
                    "square blocks complete only with determinant 1",
                    pivot=red.box(work[i][i]))
        else:
            try:
                red.sweep(i)
            except NoUnitEntry as e:
                raise NotRightInvertible(str(e)) from e
        for t in range(i):
            red.emit(i + 1, t + 1, ring.neg(work[i][t]))
        if work[i][i] != one or any(work[i][j] != zero
                                    for j in range(m) if j != i):
            raise NotRightInvertible("row failed to reduce to a standard row")
    word = red.word().invert()
    got = word.eval()
    if got._grid[:n] != v._grid:
        raise FormViolation("internal: completion lost the input rows")
    return word


def _complete_frame(frame: IsotropicFrame, family: str, group: str,
                    name: str) -> GenWord:
    """The tail both frame completions share, kept on the frame's matrix
    (``_kept_completion``): the frame's pairs reduced, the word inverted
    and evaluated, its leading rows compared with the frame, then its
    matrix checked in ``group``.  A square frame is that matrix, so it
    keeps the group's answer too."""
    return _kept_completion(frame.mat, family, _complete_pairs, frame,
                            family, group, name)


def _complete_pairs(frame: IsotropicFrame, family: str, group: str,
                    name: str) -> GenWord:
    mat = frame.mat
    red = _Reduction(mat, family)
    red.pairs(frame.n_pairs)
    word = red.word().invert()
    got = word.eval()
    if got._grid[:mat.rows] != mat._grid:
        raise FormViolation("internal: completion lost the frame rows")
    if not membership(got, group):
        raise FormViolation(f"internal: completion left the {name} group")
    if mat.rows == mat.cols:
        mat._keep(group, True)
    return word


def complete_sp(frame: IsotropicFrame) -> GenWord:
    """Complete a 2n x 2m symplectic frame to an elementary symplectic
    matrix: reduce each pair's first row to a standard row, observe the
    form forcing the partner's unit, clear, and recurse on the trailing
    block (which the form forces to start with two zero columns)."""
    if frame.kind != "sp":
        raise FormViolation("expected a symplectic frame")
    _require_local(frame.mat.ring, "symplectic completion")
    return _complete_frame(frame, FAMILY_SP, "Sp", "symplectic")


def complete_orth(frame: IsotropicFrame, permissive: bool = False) -> GenWord:
    """Complete a 2n x 2m orthogonal frame (1/2 a unit, m >= n+2) to an
    elementary orthogonal matrix.

    The stated bound is enforced even though the pivoting only needs each
    window to keep two pairs; ``permissive`` attempts inputs outside the
    bound and lets failures surface instead of asserting success.
    """
    if frame.kind != "orth":
        raise FormViolation("expected an orthogonal frame")
    _require_local(frame.mat.ring, "orthogonal completion")
    n, m = frame.n_pairs, frame.m_pairs
    if not permissive and m < n + 2:
        raise SizeBound(f"orthogonal completion requires m >= n + 2, "
                        f"got n={n}, m={m}")
    if n == 1 and m == 3:
        warnings.warn("orthogonal completion at the boundary size "
                      "(n=1, m=3); the inductive argument above uses m > 3",
                      stacklevel=2)
    return _complete_frame(frame, FAMILY_ORTH, "O", "orthogonal")
