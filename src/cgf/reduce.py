"""Local-ring reduction and completion: unimodular rows are carried to e_1
and right-invertible blocks are completed to elementary (symplectic,
orthogonal) matrices, returning the acting word in every case.

All pivots follow one deterministic rule: the lowest index whose entry is a
unit wins, and clearing passes sweep left to right (the paired families
clear the partner column last because the cross terms of their generators
feed it).  Identical inputs therefore yield identical witnesses.
"""

from __future__ import annotations

import warnings

from .errors import (FormViolation, NoUnitEntry, NotLocal, NotRightInvertible,
                     SizeBound)
from .matrices import IsotropicFrame, Mat, membership
from .rings import Ring, RingValue
from .words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator, GenWord,
                    _apply_gens)


def _require_local(ring: Ring, what: str):
    if not ring.is_local:
        raise NotLocal(f"{what} needs a local ring, got {ring}")


def _lowest_unit(row, start: int = 0):
    for idx in range(start, len(row)):
        if row[idx].is_unit():
            return idx
    return None


def _emit(rows, acc, g: Generator):
    """Record g and apply it to the working rows of ring values.  The rows
    are reboxed in place: the window engines hold aliases to them."""
    if g.param.is_zero():
        return
    acc.append(g)
    ring = g.param.ring
    payloads = _apply_gens(ring, [[v.payload for v in r] for r in rows], (g,))
    for r, new in zip(rows, payloads):
        r[:] = [RingValue(ring, p) for p in new]


# ---------------------------------------------------------------------------
# window engines (local 1-based indices; caller shifts into the ambient)

def _reduce_window_linear(rows, row_idx: int, lo: int, size: int, ring, acc):
    """Carry rows[row_idx][lo:] to (1, 0, ..., 0) with e_ij acting on
    columns lo+1..size (1-based); mutates rows, appends to acc."""
    one = ring.one()
    row = rows[row_idx]
    width = size - lo

    def gen(i, j, z):
        _emit(rows, acc, Generator(FAMILY_LIN, lo + i, lo + j, z, size))

    if row[lo] != one:
        k = _lowest_unit(row, lo)
        if k is None or k >= size:
            raise NoUnitEntry("row has no unit entry over the local ring")
        k -= lo
        if k == 0:
            if width < 2:
                raise NotRightInvertible(
                    "single-column block must already equal 1")
            # pump a 1 into the second slot, then pull it back
            gen(1, 2, row[lo].inverse() * (one - row[lo + 1]))
            k = 1
        gen(k + 1, 1, row[lo + k].inverse() * (one - row[lo]))
    for j in range(2, width + 1):
        if not row[lo + j - 1].is_zero():
            gen(1, j, -row[lo + j - 1])


def _reduce_window_symplectic(rows, row_idx: int, lo: int, size: int, ring, acc):
    """Same contract with se_ij generators; lo is even."""
    one = ring.one()
    row = rows[row_idx]
    width = size - lo

    def gen(i, j, z):
        _emit(rows, acc, Generator(FAMILY_SP, lo + i, lo + j, z, size))

    if row[lo] != one:
        k = _lowest_unit(row, lo)
        if k is None:
            raise NoUnitEntry("row has no unit entry over the local ring")
        k -= lo
        if k == 0:
            gen(1, 2, row[lo].inverse() * (one - row[lo + 1]))
            k = 1
        gen(k + 1, 1, row[lo + k].inverse() * (one - row[lo]))
    for j in range(3, width + 1):
        if not row[lo + j - 1].is_zero():
            gen(1, j, -row[lo + j - 1])
    if not row[lo + 1].is_zero():
        gen(1, 2, -row[lo + 1])


def _reduce_window_orthogonal(rows, row_idx: int, lo: int, size: int, ring, acc):
    """Carry an isotropic unimodular row to e_1 with oe_ij generators.

    Needs window width >= 4 to transport a pivot out of the first pair;
    the partner entry is annihilated by isotropy (1/2 being a unit), not
    by a generator.
    """
    one = ring.one()
    row = rows[row_idx]
    width = size - lo

    def gen(i, j, z):
        _emit(rows, acc, Generator(FAMILY_ORTH, lo + i, lo + j, z, size))

    if row[lo] != one:
        k = _lowest_unit(row, lo)
        if k is None:
            raise NoUnitEntry("row has no unit entry over the local ring")
        k -= lo
        if k <= 1:
            if width < 4:
                raise SizeBound("orthogonal pivot transport needs width >= 4")
            # move a unit to the third slot (outside the first pair)
            gen(k + 1, 3, row[lo + k].inverse() * (one - row[lo + 2]))
            k = 2
        gen(k + 1, 1, row[lo + k].inverse() * (one - row[lo]))
    for j in range(3, width + 1):
        if not row[lo + j - 1].is_zero():
            gen(1, j, -row[lo + j - 1])
    if not row[lo + 1].is_zero():
        raise FormViolation(
            "partner entry did not vanish; the row is not isotropic")


# ---------------------------------------------------------------------------
# rows

def reduce_row_linear(v: Mat) -> GenWord:
    """A word w with v . eval(w) = e_1 over a local ring; length <= 2m."""
    if v.rows != 1:
        raise NotRightInvertible("expected a single row")
    if v.cols < 2:
        raise SizeBound("row reduction needs length >= 2")
    _require_local(v.ring, "linear row reduction")
    rows = [list(v.entries[0])]
    acc: list[Generator] = []
    _reduce_window_linear(rows, 0, 0, v.cols, v.ring, acc)
    word = GenWord(v.ring, v.cols, FAMILY_LIN, tuple(acc))
    return word


def reduce_row_symplectic(v: Mat) -> GenWord:
    """A word w in se-generators with v . eval(w) = e_1 over a local ring."""
    if v.rows != 1:
        raise NoUnitEntry("expected a single row")
    if v.cols < 2 or v.cols % 2:
        raise SizeBound("symplectic rows have even length >= 2")
    _require_local(v.ring, "symplectic row reduction")
    rows = [list(v.entries[0])]
    acc: list[Generator] = []
    _reduce_window_symplectic(rows, 0, 0, v.cols, v.ring, acc)
    return GenWord(v.ring, v.cols, FAMILY_SP, tuple(acc))


# ---------------------------------------------------------------------------
# completions

def complete_um_linear(v: Mat) -> GenWord:
    """A word W with eval(W) elementary and first n rows equal to V.

    Row i is reduced inside columns i..m (the trailing block of a
    right-invertible matrix with standard leading rows is itself
    right-invertible), then its leading entries are cleared against the
    fresh pivot.
    """
    ring = v.ring
    _require_local(ring, "linear completion")
    n, m = v.rows, v.cols
    if m < 2:
        raise SizeBound("completion needs m >= 2")
    if n > m:
        raise NotRightInvertible("more rows than columns")
    work = [list(row) for row in v.entries]
    acc: list[Generator] = []
    one = ring.one()
    for i in range(n):
        if m - i == 1:
            if work[i][i] != one:
                raise NotRightInvertible(
                    "square blocks complete only with determinant 1",
                    pivot=work[i][i])
        else:
            try:
                _reduce_window_linear(work, i, i, m, ring, acc)
            except NoUnitEntry as e:
                raise NotRightInvertible(str(e)) from e
        for t in range(i):
            c = work[i][t]
            if not c.is_zero():
                _emit(work, acc, Generator(FAMILY_LIN, i + 1, t + 1, -c, m))
        if work[i][i] != one or any(not work[i][j].is_zero()
                                    for j in range(m) if j != i):
            raise NotRightInvertible("row failed to reduce to a standard row")
    word = GenWord(ring, m, FAMILY_LIN, tuple(acc)).invert()
    got = word.eval()
    if Mat(ring, got.entries[:n]) != v:
        raise FormViolation("internal: completion lost the input rows")
    return word


def complete_sp(frame: IsotropicFrame) -> GenWord:
    """Complete a 2n x 2m symplectic frame to an elementary symplectic
    matrix: reduce each pair's first row to a standard row, observe the
    form forcing the partner's unit, clear, and recurse on the trailing
    block (which the form forces to start with two zero columns)."""
    if frame.kind != "sp":
        raise FormViolation("expected a symplectic frame")
    V = frame.mat
    ring = V.ring
    _require_local(ring, "symplectic completion")
    n, m = frame.n_pairs, frame.m_pairs
    work = [list(row) for row in V.entries]
    acc: list[Generator] = []
    one = ring.one()
    size = 2 * m
    for k in range(n):
        r = 2 * k
        if any(not work[r][t].is_zero() for t in range(2 * k)):
            raise FormViolation(
                "form identity failed to clear the leading columns")
        try:
            _reduce_window_symplectic(work, r, 2 * k, size, ring, acc)
        except NoUnitEntry as e:
            raise NoUnitEntry(str(e), pair=k) from e
        b = work[r + 1]
        if b[2 * k + 1] != one:
            raise FormViolation("the form did not force a unit partner entry",
                                got=b[2 * k + 1])
        for j in range(2 * k + 3, size + 1):
            if not b[j - 1].is_zero():
                _emit(work, acc,
                      Generator(FAMILY_SP, 2 * k + 2, j, -b[j - 1], size))
        if not b[2 * k].is_zero():
            _emit(work, acc,
                  Generator(FAMILY_SP, 2 * k + 2, 2 * k + 1, -b[2 * k], size))
    word = GenWord(ring, size, FAMILY_SP, tuple(acc)).invert()
    got = word.eval()
    if Mat(ring, got.entries[:2 * n]) != V:
        raise FormViolation("internal: completion lost the frame rows")
    if not membership(got, "Sp"):
        raise FormViolation("internal: completion left the symplectic group")
    return word


def _orth_frame_reduction(work, n_pairs: int, size: int, ring) -> list:
    """Standardize the first n_pairs row pairs of an orthogonal frame in
    place; returns the generator list.  Windows must keep width >= 4."""
    acc: list[Generator] = []
    one = ring.one()
    for k in range(n_pairs):
        r = 2 * k
        if any(not work[r][t].is_zero() for t in range(2 * k)):
            raise FormViolation(
                "form identity failed to clear the leading columns")
        _reduce_window_orthogonal(work, r, 2 * k, size, ring, acc)
        b = work[r + 1]
        if b[2 * k + 1] != one:
            raise FormViolation("the form did not force a unit partner entry",
                                got=b[2 * k + 1])
        for j in range(2 * k + 3, size + 1):
            if not b[j - 1].is_zero():
                _emit(work, acc,
                      Generator(FAMILY_ORTH, 2 * k + 2, j, -b[j - 1], size))
        if not b[2 * k].is_zero():
            raise FormViolation(
                "isotropy failed to clear the partner row", got=b[2 * k])
    return acc


def complete_orth(frame: IsotropicFrame, permissive: bool = False) -> GenWord:
    """Complete a 2n x 2m orthogonal frame (1/2 a unit, m >= n+2) to an
    elementary orthogonal matrix.

    The stated bound is enforced even though the pivoting only needs each
    window to keep two pairs; ``permissive`` attempts inputs outside the
    bound and lets failures surface instead of asserting success.
    """
    if frame.kind != "orth":
        raise FormViolation("expected an orthogonal frame")
    V = frame.mat
    ring = V.ring
    _require_local(ring, "orthogonal completion")
    n, m = frame.n_pairs, frame.m_pairs
    if not permissive and m < n + 2:
        raise SizeBound(f"orthogonal completion requires m >= n + 2, "
                        f"got n={n}, m={m}")
    if n == 1 and m == 3:
        warnings.warn("orthogonal completion at the boundary size "
                      "(n=1, m=3); the inductive argument above uses m > 3",
                      stacklevel=2)
    work = [list(row) for row in V.entries]
    acc = _orth_frame_reduction(work, n, 2 * m, ring)
    word = GenWord(ring, 2 * m, FAMILY_ORTH, tuple(acc)).invert()
    got = word.eval()
    if Mat(ring, got.entries[:2 * n]) != V:
        raise FormViolation("internal: completion lost the frame rows")
    if not membership(got, "O"):
        raise FormViolation("internal: completion left the orthogonal group")
    return word
