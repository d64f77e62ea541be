"""Explicit elementary factorizations.

The linear Whitehead word is assembled from the block identity

    d ⊥ d^{-1} = [[I,d],[0,I]] [[I,0],[-d^{-1},I]] [[I,d],[0,I]] [[0,-I],[I,0]]

with [[0,-I],[I,0]] = [[I,-I],[0,I]] [[I,0],[I,I]] [[I,-I],[0,I]]; each block
factor splits into commuting e_ij generators.  The symplectic counterpart is
produced by full row-column reduction of d ⊥ d^{-1} over a local ring, which
covers every use made of it here.  All factorizations in this module that
consume column reductions require a local base ring; their statements hold
more generally, and the finite-ring oracle is the certification boundary.

Every construction reads payload rows (``Mat._grid``), acts on them with
the ring's word kernel ``ring.act`` (inlined over Z/n) or
``apply_word_right``, and builds its words with the trusted
``_gen``/``_rebuilt``.  Ring values are boxed only for the errors
and for the ring-level solvers the quotient lift hands its entries to.
"""

from __future__ import annotations

from .errors import (BadPerp, IdealNotComaximal, NoUnitEntry, NotInvertible,
                     NotPerpendicular, NotRightInvertible, NotSymplectic,
                     SizeBound, UnsupportedQuotient, FormViolation)
from .matrices import (DET_SIZE_CAP, IsotropicFrame, Mat, RightInverseCert,
                       _form_inverse, membership, right_inverse)
from .reduce import _require_local, complete_sp, reduce_row_linear
from .rings import (QuotientRing, RingValue, ideal_combination,
                    unit_ideal_witness)
from .words import (FAMILY_LIN, GenWord, _check_length, _gen, _rebuilt,
                    _transpose_gens, apply_word_right, empty_word)


def _block_gens(m: Mat, row0: int, col0: int, size: int):
    """The block m at rows row0+1.. and columns col0+1.. of I_size, for a
    block off the diagonal, as commuting e_(row0+i, col0+j)(m_ij),
    row-major, their parameters the entries' payloads; zero entries are
    skipped.  Off the diagonal the indices differ and lie in 1..size, so the
    generators are built by the trusted ``_gen``."""
    ring = m.ring
    zero = ring.zero().payload
    for i, row in enumerate(m._grid, row0 + 1):
        for j, p in enumerate(row, col0 + 1):
            if p != zero:
                yield _gen(FAMILY_LIN, i, j, ring, p, size)


def whitehead_linear(d: Mat) -> GenWord:
    """A word of size 2n evaluating to d ⊥ d^{-1}, over any ring."""
    if d.rows != d.cols:
        raise NotInvertible("expected a square matrix")
    try:
        dinv = d.inverse()
    except NotInvertible as e:
        raise NotInvertible("matrix determinant is not a unit",
                            det=e.context["det"]) from None
    ring = d.ring
    n = d.rows
    size = 2 * n
    ident = Mat.identity(ring, n)
    gens = []
    for block, row0, col0 in ((d, 0, n), (-dinv, n, 0), (d, 0, n),
                              (-ident, 0, n), (ident, n, 0), (-ident, 0, n)):
        gens += _block_gens(block, row0, col0, size)
    word = _rebuilt(ring, size, FAMILY_LIN, tuple(gens))
    if word.eval() != d.block_perp(dinv):
        raise FormViolation("internal: Whitehead word mismatch")
    return word


def sp_inverse(d: Mat) -> Mat:
    """d^{-1} for symplectic d via the form: d^{-1} = psi^{-1} d^t psi."""
    return _form_inverse(d, "sp")


def whitehead_symplectic(d: Mat) -> GenWord:
    """A word of size 4n in se-generators evaluating to d ⊥ d^{-1}.

    Realized by full symplectic row-column reduction of d ⊥ d^{-1} over a
    local ring: on a square frame the completion's own check that its word
    reproduces the frame rows covers the whole matrix."""
    if d.rows != d.cols or d.rows % 2:
        raise NotSymplectic("expected an even square matrix")
    if not membership(d, "Sp"):
        raise NotSymplectic("matrix does not preserve the alternating form")
    _require_local(d.ring, "the symplectic Whitehead factorization")
    return complete_sp(IsotropicFrame(d.block_perp(sp_inverse(d)), "sp"))


# ---------------------------------------------------------------------------
# transvections and row equivalences

def transvection_factor(c: Mat, r: Mat) -> GenWord:
    """A word evaluating to I + c·r for a unimodular column c with r·c = 0."""
    if c.cols != 1 or r.rows != 1 or c.rows != r.cols:
        raise NotPerpendicular("expected an m x 1 column and a 1 x m row")
    m = c.rows
    if m < 3:
        raise SizeBound("transvection factorization needs m >= 3")
    ring = c.ring
    _require_local(ring, "transvection factorization")
    zero = ring.zero().payload
    rc = (r @ c)._grid[0][0]
    if rc != zero:
        raise NotPerpendicular("r . c must vanish", got=RingValue(ring, rc))
    if all(p == zero for p in r._grid[0]):
        return empty_word(ring, m, FAMILY_LIN)
    try:
        rho = reduce_row_linear(c.transpose())
    except NoUnitEntry:
        raise NotRightInvertible("column has no unit entry") from None
    # eval(gamma) @ c = e_1 for gamma with eval(gamma) = eval(rho)^t
    gamma = _rebuilt(ring, m, FAMILY_LIN, _transpose_gens(rho.gens))
    back = gamma.invert()
    r_prime = ring.act(r._payloads(), back.gens)[0]
    if r_prime[0] != zero:
        raise FormViolation("internal: transported row kept its first entry")
    middle = tuple(_gen(FAMILY_LIN, 1, j + 1, ring, r_prime[j], m)
                   for j in range(1, m) if r_prime[j] != zero)
    word = back + _rebuilt(ring, m, FAMILY_LIN, middle) + gamma
    expected = Mat.identity(ring, m) + (c @ r)
    if word.eval() != expected:
        raise FormViolation("internal: transvection word mismatch")
    if m <= DET_SIZE_CAP and expected.det() != ring.one():
        raise FormViolation("internal: transvection determinant is not 1")
    return word


def common_perp(v1: Mat, v2: Mat, w: Mat) -> GenWord:
    """A word carrying v1 to v2 when <v1, w> = <v2, w> = 1."""
    if not (v1.rows == v2.rows == w.rows == 1) or \
            not (v1.cols == v2.cols == w.cols):
        raise BadPerp("expected three rows of equal length")
    if v1.cols < 3:
        raise SizeBound("common perpendicular needs length >= 3")
    ring = v1.ring
    one = ring.one().payload
    for v in (v1, v2):
        ip = (v @ w.transpose())._grid[0][0]
        if ip != one:
            raise BadPerp("inner product with the witness row is not 1",
                          got=RingValue(ring, ip))
    word = transvection_factor(w.transpose(), v2 - v1)
    if apply_word_right(v1, word) != v2:
        raise FormViolation("internal: common-perpendicular word mismatch")
    return word


def two_row_equiv(a: Mat, cert: RightInverseCert) -> GenWord:
    """A word carrying the first row of a right-invertible 2 x n matrix to
    its second row, via the column-sum witness of the right inverse."""
    if a.rows != 2:
        raise NotRightInvertible("expected a 2 x n matrix")
    if a.cols < 3:
        raise SizeBound("two-row equivalence needs n >= 3")
    if cert.alpha != a:
        raise NotRightInvertible("certificate does not certify this matrix")
    ring = a.ring
    w = Mat._box(ring, [[ring.add(r[0], r[1]) for r in cert.beta._grid]])
    return common_perp(a.submatrix(0, 1, 0, a.cols),
                       a.submatrix(1, 2, 0, a.cols), w)


# ---------------------------------------------------------------------------
# the quotient-lift equivalence

def _row_equiv_local(v1: Mat, v2: Mat) -> GenWord:
    """v1 -> v2 for unimodular rows over a local ring via e_1 transitivity."""
    w1 = reduce_row_linear(v1)
    w2 = reduce_row_linear(v2)
    return w1 + w2.invert()


def roitman(x: Mat, k: int, y: Mat) -> GenWord:
    """A word of shape I_k ⊥ e carrying (x_0..x_n) to (x_0..x_{k-1}, y_k..y_n).

    Requires the ideal generated by x_0..x_{k-1} and the 2x2 minors of the
    stacked tail rows to be the unit ideal; the equivalence is produced in
    the quotient by (x_0..x_{k-1}), lifted, and the residual ideal terms are
    cleared exactly against the leading entries.
    """
    if x.rows != 1 or y.rows != 1:
        raise NotRightInvertible("expected row vectors")
    n = x.cols - 1
    if not (0 <= k <= n - 1):
        raise SizeBound(f"need 0 <= k <= n-1, got k={k}, n={n}")
    if y.cols != n - k + 1:
        raise SizeBound("tail replacement has the wrong length")
    ring = x.ring
    _require_local(ring, "the quotient-lift equivalence")
    xe = list(x.entries[0])
    ye = list(y.entries[0])
    leading = xe[:k]
    tail = xe[k:]
    minors = []
    width = n - k + 1
    for i in range(width):
        for j in range(i + 1, width):
            minors.append(tail[i] * ye[j] - tail[j] * ye[i])
    if unit_ideal_witness(ring, leading + minors) is None:
        raise IdealNotComaximal(
            "leading entries plus tail minors do not generate the unit ideal")
    rbar = QuotientRing(ring, leading)
    tail_bar = [rbar.project(v) for v in tail]
    y_bar = [rbar.project(v) for v in ye]
    if width >= 3:
        alpha_bar = Mat(rbar, [tail_bar, y_bar])
        eps_bar = two_row_equiv(alpha_bar, right_inverse(alpha_bar))
    else:
        eps_bar = _row_equiv_local(Mat(rbar, [tail_bar]), Mat(rbar, [y_bar]))
    # lift parameters back along canonical representatives
    word = _rebuilt(ring, width, FAMILY_LIN, tuple(
        _gen(FAMILY_LIN, g.i, g.j, ring, ring.canon(g.z), width)
        for g in eps_bar))
    if k:
        word = word.shift(k, n + 1)
    zero = ring.zero().payload
    target = x._grid[0][:k] + y._grid[0]
    current = ring.act(x._payloads(), word.gens)
    # clear the residual ideal terms position by position
    extra = []
    for p in range(k, n + 1):
        a = ring.sub(current[0][p], target[p])
        if a == zero:
            continue
        coeffs = ideal_combination(ring, leading, RingValue(ring, a))
        if coeffs is None:
            raise UnsupportedQuotient(
                "cannot express the residual term inside the leading ideal")
        for j, q in enumerate(coeffs):
            if q.is_zero():
                continue
            # each step is checked as a one-generator word, which keeps the
            # message "word length 1 exceeds limit 0" at a word limit of 0
            _check_length(1)
            g = _gen(FAMILY_LIN, j + 1, p + 1, ring, ring.neg(q.payload),
                     n + 1)
            extra.append(g)
            ring.act(current, (g,))
    word = word + _rebuilt(ring, n + 1, FAMILY_LIN, tuple(extra))
    if apply_word_right(x, word)._grid != (target,):
        raise FormViolation("internal: quotient-lift word mismatch")
    return word
