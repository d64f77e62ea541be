"""Dense exact matrices, the standard alternating/symmetric forms, and
group-membership predicates.

Everything is immutable.  A matrix keeps rows of canonical payloads and
computes on them; ring values are boxed only at the API edge, once per
matrix, when a caller reads ``entries`` or an entry.

The entries of a product, and the upper triangle that the form checks
read, come from ``ring.products``, the product loop that each ring owns.
Over Z/n (prime fields and integer quotients included) it is one inlined
loop that sums each entry's exact integer products and reduces mod n once.
Every other ring runs ``Ring``'s loop, one ``ring.dot(acc, xs, ys)`` per
entry: over Z that is one exact sum of products, over R[T] with base Z or
Z/n it sums the coefficient products the same way and reduces each
coefficient once, before the trim; elsewhere it adds one product at a
time.  Each step of the determinant and
of the adjugate is one ``ring.dot``.  ``Mat.identity`` and ``is_identity``
read the identity rows that the ring caches (``Ring.identity_rows``).

Determinants come from one algorithm for every ring of the tower:
Berkowitz's division-free characteristic polynomial (S. J. Berkowitz, "On
computing the determinant in small parallel time using a small number of
processors", Inf. Proc. Letters 18, 1984), O(n^4) ring operations up to the
size cap.  An inverse, up to the same cap, is the right inverse's column
reduction, O(n^3), wherever ``right_inverse`` solves: over a commutative
ring a square right inverse is the two-sided one, and the reduction finds
no unit pivot exactly when the determinant is not a unit, which is then
taken for the error.  Every other ring (R[T], Z[1/s], non-local polynomial
quotients) takes the adjugate from Cayley-Hamilton, scaled by the inverse
of a unit determinant.

No product by the forms psi_n and phi_n is ever formed: one kernel,
``_form``, applies either form as a signed swap of paired rows, for every
use of the forms in the library.  Membership in Sp and O and the isotropic
frame check read only the upper triangle of their product (``_gram_is_form``).

``right_inverse`` and ``Mat.inverse`` share two paths, chosen in one place
(``_solve_right_inverse``).  A local ring (every field included) keeps unit
pivots (``_right_inverse_local``): there a row is unimodular exactly when it
has a unit entry, and the two-row factorizations read their witnesses off
that beta.  Z, Z/n and their quotients, the rings with an
``integer_modulus``, use extended-gcd column operations
(``_right_inverse_integral``).

A matrix is immutable, so each fact derived from it is decided at most
once per object and kept in its one memo slot, ``_known``: the
characteristic polynomial, the inverse, each answer ``membership`` gives,
each kind of isotropic frame it has passed as, and the completion word
that ``reduce`` finds for each family.  The memo is keyed on the
object, never on its value: an equal matrix built again derives each fact
again.  ==, hash, repr and to_json ignore it, and a derivation that raises
keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from types import MappingProxyType

from .errors import (HalfNotInvertible, NotInvertible, NotRightInvertible,
                     ShapeMismatch, SizeLimit, UnsupportedRing, FormViolation)
from .rings import Ring, RingValue, _xgcd, has_half

DET_SIZE_CAP = 12

_NOTHING_KNOWN = MappingProxyType({})  # ``_known`` before the first fact


class Mat:
    """An exact rows x cols matrix over one ring of the tower, kept as rows
    of canonical payloads (``_grid``).  ``Mat(ring, entries)`` coerces each
    entry once; ``entries`` boxes them on the first read and keeps them,
    and ``_known`` keeps every fact derived from them (``_kept``)."""

    __slots__ = ("ring", "rows", "cols", "_grid", "_entries", "_known")

    def __init__(self, ring: Ring, entries):
        grid = tuple(tuple(ring.coerce(e).payload for e in row)
                     for row in entries)
        if grid and grid[0] and any(len(r) != len(grid[0]) for r in grid):
            raise ShapeMismatch("ragged rows")
        self._fill(ring, grid)

    def _fill(self, ring: Ring, grid: tuple) -> "Mat":
        if not grid or not grid[0]:
            raise ShapeMismatch("matrices must be non-empty")
        put = object.__setattr__
        put(self, "ring", ring)
        put(self, "rows", len(grid))
        put(self, "cols", len(grid[0]))
        put(self, "_grid", grid)
        put(self, "_entries", None)
        put(self, "_known", _NOTHING_KNOWN)
        return self

    def _kept(self, key, derive, *args):
        """The fact ``key`` about this matrix: ``derive(*args)`` on the
        first call, kept in ``_known`` and returned by every later call.  A
        derivation that raises keeps nothing."""
        known = self._known
        if key in known:
            return known[key]
        return self._keep(key, derive(*args))

    def _keep(self, key, value):
        """Keep ``value`` as the fact ``key`` about this matrix; returns
        it.  ``_known`` is read again here, since a derivation may have
        kept another fact meanwhile."""
        known = self._known
        if known is _NOTHING_KNOWN:
            object.__setattr__(self, "_known", {key: value})
        else:
            known[key] = value
        return value

    @staticmethod
    def _box(ring: Ring, rows) -> "Mat":
        """A matrix from rows of canonical payloads of ``ring``, taken as
        they are."""
        return object.__new__(Mat)._fill(ring, tuple(map(tuple, rows)))

    def _payloads(self) -> list:
        """The entries as fresh rows of canonical payloads."""
        return [list(row) for row in self._grid]

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def identity(ring: Ring, n: int) -> "Mat":
        return object.__new__(Mat)._fill(ring, ring.identity_rows(n))

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Mat":
        return Mat._box(ring, ((ring.zero().payload,) * cols,) * rows)

    # -- basics --------------------------------------------------------------
    @property
    def entries(self) -> tuple:
        """The rows of ring values, boxed on the first read and kept."""
        boxed = self._entries
        if boxed is None:
            ring = self.ring
            boxed = tuple(tuple(RingValue(ring, p) for p in row)
                          for row in self._grid)
            object.__setattr__(self, "_entries", boxed)
        return boxed

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return other is self or (isinstance(other, Mat)
                                 and other.ring == self.ring
                                 and other._grid == self._grid)

    def __hash__(self):
        return hash((self.ring.key(), self._grid))

    def __repr__(self):
        render = self.ring.render
        body = "; ".join(" ".join(map(render, row)) for row in self._grid)
        return f"Mat({self.ring}, [{body}])"

    def _require_same_ring(self, other: "Mat"):
        if self.ring != other.ring:
            raise ShapeMismatch("matrices over different rings")

    def _entrywise(self, other: "Mat", op, what: str) -> "Mat":
        self._require_same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{what} shape mismatch")
        return Mat._box(self.ring, [map(op, r1, r2) for r1, r2
                                    in zip(self._grid, other._grid)])

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, self.ring.add, "addition")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, self.ring.sub, "subtraction")

    def __neg__(self) -> "Mat":
        return Mat._box(self.ring, [map(self.ring.neg, row)
                                    for row in self._grid])

    def __matmul__(self, other: "Mat") -> "Mat":
        self._require_same_ring(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ring = self.ring
        return Mat._box(ring, ring.products(self._grid,
                                            list(zip(*other._grid))))

    __mul__ = __matmul__

    def scale(self, c) -> "Mat":
        """c times the matrix, for a value of its ring or an int."""
        ring = self.ring
        c = (c * ring.one()).payload
        return Mat._box(ring, [[ring.mul(c, p) for p in row]
                               for row in self._grid])

    def transpose(self) -> "Mat":
        return Mat._box(self.ring, zip(*self._grid))

    def block_perp(self, other: "Mat") -> "Mat":
        """Place self then other on the diagonal (orthogonal sum)."""
        self._require_same_ring(other)
        zero = self.ring.zero().payload
        right, left = (zero,) * other.cols, (zero,) * self.cols
        return Mat._box(self.ring, [row + right for row in self._grid]
                        + [left + row for row in other._grid])

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        return Mat._box(self.ring, [row[c0:c1] for row in self._grid[r0:r1]])

    def is_identity(self) -> bool:
        return (self.rows == self.cols and
                self._grid == self.ring.identity_rows(self.rows))

    def map_ring(self, new_ring: Ring, fn=None) -> "Mat":
        """Entrywise retyping, e.g. lifting constants into R[T]; ``fn``
        (``new_ring.coerce`` by default) maps each ring value."""
        if fn is None and new_ring.kind == "poly" and new_ring.base == self.ring:
            lift = new_ring._trim
            return Mat._box(new_ring, [[lift([p]) for p in row]
                                       for row in self._grid])
        fn = fn or new_ring.coerce
        return Mat(new_ring, [[fn(e) for e in row] for row in self.entries])

    # -- determinant and inverse ---------------------------------------------
    def _require_det_size(self):
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        if self.rows > DET_SIZE_CAP:
            raise SizeLimit(f"determinant capped at size {DET_SIZE_CAP}")

    def _charpoly(self) -> tuple:
        """Payloads (1, c_1, ..., c_n) of the characteristic polynomial
        det(xI - A) = x^n + c_1 x^(n-1) + ... + c_n, computed once per
        matrix (a Mat is immutable), so det() and inverse() share it."""
        return self._kept("charpoly", self._berkowitz)

    def _berkowitz(self) -> tuple:
        """The characteristic polynomial's payloads (1, c_1, ..., c_n).

        Berkowitz: the polynomial of each leading (k+1) x (k+1) block is a
        Toeplitz matrix with first column [1, -a_kk, -R C, -R M C, ...,
        -R M^(k-1) C] times that of the leading k x k block M, where R and C
        are the new row and column.
        """
        self._require_det_size()
        n = self.rows
        ring = self.ring
        dot, zero = ring.dot, ring.zero().payload
        a = self._grid
        poly = [ring.one().payload]
        for k in range(n):
            cols = [[row[j] for row in a[:k]] for j in range(k + 1)]
            toeplitz = [ring.neg(a[k][k])]
            vec = a[k][:k]
            for j in range(k):
                toeplitz.append(ring.neg(dot(zero, vec, cols[k])))
                if j < k - 1:
                    vec = [dot(zero, vec, col) for col in cols[:k]]
            poly = poly[:1] + [
                dot(poly[i] if i <= k else zero, poly[i - 1::-1], toeplitz)
                for i in range(1, k + 2)]
        return tuple(poly)

    def det(self) -> RingValue:
        c_n = RingValue(self.ring, self._charpoly()[-1])
        return c_n if self.rows % 2 == 0 else -c_n

    def inverse(self) -> "Mat":
        """The inverse of a square matrix with a unit determinant, up to
        ``DET_SIZE_CAP``.

        Where ``right_inverse`` solves, it is the solver's beta: over a
        commutative ring a square right inverse is the two-sided inverse,
        and the determinant is taken only for the error when no unit pivot
        is found.  Elsewhere it is the adjugate: by Cayley-Hamilton,
        adj(A) = (-1)^(n-1) (A^(n-1) + c_1 A^(n-2) + ... + c_(n-1) I),
        evaluated by Horner.

        It is computed once per matrix and kept (``_kept``); the size
        guard runs on every call.
        """
        self._require_det_size()
        return self._kept("inverse", self._derive_inverse)

    def _derive_inverse(self) -> "Mat":
        try:
            beta = _solve_right_inverse(self)
        except NotRightInvertible:
            raise NotInvertible("determinant is not a unit",
                                det=self.det()) from None
        return beta if beta is not None else self._adjugate_inverse()

    def _adjugate_inverse(self) -> "Mat":
        c = self._charpoly()
        ring = self.ring
        n = self.rows
        c_n = RingValue(ring, c[n])
        d = c_n if n % 2 == 0 else -c_n
        if not d.is_unit():
            raise NotInvertible("determinant is not a unit", det=d)
        scale = (d.inverse() if n % 2 else -d.inverse()).payload
        dot, zero = ring.dot, ring.zero().payload
        a = self._grid
        horner = [[c[0] if i == j else zero for j in range(n)]
                  for i in range(n)]
        for k in range(1, n):
            cols = list(zip(*horner))
            horner = [[dot(c[k] if i == j else zero, row, col)
                       for j, col in enumerate(cols)]
                      for i, row in enumerate(a)]
        return Mat._box(ring, [[ring.mul(scale, p) for p in row]
                               for row in horner])

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "ring": self.ring.to_json(),
                "entries": [[self.ring.value_to_json(p) for p in row]
                            for row in self._grid]}

    @staticmethod
    def from_json(obj: dict) -> "Mat":
        from .rings import ring_from_json
        ring = ring_from_json(obj["ring"])
        return Mat(ring, [[ring.value_from_json(e) for e in row]
                          for row in obj["entries"]])


def identity(ring: Ring, n: int) -> Mat:
    return Mat.identity(ring, n)


def block_perp(a: Mat, b: Mat) -> Mat:
    return a.block_perp(b)


def _constant_terms(m: Mat) -> Mat:
    """m(0) over R for m over R[T], read off the payloads."""
    base = m.ring.base
    zero = base.zero().payload
    return Mat._box(base, [[p[0] if p else zero for p in row]
                           for row in m._grid])


# ---------------------------------------------------------------------------
# standard forms

@dataclass(frozen=True)
class Form:
    """Form tag: none, the alternating psi_n, or the symmetric phi_n."""

    kind: str  # "none" | "sp" | "orth"
    pairs: int = 0

    def matrix(self, ring: Ring) -> Mat:
        if self.kind in ("sp", "orth"):
            return _form(self.kind, Mat.identity(ring, 2 * self.pairs))
        raise ShapeMismatch("the trivial form has no matrix")


def _form(kind: str, m: Mat) -> Mat:
    """F @ m for F = psi ("sp") or phi ("orth") of m's even row count, by
    swapping each row pair (2k-1, 2k) of payloads: psi [top; bottom] =
    [bottom; -top] and phi [top; bottom] = [bottom; top].

    F^t = F^-1 = sF with s = -1 for psi and 1 for phi, so every product
    with a form reduces to this one: m F = s (F m^t)^t, and in F^-1 a^t F
    and F_m V^t F_n^-1 the two signs cancel."""
    ring = m.ring
    rows = m._grid
    out = []
    for top, bottom in zip(rows[0::2], rows[1::2]):
        if kind == "sp":
            top = [ring.neg(p) for p in top]
        out += (bottom, top)
    return Mat._box(ring, out)


def _form_inverse(a: Mat, kind: str) -> Mat:
    """a^-1 = F^-1 a^t F = F (F a)^t for a in the group of the form F."""
    if a.rows != a.cols or a.rows % 2:
        raise ShapeMismatch(
            f"the form inverse needs an even square matrix, got "
            f"{a.rows}x{a.cols}")
    return _form(kind, _form(kind, a).transpose())


def psi(ring: Ring, n: int) -> Mat:
    """psi_n: block sum of n copies of [[0,1],[-1,0]]."""
    return Form("sp", n).matrix(ring)


def phi(ring: Ring, n: int) -> Mat:
    """phi_n: block sum of n copies of [[0,1],[1,0]]."""
    return Form("orth", n).matrix(ring)


def _gram_is_form(left: Mat, right: Mat) -> bool:
    """Whether G = left @ right is the form psi or phi of its size, read
    off the upper triangle of G.

    Membership takes G = a^t (F a) and the frame check G = V (F V^t).
    G_ji sums the products of G_ij up to the sign of F, so G is symmetric
    for phi and alternating for psi, like F, and its upper triangle with
    the diagonal decides G = F.  Those entries form every product of the
    full G, in the same order, so they raise DegreeCapExceeded exactly
    when the full product does."""
    ring = left.ring
    zero, one = ring.zero().payload, ring.one().payload
    upper = ring.products(left._grid, list(zip(*right._grid)), upper=True)
    return all(g == (one if j == 1 and i % 2 == 0 else zero)
               for i, row in enumerate(upper) for j, g in enumerate(row))


def membership(a: Mat, group: str) -> bool:
    """Exact membership test for GL, SL, Sp, O, SO.

    Each group is decided at most once per matrix: the answer is kept in
    the matrix's ``_known`` memo (``Mat._kept``), which ==, hash, repr and
    to_json ignore, and a later call on the same object returns it.  A
    call that raises keeps nothing.  ``reduce``'s frame completions also
    keep the answer for a square frame, whose completion they have just
    checked in the group and found equal to it.

    SO over R[T] is O with det a(0) = 1, read off the constant terms by a
    determinant over R: for a in O, a^t phi a = phi gives (det a)^2 = 1, so
    u = det a is a unit of R[T], u = a_0 + N with N in T R[T] nilpotent
    (Atiyah-Macdonald, ch. 1, ex. 2).  From u^2 = 1 and a_0^2 = 1,
    N (2 a_0 + N) = 0, and 2 a_0 + N is a unit because 1/2 is in R (O needs
    it), so N = 0 and det a = det a(0).  No locality is needed, and the
    argument repeats down a tower R[T][S].  When a(0) is the identity,
    det a(0) = 1 needs no determinant; any other a(0), and every a over a
    ring that is no R[T], takes the determinant."""
    return a._kept(group, _decide_membership, a, group)


def _decide_membership(a: Mat, group: str) -> bool:
    if a.rows != a.cols:
        raise ShapeMismatch("group membership needs a square matrix")
    if group == "GL":
        return a.det().is_unit()
    if group == "SL":
        return a.det() == a.ring.one()
    if group in ("Sp", "O", "SO"):
        if a.rows % 2:
            raise ShapeMismatch(f"{group} requires even size")
        kind = "sp" if group == "Sp" else "orth"
        if kind == "orth" and not has_half(a.ring):
            raise HalfNotInvertible(
                f"orthogonal membership needs 1/2 in {a.ring}")
        if not _gram_is_form(a.transpose(), _form(kind, a)):
            return False
        if group != "SO":
            return True
        while a.ring.kind == "poly":
            a = _constant_terms(a)
            if a.is_identity():
                return True
        return a.det() == a.ring.one()
    raise ValueError(f"unknown group {group!r}")


# ---------------------------------------------------------------------------
# right-inverse certificates

@dataclass(frozen=True)
class RightInverseCert:
    """A certified pair alpha * beta = I."""

    alpha: Mat
    beta: Mat

    def __post_init__(self):
        prod = self.alpha @ self.beta
        if not prod.is_identity():
            raise NotRightInvertible("certificate does not multiply to I")


def _right_inverse_local(a: Mat) -> Mat:
    """Column reduction with unit pivots over a local ring (or field), on
    the payload rows of a stacked over I_m: the column operations that
    bring a to the identity on its pivot columns bring I_m to beta.  Each
    column update col_j -= f col_piv is one ``ring.fma`` per row, on the
    rows whose pivot entry is nonzero, as ``Ring.act``'s generic loop
    updates a column for a generator."""
    ring = a.ring
    mul, fma = ring.mul, ring.fma
    n, m = a.rows, a.cols
    rows = a._payloads() + Mat.identity(ring, m)._payloads()
    zero = ring.zero().payload
    pivots = []
    for i in range(n):
        piv = next((j for j in range(m) if j not in pivots
                    and ring.is_unit_payload(rows[i][j])), None)
        if piv is None:
            raise NotRightInvertible(f"row {i} of the matrix has no unit pivot")
        inv = ring.inverse_payload(rows[i][piv])
        live = [r for r in rows if r[piv] != zero]
        for r in live:
            r[piv] = mul(r[piv], inv)
        for j in range(m):
            f = rows[i][j]
            if j != piv and f != zero:
                f = ring.neg(f)
                for r in live:
                    r[j] = fma(r[j], f, r[piv])
        pivots.append(piv)
    return Mat._box(ring, [[r[p] for p in pivots] for r in rows[n:]])


def _right_inverse_integral(a: Mat, n: int) -> Mat:
    """Hermite column reduction (H. Cohen, GTM 138, 2.4) over Z (n = 0) or
    Z/n, on the payload rows of a stacked over I_m: extended-gcd column
    operations gather each row into a pivot, which must be a unit, is
    scaled to 1 and cleared from the earlier pivots; beta is the pivot
    columns below."""
    red = (lambda x: x % n) if n else (lambda x: x)
    m = a.cols
    rows = [[red(x) for x in r] for r in a._payloads()] + \
        [[int(i == j) for j in range(m)] for i in range(m)]
    pivots: list[int] = []
    for i, row in enumerate(rows[:a.rows]):
        piv, *rest = [j for j in range(m) if j not in pivots]
        for j in rest:
            if row[j]:
                g, u, w = _xgcd(row[piv], row[j])
                x, y = row[piv] // g, row[j] // g
                for r in rows:
                    r[piv], r[j] = (red(u * r[piv] + w * r[j]),
                                    red(x * r[j] - y * r[piv]))
        g = row[piv]
        if gcd(g, n) != 1:  # gcd(g, 0) = |g|
            raise NotRightInvertible(
                f"row {i} of the matrix has no unit pivot" if n
                else "no integral right inverse")
        inv = pow(g, -1, n) if n else g
        for r in rows:
            r[piv] = red(r[piv] * inv)
        for j in pivots:
            f = row[j]
            if f:
                for r in rows:
                    r[j] = red(r[j] - f * r[piv])
        pivots.append(piv)
    return Mat._box(a.ring, [[r[p] for p in pivots] for r in rows[a.rows:]])


def _solve_right_inverse(a: Mat) -> Mat | None:
    """beta with a beta = I by the column reduction that solves over a's
    ring, or None when no solver covers it: the one place that chooses
    between the two paths, for ``right_inverse`` and ``Mat.inverse``.
    Raises NotRightInvertible when a row finds no unit pivot."""
    if a.ring.is_local:
        return _right_inverse_local(a)
    n = a.ring.integer_modulus
    return None if n is None else _right_inverse_integral(a, n)


def right_inverse(a: Mat) -> RightInverseCert:
    """A certified beta with a*beta = I, for the solvable ring families."""
    if a.rows > a.cols:
        raise NotRightInvertible("more rows than columns")
    beta = _solve_right_inverse(a)
    if beta is None:
        raise UnsupportedRing(f"right-inverse solving over {a.ring} is "
                              f"unsupported; supply a certificate")
    return RightInverseCert(a, beta)


# ---------------------------------------------------------------------------
# isotropic frames and hyperbolic vectors

@dataclass(frozen=True)
class IsotropicFrame:
    """A 2n x 2m right-invertible V with V F_m V^t = F_n for F in {psi, phi}.

    The guards run on every construction; the form identity is checked
    once per matrix and kind, and a matrix that passes keeps that fact
    (``Mat._keep``), so a second frame on the same matrix reads it."""

    mat: Mat
    kind: str  # "sp" | "orth"

    def __post_init__(self):
        V = self.mat
        if V.rows % 2 or V.cols % 2 or V.rows > V.cols:
            raise ShapeMismatch("frame must be 2n x 2m with n <= m")
        if self.kind not in ("sp", "orth"):
            raise ShapeMismatch("frame kind must be sp or orth")
        if self.kind == "orth" and not has_half(V.ring):
            raise HalfNotInvertible(f"orthogonal frames need 1/2 in {V.ring}")
        key = ("frame", self.kind)
        if key not in V._known:
            if not _gram_is_form(V, _form(self.kind, V.transpose())):
                raise FormViolation("V F_m V^t != F_n")
            V._keep(key, True)

    @property
    def n_pairs(self) -> int:
        return self.mat.rows // 2

    @property
    def m_pairs(self) -> int:
        return self.mat.cols // 2

    @staticmethod
    def standard(ring: Ring, kind: str, n: int, m: int) -> "IsotropicFrame":
        k = 2 * max(m, n)
        return IsotropicFrame(
            Mat.identity(ring, k).submatrix(0, 2 * n, 0, k), kind)

    def right_inverse(self) -> RightInverseCert:
        """The form identity yields an explicit right inverse,
        beta = F_m V^t F_n^-1 = F_m (F_n V)^t."""
        V = self.mat
        return RightInverseCert(
            V, _form(self.kind, _form(self.kind, V).transpose()))


@dataclass(frozen=True)
class HyperbolicVector:
    """An element x + f of P + P* with its quadratic value q(x+f) = f(x)."""

    x_part: tuple
    f_part: tuple

    def __post_init__(self):
        if len(self.x_part) != len(self.f_part):
            raise ShapeMismatch("x and f parts must share the rank")

    @property
    def rank(self) -> int:
        return len(self.x_part)

    def q(self) -> RingValue:
        return _sum_of_products(self.f_part, self.x_part)

    def pair(self, other: "HyperbolicVector") -> RingValue:
        """The bilinear form B(w1, w2) = f1(x2) + f2(x1)."""
        return _sum_of_products((*self.f_part, *other.f_part),
                                (*other.x_part, *self.x_part))


def _sum_of_products(fs, xs) -> RingValue:
    ring = fs[0].ring
    return RingValue(ring, ring.dot(ring.zero().payload,
                                    [f.payload for f in fs],
                                    [x.payload for x in xs]))


def hyperbolic_pair_check(w1: HyperbolicVector, w2: HyperbolicVector) -> bool:
    """True iff (w1, w2) is a hyperbolic pair: orthogonal, q = 1 and -1."""
    if w1.rank != w2.rank:
        raise ShapeMismatch("ranks differ")
    ring = w1.f_part[0].ring
    return (w1.pair(w2).is_zero() and w1.q() == ring.one()
            and w2.q() == -ring.one())
