"""Dense exact matrices, the standard alternating/symmetric forms, and
group-membership predicates.

Everything is immutable: a matrix is a tuple-of-tuples of ring values.
Determinants and inverses come from one algorithm for every ring of the
tower: Berkowitz's division-free characteristic polynomial (S. J. Berkowitz,
"On computing the determinant in small parallel time using a small number
of processors", Inf. Proc. Letters 18, 1984), O(n^4) ring operations up to
the size cap.  The inverse is the adjugate from Cayley-Hamilton, scaled by
the inverse of a unit determinant.

No product by the forms psi_n and phi_n is ever formed: one kernel,
``_form``, applies either form as a signed swap of paired rows, for every
use of the forms in the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (HalfNotInvertible, NotInvertible, NotRightInvertible,
                     ShapeMismatch, SizeLimit, UnsupportedRing, FormViolation)
from .rings import (ModularRing, Ring, RingValue, _dot, _factor,
                    _residue_modulus, has_half)

DET_SIZE_CAP = 12


class Mat:
    """An exact rows x cols matrix over one ring of the tower."""

    __slots__ = ("ring", "rows", "cols", "entries", "_cp")

    def __init__(self, ring: Ring, entries):
        grid = tuple(tuple(ring.coerce(e) for e in row) for row in entries)
        if grid and grid[0] and any(len(r) != len(grid[0]) for r in grid):
            raise ShapeMismatch("ragged rows")
        self._fill(ring, grid)

    def _fill(self, ring: Ring, grid: tuple) -> "Mat":
        if not grid or not grid[0]:
            raise ShapeMismatch("matrices must be non-empty")
        for name, value in zip(self.__slots__,
                               (ring, len(grid), len(grid[0]), grid, None)):
            object.__setattr__(self, name, value)
        return self

    @staticmethod
    def _box(ring: Ring, rows) -> "Mat":
        """A matrix from rows of canonical payloads of ``ring``, boxed
        without coercing them again."""
        return object.__new__(Mat)._fill(ring, tuple(
            tuple(RingValue(ring, p) for p in row) for row in rows))

    def _payloads(self) -> list:
        """The entries as fresh rows of canonical payloads."""
        return [[e.payload for e in row] for row in self.entries]

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def identity(ring: Ring, n: int) -> "Mat":
        one, zero = ring.one().payload, ring.zero().payload
        return Mat._box(ring, [[one if i == j else zero for j in range(n)]
                               for i in range(n)])

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Mat":
        zero = ring.zero()
        return Mat(ring, [[zero] * cols for _ in range(rows)])

    @staticmethod
    def row_vector(ring: Ring, values) -> "Mat":
        return Mat(ring, [list(values)])

    # -- basics --------------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def col(self, j: int):
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        return (isinstance(other, Mat) and other.ring == self.ring
                and other.entries == self.entries)

    def __hash__(self):
        return hash((self.ring.key(), self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.entries)
        return f"Mat({self.ring}, [{body}])"

    def _require_same_ring(self, other: "Mat"):
        if self.ring != other.ring:
            raise ShapeMismatch("matrices over different rings")

    def __add__(self, other: "Mat") -> "Mat":
        self._require_same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return Mat(self.ring, [[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._require_same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction shape mismatch")
        return Mat(self.ring, [[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat(self.ring, [[-a for a in row] for row in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        self._require_same_ring(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ring = self.ring
        zero = ring.zero().payload
        cols = list(zip(*other._payloads()))
        return Mat._box(ring, [[_dot(ring, zero, row, col) for col in cols]
                               for row in self._payloads()])

    __mul__ = __matmul__

    def scale(self, c: RingValue) -> "Mat":
        return Mat(self.ring, [[c * a for a in row] for row in self.entries])

    def transpose(self) -> "Mat":
        return Mat(self.ring, list(zip(*self.entries)))

    def block_perp(self, other: "Mat") -> "Mat":
        """Place self then other on the diagonal (orthogonal sum)."""
        self._require_same_ring(other)
        zero = self.ring.zero()
        out = []
        for row in self.entries:
            out.append(list(row) + [zero] * other.cols)
        for row in other.entries:
            out.append([zero] * self.cols + list(row))
        return Mat(self.ring, out)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        return Mat(self.ring, [row[c0:c1] for row in self.entries[r0:r1]])

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one, zero = self.ring.one(), self.ring.zero()
        return all(e == (one if i == j else zero)
                   for i, row in enumerate(self.entries)
                   for j, e in enumerate(row))

    def map_ring(self, new_ring: Ring, fn=None) -> "Mat":
        """Entrywise retyping, e.g. lifting constants into R[T]."""
        fn = fn or new_ring.coerce
        return Mat(new_ring, [[fn(e) for e in row] for row in self.entries])

    # -- determinant and inverse ---------------------------------------------
    def _charpoly(self) -> tuple:
        """Payloads (1, c_1, ..., c_n) of the characteristic polynomial
        det(xI - A) = x^n + c_1 x^(n-1) + ... + c_n, computed once per
        matrix (a Mat is immutable), so det() and inverse() share it."""
        if self._cp is None:
            object.__setattr__(self, "_cp", tuple(self._berkowitz()))
        return self._cp

    def _berkowitz(self) -> list:
        """The characteristic polynomial's payloads [1, c_1, ..., c_n].

        Berkowitz: the polynomial of each leading (k+1) x (k+1) block is a
        Toeplitz matrix with first column [1, -a_kk, -R C, -R M C, ...,
        -R M^(k-1) C] times that of the leading k x k block M, where R and C
        are the new row and column.
        """
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        n = self.rows
        if n > DET_SIZE_CAP:
            raise SizeLimit(f"determinant capped at size {DET_SIZE_CAP}")
        ring = self.ring
        zero = ring.zero().payload
        a = self._payloads()
        poly = [ring.one().payload]
        for k in range(n):
            cols = [[row[j] for row in a[:k]] for j in range(k + 1)]
            toeplitz = [ring.neg(a[k][k])]
            vec = a[k][:k]
            for j in range(k):
                toeplitz.append(ring.neg(_dot(ring, zero, vec, cols[k])))
                if j < k - 1:
                    vec = [_dot(ring, zero, vec, col) for col in cols[:k]]
            poly = poly[:1] + [
                _dot(ring, poly[i] if i <= k else zero, poly[i - 1::-1],
                     toeplitz)
                for i in range(1, k + 2)]
        return poly

    def det(self) -> RingValue:
        c_n = RingValue(self.ring, self._charpoly()[-1])
        return c_n if self.rows % 2 == 0 else -c_n

    def inverse(self) -> "Mat":
        """Adjugate inverse; requires a unit determinant.

        By Cayley-Hamilton, adj(A) = (-1)^(n-1) (A^(n-1) + c_1 A^(n-2) + ...
        + c_(n-1) I), evaluated by Horner.
        """
        c = self._charpoly()
        ring = self.ring
        n = self.rows
        c_n = RingValue(ring, c[n])
        d = c_n if n % 2 == 0 else -c_n
        if not d.is_unit():
            raise NotInvertible("determinant is not a unit", det=d)
        scale = (d.inverse() if n % 2 else -d.inverse()).payload
        zero = ring.zero().payload
        a = self._payloads()
        horner = [[c[0] if i == j else zero for j in range(n)]
                  for i in range(n)]
        for k in range(1, n):
            cols = list(zip(*horner))
            horner = [[_dot(ring, c[k] if i == j else zero, row, col)
                       for j, col in enumerate(cols)]
                      for i, row in enumerate(a)]
        return Mat._box(ring, [[ring.mul(scale, p) for p in row]
                               for row in horner])

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "ring": self.ring.to_json(),
                "entries": [[e.to_json() for e in row] for row in self.entries]}

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
    rows = m._payloads()
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


def membership(a: Mat, group: str) -> bool:
    """Exact membership test for GL, SL, Sp, O, SO."""
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
        form = Form(kind, a.rows // 2).matrix(a.ring)
        if a.transpose() @ _form(kind, a) != form:
            return False
        return group != "SO" or a.det() == a.ring.one()
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
    """Column reduction with unit pivots over a local ring (or field)."""
    ring = a.ring
    n, m = a.rows, a.cols
    work = [list(row) for row in a.entries]
    trans = [list(row) for row in Mat.identity(ring, m).entries]
    pivots = []
    used = set()
    for i in range(n):
        piv = None
        for j in range(m):
            if j not in used and work[i][j].is_unit():
                piv = j
                break
        if piv is None:
            raise NotRightInvertible(f"row {i} of the matrix has no unit pivot")
        inv = work[i][piv].inverse()
        for r in range(n):
            work[r][piv] = work[r][piv] * inv
        for r in range(m):
            trans[r][piv] = trans[r][piv] * inv
        for j in range(m):
            if j == piv:
                continue
            f = work[i][j]
            if f.is_zero():
                continue
            for r in range(n):
                work[r][j] = work[r][j] - f * work[r][piv]
            for r in range(m):
                trans[r][j] = trans[r][j] - f * trans[r][piv]
        pivots.append(piv)
        used.add(piv)
    beta = Mat(ring, [[trans[r][pivots[i]] for i in range(n)]
                      for r in range(m)])
    return beta


def _snf_solve_int(a_rows, rhs_cols):
    """Solve A X = B over the integers via Smith reduction; None if unsolvable.

    a_rows: list of int lists (n x m); rhs_cols: list of int column vectors.
    Returns X as list of int rows (m x k).
    """
    n = len(a_rows)
    m = len(a_rows[0])
    A = [list(r) for r in a_rows]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i1, i2, q):  # row i1 -= q * row i2
        A[i1] = [x - q * y for x, y in zip(A[i1], A[i2])]
        U[i1] = [x - q * y for x, y in zip(U[i1], U[i2])]

    def col_op(j1, j2, q):  # col j1 -= q * col j2
        for r in range(n):
            A[r][j1] -= q * A[r][j2]
        for r in range(m):
            V[r][j1] -= q * V[r][j2]

    def swap_rows(i1, i2):
        A[i1], A[i2] = A[i2], A[i1]
        U[i1], U[i2] = U[i2], U[i1]

    def swap_cols(j1, j2):
        for r in range(n):
            A[r][j1], A[r][j2] = A[r][j2], A[r][j1]
        for r in range(m):
            V[r][j1], V[r][j2] = V[r][j2], V[r][j1]

    t = 0
    while t < min(n, m):
        # find a nonzero pivot
        piv = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, n):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, m):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        t += 1
    # A = U * original * V is now diagonal (first t entries)
    X_cols = []
    for b in rhs_cols:
        ub = [sum(U[i][r] * b[r] for r in range(n)) for i in range(n)]
        y = [0] * m
        for i in range(n):
            d = A[i][i] if i < m else 0
            if d == 0:
                if ub[i] != 0:
                    return None
                continue
            if ub[i] % d:
                return None
            y[i] = ub[i] // d
        x = [sum(V[r][c] * y[c] for c in range(m)) for r in range(m)]
        X_cols.append(x)
    return [[X_cols[c][r] for c in range(len(X_cols))] for r in range(m)]


def _right_inverse_modular(a: Mat, n_mod: int) -> Mat:
    """CRT over the prime-power factors of the modulus of Z/n_mod."""
    ring = a.ring
    parts = []
    for q in (p ** k for p, k in _factor(n_mod)):
        Rq = ModularRing(q)
        aq = Mat(Rq, [[e.payload for e in row] for row in a.entries])
        parts.append((q, _right_inverse_local(aq)))
    # CRT entrywise
    entries = []
    for r in range(a.cols):
        row = []
        for c in range(a.rows):
            x = 0
            mod = 1
            for q, beta in parts:
                v = beta.entries[r][c].payload
                # extend x to satisfy x = v (mod q) as well
                k = ((v - x) * pow(mod % q, -1, q)) % q
                x = x + mod * k
                mod *= q
            row.append(x)
        entries.append(row)
    return Mat(ring, entries)


def right_inverse(a: Mat) -> RightInverseCert:
    """A certified beta with a*beta = I, for the solvable ring families."""
    ring = a.ring
    if a.rows > a.cols:
        raise NotRightInvertible("more rows than columns")
    if ring.is_local or ring.is_field:
        return RightInverseCert(a, _right_inverse_local(a))
    n = _residue_modulus(ring)
    if n:
        return RightInverseCert(a, _right_inverse_modular(a, n))
    if n == 0:
        rows = [[e.payload for e in row] for row in a.entries]
        rhs = [[int(i == j) for i in range(a.rows)] for j in range(a.rows)]
        sol = _snf_solve_int(rows, rhs)
        if sol is None:
            raise NotRightInvertible("no integral right inverse")
        return RightInverseCert(a, Mat(ring, sol))
    raise UnsupportedRing(
        f"right-inverse solving over {ring} is unsupported; supply a certificate")


# ---------------------------------------------------------------------------
# isotropic frames and hyperbolic vectors

@dataclass(frozen=True)
class IsotropicFrame:
    """A 2n x 2m right-invertible V with V F_m V^t = F_n for F in {psi, phi}."""

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
        if V @ _form(self.kind, V.transpose()) != \
                Form(self.kind, V.rows // 2).matrix(V.ring):
            raise FormViolation("V F_m V^t != F_n")

    @property
    def n_pairs(self) -> int:
        return self.mat.rows // 2

    @property
    def m_pairs(self) -> int:
        return self.mat.cols // 2

    @staticmethod
    def standard(ring: Ring, kind: str, n: int, m: int) -> "IsotropicFrame":
        ident = Mat.identity(ring, 2 * n)
        if m > n:
            pad = Mat.zeros(ring, 2 * n, 2 * (m - n))
            rows = [list(r1) + list(r2) for r1, r2 in
                    zip(ident.entries, pad.entries)]
            return IsotropicFrame(Mat(ring, rows), kind)
        return IsotropicFrame(ident, kind)

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
    return RingValue(ring, _dot(ring, ring.zero().payload,
                                [f.payload for f in fs],
                                [x.payload for x in xs]))


def hyperbolic_pair_check(w1: HyperbolicVector, w2: HyperbolicVector) -> bool:
    """True iff (w1, w2) is a hyperbolic pair: orthogonal, q = 1 and -1."""
    if w1.rank != w2.rank:
        raise ShapeMismatch("ranks differ")
    ring = w1.f_part[0].ring
    return (w1.pair(w2).is_zero() and w1.q() == ring.one()
            and w2.q() == -ring.one())
