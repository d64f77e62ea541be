"""The naive reference kernel behind the differential tests: plain loops
over canonical payloads, written from the definitions.  It calls no fast
path that it checks, which ``test_reference_kernel_calls_no_fast_path``
enforces.  A ring that is not polynomial computes with its own
``add``/``mul``/``neg``; R[T] and F[x]/(f) (``polyloc`` and a polynomial
``quot``) convolve coefficients and then trim (checking the degree cap) or
divide by the monic f.  A generator is its matrix, for the pairing
σ = (1 2)(3 4)...: e_ij(z) = I + z E_ij; se_ij(z) = I + z E_ij if i = σ(j),
else I + z E_ij - (-1)^(i+j) z E_σ(j)σ(i); oe_ij(z) = I + z E_ij -
z E_σ(j)σ(i).  A word is the product of its generators' matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from cgf.errors import CgfError, DegreeCapExceeded, DescriptorMismatch
from cgf.matrices import Mat
from cgf.rings import RingValue


@dataclass(frozen=True)
class Raised:
    """The class, code, message and context of a raised ``CgfError``."""

    error: type
    code: str
    message: str
    context: dict

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message,
                "context": {k: repr(v)
                            for k, v in sorted(self.context.items())}}


def outcome(fn, *args, catch=CgfError, **kwargs):
    """fn(*args, **kwargs), or the ``Raised`` record of a ``catch`` error."""
    try:
        return fn(*args, **kwargs)
    except catch as e:
        return Raised(type(e), e.code, str(e), e.context)


def _zero(ring):
    return ring.zero().payload


def _coefficients(ring):
    """(field, monic f) for F[x]/(f), (base, None) for R[T], else None."""
    if ring.kind == "poly":
        return ring.base, None
    if ring.kind == "polyloc":
        return ring.field, (0,) * ring.e + (1,)
    if ring.kind == "quot" and ring.base.kind == "poly":
        return ring.base.base, ring.modulus
    return None


def sort_key(ring, p):
    """The key that ordered a finite ring's elements before they had ranks:
    over ``polyloc`` the coefficients padded to e, over any other
    polynomial remainder (length, payload), else the payload."""
    if ring.kind == "polyloc":
        return p + (0,) * (ring.e - len(p))
    return (len(p), p) if isinstance(p, tuple) else p


def trim(ring, coeffs):
    """R[T] coefficients, trailing zeros stripped, under the degree cap."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == _zero(ring.base):
        coeffs.pop()
    if len(coeffs) - 1 > ring.degree_cap:
        raise DegreeCapExceeded(
            f"degree {len(coeffs) - 1} exceeds cap {ring.degree_cap}")
    return tuple(coeffs)


def _canon(ring, coeffs):
    """Trimmed in R[T]; in F[x]/(f) divided by f from the top, stripped."""
    field, f = _coefficients(ring)
    if f is None:
        return trim(ring, coeffs)
    out, d = list(coeffs), len(f) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        for i, fi in enumerate(f):
            out[k - d + i] = sub(field, out[k - d + i], mul(field, c, fi))
    while out and out[-1] == _zero(field):
        out.pop()
    return tuple(out)


def add(ring, a, b):
    coeffs = _coefficients(ring)
    if coeffs is None:
        return ring.add(a, b)
    if not a or not b:
        return a or b
    base, z = coeffs[0], _zero(coeffs[0])
    n = max(len(a), len(b))
    a, b = list(a) + [z] * (n - len(a)), list(b) + [z] * (n - len(b))
    return _canon(ring, [add(base, x, y) for x, y in zip(a, b)])


def neg(ring, a):
    coeffs = _coefficients(ring)
    if coeffs is None:
        return ring.neg(a)
    return _canon(ring, [neg(coeffs[0], c) for c in a])


def sub(ring, a, b):
    return add(ring, a, neg(ring, b))


def mul(ring, a, b):
    coeffs = _coefficients(ring)
    if coeffs is None:
        return ring.mul(a, b)
    if not a or not b:
        return ()
    base = coeffs[0]
    out = [_zero(base)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(base, out[i + j], mul(base, x, y))
    return _canon(ring, out)


def sum_of_products(ring, acc, xs, ys):
    """acc + x_1 y_1 + x_2 y_2 + ..., one product and one sum at a time."""
    for x, y in zip(xs, ys):
        acc = add(ring, acc, mul(ring, x, y))
    return acc


def combination(ring, coeffs, values):
    """The payload of sum c_i v_i, for ring values c_i and v_i."""
    return sum_of_products(ring, _zero(ring), [c.payload for c in coeffs],
                           [v.payload for v in values])


def horner(ring, a, t):
    """The base payload of the R[T] payload a at the base payload t."""
    acc = _zero(ring.base)
    for c in reversed(a):
        acc = add(ring.base, mul(ring.base, acc, t), c)
    return acc


def identity(ring, n):
    return Mat(ring, [[1 if i == j else 0 for j in range(n)]
                      for i in range(n)])


def matmul(a, b):
    cols = list(zip(*b._grid))
    return Mat(a.ring, [[sum_of_products(a.ring, _zero(a.ring), row, col)
                         for col in cols] for row in a._grid])


def mat_add(a, b):
    return Mat(a.ring, [[add(a.ring, x, y) for x, y in zip(r, s)]
                        for r, s in zip(a._grid, b._grid)])


def mat_neg(a):
    return Mat(a.ring, [[neg(a.ring, x) for x in row] for row in a._grid])


def scale(a, c):
    """c times a, for a value of a's ring or an int."""
    if isinstance(c, RingValue):
        if c.ring != a.ring:
            raise DescriptorMismatch(
                f"operands live in different rings: {c.ring} vs {a.ring}")
        c = c.payload
    else:
        c = a.ring.canon(c)
    return Mat(a.ring, [[mul(a.ring, c, x) for x in row] for row in a._grid])


def transpose(a):
    return Mat(a.ring, list(zip(*a._grid)))


def block_perp(a, b):
    z = _zero(a.ring)
    return Mat(a.ring, [list(row) + [z] * b.cols for row in a._grid]
               + [[z] * a.cols + list(row) for row in b._grid])


def submatrix(a, r0, r1, c0, c1):
    return Mat(a.ring, [row[c0:c1] for row in a._grid[r0:r1]])


def is_identity(a):
    return a.rows == a.cols and a == identity(a.ring, a.rows)


def map_ring(a, new_ring, fn=None):
    """Each entry, boxed in a's ring, through fn (new_ring.coerce)."""
    fn = fn or new_ring.coerce
    return Mat(new_ring, [[fn(RingValue(a.ring, x)) for x in row]
                          for row in a._grid])


def substitute(m, t):
    """m over R[T] at the point t of R."""
    if t.ring != m.ring.base:
        raise DescriptorMismatch("evaluation point from another ring")
    return Mat(t.ring, [[horner(m.ring, x, t.payload) for x in row]
                        for row in m._grid])


def to_json(a):
    return {"rows": a.rows, "cols": a.cols, "ring": a.ring.to_json(),
            "entries": [[a.ring.value_to_json(x) for x in row]
                        for row in a._grid]}


def determinant(m):
    """The determinant's payload, by a dynamic program over the sets of
    columns that the leading rows use: row i places column j with the sign
    of the number of unused columns before j."""
    ring, z = m.ring, _zero(m.ring)
    prev = {0: ring.one().payload}
    for row in m._grid:
        nxt = {}
        for mask, val in prev.items():
            free = [j for j in range(m.cols) if not mask >> j & 1]
            for k, j in enumerate(free):
                term = mul(ring, val, row[j])
                nxt[mask | 1 << j] = add(ring, nxt.get(mask | 1 << j, z),
                                         neg(ring, term) if k % 2 else term)
        prev = nxt
    return prev[(1 << m.rows) - 1]


def form_matrix(family, ring, n, inverse=False):
    """psi_n ("sp"), the block sum of n copies of [[0, 1], [-1, 0]], or
    phi_n ("orth"), of [[0, 1], [1, 0]]; with ``inverse``, psi_n^-1 = -psi_n
    or phi_n^-1 = phi_n."""
    top = -1 if family == "sp" and inverse else 1
    out = block = Mat(ring, [[0, top], [top if family == "orth" else -top, 0]])
    for _ in range(n - 1):
        out = block_perp(out, block)
    return out


def is_member(a, family):
    """a^t (F a) = F for the form F of a's size."""
    f = form_matrix(family, a.ring, a.rows // 2)
    return matmul(transpose(a), matmul(f, a)) == f


def form_inverse(a, family):
    """F^-1 a^t F, the inverse of a member a."""
    n = a.rows // 2
    return matmul(matmul(form_matrix(family, a.ring, n, inverse=True),
                         transpose(a)), form_matrix(family, a.ring, n))


def is_frame(v, family):
    """V (F_m V^t) = F_n for the 2n x 2m matrix V."""
    fm = form_matrix(family, v.ring, v.cols // 2)
    return matmul(v, matmul(fm, transpose(v))) == form_matrix(
        family, v.ring, v.rows // 2)


def frame_beta(v, family):
    """F_m V^t F_n^-1, a frame's right inverse."""
    return matmul(matmul(form_matrix(family, v.ring, v.cols // 2),
                         transpose(v)),
                  form_matrix(family, v.ring, v.rows // 2, inverse=True))


def generator_entries(g):
    """The off-diagonal entries (row, col, payload), 1-based, of g."""
    ring, z, i, j = g.param.ring, g.param.payload, g.i, g.j
    si, sj = (i + 1 if i % 2 else i - 1), (j + 1 if j % 2 else j - 1)
    if g.family == "lin" or (g.family == "sp" and i == sj):
        return ((i, j, z),)
    c = neg(ring, z) if g.family == "orth" or (i + j) % 2 == 0 else z
    return ((i, j, z), (sj, si, c))


def generator_matrix(g):
    rows = [list(row) for row in identity(g.param.ring, g.size)._grid]
    for r, c, x in generator_entries(g):
        rows[r - 1][c - 1] = x
    return Mat(g.param.ring, rows)


def factor(n):
    """Trial division: yields (p, k) with n = prod p^k, primes ascending,
    and nothing for n < 2."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            yield p, k
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def act_entries(rows, entries, plus, times):
    """Rows of payloads times the generator whose off-diagonal entries
    (``generator_entries``) are ``entries``, row (I + N) = row + row N,
    with ``plus`` and ``times`` the sum and product of two payloads."""
    out = []
    for r in rows:
        new = list(r)
        for i, j, x in entries:
            new[j - 1] = plus(new[j - 1], times(r[i - 1], x))
        out.append(tuple(new))
    return out


def act_rows(ring, rows, gens):
    """Rows of payloads times each generator."""
    rows = [tuple(r) for r in rows]
    plus, times = functools.partial(add, ring), functools.partial(mul, ring)
    for g in gens:
        rows = act_entries(rows, generator_entries(g), plus, times)
    return rows


def times_gens(m, gens):
    """m g_1 g_2 ... for the generators' matrices g_k."""
    return Mat(m.ring, act_rows(m.ring, m._grid, gens))


def word_matrix(w):
    """The product I g_1 g_2 ... of the word's generator matrices."""
    return times_gens(identity(w.ring, w.size), w.gens)
