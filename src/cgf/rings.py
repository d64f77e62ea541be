"""Exact arithmetic in a closed tower of commutative rings with identity.

The tower is fixed by construction: the integers, the rationals, Z/n,
prime fields, truncated polynomial local rings F_p[x]/(x^e), the integers
localized at a prime, polynomial extensions R[T], quotients by decidable
ideals, and rings of fractions Z_s.  Every element is stored in a canonical
form, so equality is literal payload equality and all operations are pure.

One arithmetic serves every F[x]/(f): ``_PolyRemainders``, remainders
modulo a monic f.  A polynomial ``QuotientRing`` computes on it, and so does
F_p[x]/(x^e), which is F_p[x] mod x^e under its own descriptor.

Locality ("every unimodular tuple contains a unit") is computed from the
constructor, never asserted by the caller: Z/p^k, prime fields,
F_p[x]/(x^e), Z_(p) and fields are local; R[T] and Z_s never are.  A
polynomial quotient F[x]/(f) over a finite field is local exactly when f is
a power of one irreducible, and a field when f is irreducible; over an
infinite field it leaves both flags False.

Each finite ring has one element order, in closed form: ``rank`` numbers a
canonical payload from 0 and ``unrank`` inverts it.  Z/n orders residues by
value; F_p[x]/(x^e) reads the coefficients, padded to e and constant term
first, as base-p digits; any other F[x]/(f) orders remainders by length,
then by their coefficients compared as payloads; a quotient takes its
residues' order.  ``elements()`` may list them in another order.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, log2

from .errors import (CgfError, DegreeCapExceeded, DescriptorMismatch, NotAUnit,
                     UnsupportedQuotient, UnsupportedRing)

DEFAULT_DEGREE_CAP = 64


# Strong probable primes to the first 13 prime bases are prime below
# 3.317 * 10^24 (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """The Miller-Rabin test of an odd n > a to the base a."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Whether n is prime, exactly: trial division by the 13 bases (which
    decides every n below 43^2), then deterministic Miller-Rabin on them
    below ``_MR_EXACT_BELOW``.  Above it a composite is still proven
    composite, and a probable prime raises UnsupportedRing, so no
    probabilistic answer reaches a ring's flags."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if not all(_strong_probable_prime(n, a) for a in _MR_BASES):
        return False
    if n < _MR_EXACT_BELOW:
        return True
    raise UnsupportedRing(
        f"cannot decide whether {n} is prime: it passes Miller-Rabin to "
        f"the first 13 prime bases, which decides only below "
        f"{_MR_EXACT_BELOW}")


def _iroot(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1: Newton's method from a
    float estimate raised above the root, so a few steps reach it."""
    e = log2(n) / k
    x = (int(2 ** (e % 1 + 52)) << int(e)) >> 52
    x += (x >> 20) + 2
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power_base(n: int):
    """Return p if n = p^k for a prime p and k >= 1, else None: the
    smallest base that divides n, or else the prime that n's exact roots
    reach.  An exact q-th root replaces n; once no root is exact, n is p or
    no prime power.  With no base dividing n, p >= 43, so only exponents q
    with 43^q <= n are tried."""
    if n < 2:
        return None
    for p in _MR_BASES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    q = 2
    while 43 ** q <= n:
        r = _iroot(n, q)
        if r ** q == n:
            n, q = r, 2
        else:
            q += 1
    return n if _is_prime(n) else None


def _divides_power(d: int, s: int) -> bool:
    """True iff |d| divides |s|^k for some k >= 0."""
    d, s = abs(d), abs(s)
    if d == 1:
        return True
    if s == 0:
        return True  # the localization at 0 is the zero ring
    g = gcd(d, s)
    while g > 1:
        while d % g == 0:
            d //= g
        g = gcd(d, s)
    return d == 1


def _json_int(obj) -> int:
    """An integer read from JSON.  A float or a string raises ValueError
    instead of being truncated or parsed by ``int()``; a bool reads as 0/1."""
    if not isinstance(obj, int):
        raise ValueError(f"integer expected, got {obj!r}")
    return int(obj)


def _split(code: int, base: int, count: int) -> list:
    """The ``count`` base-``base`` digits of ``code``, highest first."""
    out = [0] * count
    for k in range(count - 1, -1, -1):
        code, out[k] = divmod(code, base)
    return out


class RingValue:
    """An element of one ring of the tower, in canonical form.

    Values are immutable, hashable and compare by (ring, payload).
    Binary operators accept plain ints and coerce them through the ring.
    """

    __slots__ = ("ring", "payload")

    def __init__(self, ring: "Ring", payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *a):
        raise AttributeError("RingValue is immutable")

    def _coerce_other(self, other):
        if isinstance(other, RingValue):
            if other.ring != self.ring:
                raise DescriptorMismatch(
                    f"operands live in different rings: {self.ring} vs {other.ring}")
            return other.payload
        if isinstance(other, int):
            return self.ring.coerce(other).payload
        return NotImplemented

    def __add__(self, other):
        p = self._coerce_other(other)
        if p is NotImplemented:
            return NotImplemented
        return RingValue(self.ring, self.ring.add(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce_other(other)
        if p is NotImplemented:
            return NotImplemented
        return RingValue(self.ring, self.ring.sub(self.payload, p))

    def __rsub__(self, other):
        p = self._coerce_other(other)
        if p is NotImplemented:
            return NotImplemented
        return RingValue(self.ring, self.ring.sub(p, self.payload))

    def __mul__(self, other):
        p = self._coerce_other(other)
        if p is NotImplemented:
            return NotImplemented
        return RingValue(self.ring, self.ring.mul(self.payload, p))

    __rmul__ = __mul__

    def __neg__(self):
        return RingValue(self.ring, self.ring.neg(self.payload))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        return RingValue(self.ring, self.ring.power(self.payload, k))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.coerce(other)
        return (isinstance(other, RingValue) and other.ring == self.ring
                and other.payload == self.payload)

    def __hash__(self):
        return hash((self.ring.key(), self.payload))

    def __repr__(self):
        return f"{self.ring.render(self.payload)}"

    def is_zero(self) -> bool:
        return self.payload == self.ring.zero().payload

    def is_unit(self) -> bool:
        return self.ring.is_unit_payload(self.payload)

    def inverse(self) -> "RingValue":
        return RingValue(self.ring, self.ring.inverse_payload(self.payload))

    def to_json(self):
        return self.ring.value_to_json(self.payload)


class Ring:
    """Base class: a node of the constructor tower, acting as element factory.

    A ring owns its payload arithmetic and the two loops that every matrix
    and word kernel runs on payload rows: ``act``, the sparse column
    updates of generators, and ``products``, the entries of a product.
    Here they make one ``fma`` or one ``dot`` call per entry.  Z/n (and so
    F_p and the integer quotients mod n) inline the arithmetic into both
    loops; every other ring, Z and R[T] included, keeps these loops over its
    own ``fma`` and ``dot``.
    """

    kind = "?"
    is_local = False
    is_field = False
    residue_size = None  # kappa = |R/M| of a nonzero finite local ring
    integer_modulus = None  # n for Z/n in any descriptor, 0 for Z
    is_finite = False
    is_zero_ring = False
    characteristic = 0
    _zero = _one = _identities = None

    # -- identity of the descriptor --------------------------------------
    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return other is self or (isinstance(other, Ring)
                                 and other.key() == self.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return self.describe()

    def describe(self) -> str:
        raise NotImplementedError

    # -- canonical payloads ----------------------------------------------
    def canon(self, payload):
        raise NotImplementedError

    def coerce(self, x) -> RingValue:
        """Build a canonical element from payload-like input (always accepts int)."""
        if isinstance(x, RingValue):
            if x.ring != self:
                raise DescriptorMismatch("value from another ring")
            return x
        return RingValue(self, self.canon(x))

    def value(self, payload) -> RingValue:
        return RingValue(self, self.canon(payload))

    def zero(self) -> RingValue:
        """coerce(0), built once per ring instance; sharing the value is
        safe because a RingValue is immutable."""
        z = self._zero
        if z is None:
            z = self._zero = self.coerce(0)
        return z

    def one(self) -> RingValue:
        """coerce(1), built once per ring instance and shared like zero()."""
        o = self._one
        if o is None:
            o = self._one = self.coerce(1)
        return o

    def identity_rows(self, n: int) -> tuple:
        """The payload rows of the n x n identity, built once per ring
        instance and size and shared like zero(): a tuple of tuples."""
        grids = self._identities
        if grids is None:
            grids = self._identities = {}
        grid = grids.get(n)
        if grid is None:
            one, zero = self.one().payload, self.zero().payload
            grid = grids[n] = tuple(
                tuple(one if i == j else zero for j in range(n))
                for i in range(n))
        return grid

    # -- arithmetic on payloads ------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def power(self, a, k: int):
        """a^k over payloads, k >= 0, by square-and-multiply."""
        out = self.one().payload
        while k:
            out = self.mul(out, a) if k & 1 else out
            a, k = self.mul(a, a), k >> 1
        return out

    def dot(self, acc, xs, ys):
        """acc + sum(x * y) over payloads, one term at a time.  Z, Z/n
        (and so F_p) and R[T] over them override it with a fused sum."""
        add, mul = self.add, self.mul
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    def fma(self, a, c, x):
        """a + c * x over payloads."""
        return self.add(a, self.mul(c, x))

    def act(self, rows, gens):
        """Right-multiply rows of payloads by each generator in turn, in
        place: for each of its update triples (t, s, c), col_t += c * col_s,
        one ``fma`` per row whose source entry is nonzero.  Returns
        ``rows``."""
        fma, zero = self.fma, self.zero().payload
        for g in gens:
            for t, s, c in g._triples:
                for r in rows:
                    x = r[s]
                    if x != zero:
                        r[t] = fma(r[t], c, x)
        return rows

    def products(self, rows, cols, upper=False):
        """The entries of the product of ``rows`` by ``cols`` (the columns
        of the right factor, indexable), one ``dot`` each, as lists; with
        ``upper``, only row i's entries from column i on."""
        dot, zero = self.dot, self.zero().payload
        if upper:
            return [[dot(zero, x, y) for y in cols[i:]]
                    for i, x in enumerate(rows)]
        return [[dot(zero, x, y) for y in cols] for x in rows]

    def is_unit_payload(self, a) -> bool:
        raise NotImplementedError

    def inverse_payload(self, a):
        raise NotImplementedError

    def is_nilpotent_payload(self, a) -> bool:
        return a == self.zero().payload

    def render(self, payload) -> str:
        return str(payload)

    # -- enumeration / sampling ------------------------------------------
    def elements(self):
        raise UnsupportedRing(f"{self} is not finite")

    def cardinality(self) -> int:
        raise UnsupportedRing(f"{self} is not finite")

    def rank(self, payload):
        """The place of ``payload`` in the ring's one element order, counted
        from 0, or None unless it is a canonical payload; no finite ring
        builds a table of its elements for it."""
        raise UnsupportedRing(f"{self} is not finite")

    def unrank(self, r):
        """The payload of rank ``r``, for 0 <= r < cardinality()."""
        raise UnsupportedRing(f"{self} is not finite")

    def random(self, rng) -> RingValue:
        raise NotImplementedError

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        raise NotImplementedError

    def value_to_json(self, payload):
        raise NotImplementedError

    def value_from_json(self, obj) -> RingValue:
        raise NotImplementedError


class IntegerRing(Ring):
    kind = "int"
    integer_modulus = 0

    def key(self):
        return ("int",)

    def describe(self):
        return "Z"

    def canon(self, payload):
        if not isinstance(payload, int):
            raise DescriptorMismatch(f"integer payload expected, got {payload!r}")
        return int(payload)  # a bool is an int, but its JSON is not

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def dot(self, acc, xs, ys):
        return acc + sum(map(operator.mul, xs, ys))

    def fma(self, a, c, x):
        return a + c * x

    def is_unit_payload(self, a):
        return a in (1, -1)

    def inverse_payload(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not a unit in Z")

    def random(self, rng):
        return RingValue(self, rng.randint(-9, 9))

    def to_json(self):
        return {"kind": "int"}

    def value_to_json(self, payload):
        return payload

    def value_from_json(self, obj):
        return self.coerce(_json_int(obj))


class _Fractions(Ring):
    """The subrings of Q in the tower: payloads are lowest-terms Fractions.

    Q, Z_(p) and Z[1/s] share this arithmetic and differ only in the
    denominators they admit (``_admit``) and in which numerators make a
    nonzero element a unit (``_unit_numerator``).
    """

    _noun = "fraction"

    def _admit(self, q: Fraction):
        """Raise DescriptorMismatch unless q's denominator is admitted."""

    def _unit_numerator(self, num: int) -> bool:
        return True

    def canon(self, payload):
        if isinstance(payload, int):
            payload = Fraction(payload)
        if not isinstance(payload, Fraction):
            raise DescriptorMismatch(
                f"{self._noun} payload expected, got {payload!r}")
        self._admit(payload)
        return payload

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit_payload(self, a):
        return a != 0 and self._unit_numerator(a.numerator)

    def inverse_payload(self, a):
        if not self.is_unit_payload(a):
            raise NotAUnit(f"{a} is not a unit in {self}")
        return 1 / a

    def value_to_json(self, payload):
        return [payload.numerator, payload.denominator]

    def value_from_json(self, obj):
        if isinstance(obj, int):
            return self.coerce(obj)
        return self.coerce(Fraction(_json_int(obj[0]), _json_int(obj[1])))


class RationalField(_Fractions):
    kind = "rat"
    is_field = True
    is_local = True  # a field has a unique maximal ideal
    _noun = "rational"

    def key(self):
        return ("rat",)

    def describe(self):
        return "Q"

    def random(self, rng):
        return RingValue(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def to_json(self):
        return {"kind": "rat"}


class ModularRing(Ring):
    """Z/n with canonical residues in [0, n).  n = 1 is the zero ring."""

    kind = "mod"
    is_finite = True

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise UnsupportedRing(f"modulus must be a positive integer, got {n!r}")
        self.n = self.integer_modulus = n
        self.characteristic = n
        base = _prime_power_base(n)
        self.is_field = base == n
        self.is_zero_ring = n == 1
        self.is_local = n == 1 or base is not None
        self.residue_size = base

    def key(self):
        return ("mod", self.n)

    def describe(self):
        return f"Z/{self.n}"

    def canon(self, payload):
        if not isinstance(payload, int):
            raise DescriptorMismatch(f"residue payload expected, got {payload!r}")
        return payload % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def dot(self, acc, xs, ys):
        # lazy reduction (Dumas, Giorgi, Pernet, ACM TOMS 34, 2008): the
        # exact integer sum, reduced once; Python ints cannot overflow
        return (acc + sum(map(operator.mul, xs, ys))) % self.n

    def fma(self, a, c, x):
        return (a + c * x) % self.n

    def act(self, rows, gens):
        n = self.n
        for g in gens:
            for t, s, c in g._triples:
                for r in rows:
                    x = r[s]
                    if x:
                        r[t] = (r[t] + c * x) % n
        return rows

    def products(self, rows, cols, upper=False):
        # each entry lazily reduced, as in dot
        n, mul = self.n, operator.mul
        if upper:
            return [[sum(map(mul, x, y)) % n for y in cols[i:]]
                    for i, x in enumerate(rows)]
        return [[sum(map(mul, x, y)) % n for y in cols] for x in rows]

    def is_unit_payload(self, a):
        if self.is_zero_ring:
            return True
        return gcd(a, self.n) == 1

    def inverse_payload(self, a):
        if self.is_zero_ring:
            return 0
        if gcd(a, self.n) != 1:
            raise NotAUnit(f"{a} is not a unit mod {self.n}")
        return pow(a, -1, self.n)

    def is_nilpotent_payload(self, a):
        x = a % self.n
        for _ in range(self.n.bit_length()):
            x = (x * x) % self.n
        return x == 0

    def elements(self):
        return (RingValue(self, i) for i in range(self.n))

    def cardinality(self):
        return self.n

    def rank(self, payload):
        return payload if type(payload) is int and 0 <= payload < self.n \
            else None

    def unrank(self, r):
        return r

    def random(self, rng):
        return RingValue(self, rng.randrange(self.n))

    def to_json(self):
        return {"kind": "mod", "n": self.n}

    def value_to_json(self, payload):
        return payload

    def value_from_json(self, obj):
        return self.coerce(_json_int(obj))


class PrimeField(ModularRing):
    """F_p; same arithmetic as Z/p but a distinct descriptor kind."""

    kind = "prime"

    def __init__(self, p: int):
        # Z/p's own classification decides primality, so it runs once
        if isinstance(p, int) and p < 2:
            raise UnsupportedRing(f"{p} is not prime")
        super().__init__(p)
        if not self.is_field:
            raise UnsupportedRing(f"{p} is not prime")
        self.p = p

    def key(self):
        return ("prime", self.p)

    def describe(self):
        return f"F_{self.p}"

    def to_json(self):
        return {"kind": "prime", "p": self.p}


class LocalizedIntegers(_Fractions):
    """Z localized at the prime ideal (p): fractions with denominator coprime to p."""

    kind = "loc_int"
    is_local = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise UnsupportedRing(f"{p} is not prime")
        self.p = p

    def key(self):
        return ("loc_int", self.p)

    def describe(self):
        return f"Z_({self.p})"

    def _admit(self, q):
        if q.denominator % self.p == 0:
            raise DescriptorMismatch(
                f"{q} has denominator divisible by {self.p}")

    def _unit_numerator(self, num):
        return num % self.p != 0

    def coerce(self, x):
        return super().coerce(Fraction(*x) if isinstance(x, tuple) else x)

    def random(self, rng):
        den = rng.choice([d for d in range(1, 10) if d % self.p != 0])
        return RingValue(self, Fraction(rng.randint(-9, 9), den))

    def to_json(self):
        return {"kind": "loc_int", "p": self.p}


class FractionRing(_Fractions):
    """Z_s: integers with s inverted; denominators divide a power of |s|.

    Only the integer base is supported: canonical lowest-terms fractions
    make both membership and equality decidable there.
    """

    kind = "frac"

    def __init__(self, base: Ring, s):
        if not isinstance(base, IntegerRing):
            raise UnsupportedRing(
                "rings of fractions are supported over the integer base only")
        s_int = s.payload if isinstance(s, RingValue) else int(s)
        if s_int == 0:
            raise UnsupportedRing("cannot invert 0")
        self.base = base
        self.s = s_int

    def key(self):
        return ("frac", self.s)

    def describe(self):
        return f"Z[1/{self.s}]"

    def _admit(self, q):
        if not _divides_power(q.denominator, self.s):
            raise DescriptorMismatch(f"{q} does not lie in Z[1/{self.s}]")

    def _unit_numerator(self, num):
        return _divides_power(num, self.s)

    def coerce(self, x):
        if isinstance(x, RingValue) and isinstance(x.ring, IntegerRing):
            x = x.payload  # Z embeds in Z[1/s]
        return super().coerce(Fraction(*x) if isinstance(x, tuple) else x)

    def random(self, rng):
        k = rng.randrange(3)
        return RingValue(self, Fraction(rng.randint(-9, 9), abs(self.s) ** k or 1))

    def to_json(self):
        return {"kind": "frac", "base": self.base.to_json(),
                "s": self.base.value_to_json(self.s)}


class PolyExt(Ring):
    """R[T]: dense polynomials over a base ring of the tower.

    Payloads are tuples of base payloads, constant term first, trailing
    zeros stripped.  Degrees above ``degree_cap`` raise instead of
    truncating silently.

    Over Z and Z/n, in any descriptor (``integer_modulus``),
    ``mul`` and ``dot`` (and so matmul and the determinant over R[T]) are
    one fused path, ``_raw_sum``: one list holds the exact integer
    coefficient sums, each reduced mod n once, then trimmed once.  ``fma``
    there is its one-product case written out: one product, one reduction,
    one trim, with no per-coefficient call.  Horner evaluation
    (``_horner``) there is exact over Z and reduced mod n once.  Over every
    other base ``mul`` convolves through the base ring, and ``dot`` and
    ``fma`` are ``Ring``'s term-by-term ``add(acc, mul(x, y))``.  ``act``
    and ``products`` are always ``Ring``'s loops, one ``fma`` per update
    and one ``dot`` per entry.
    """

    kind = "poly"

    def __init__(self, base: Ring, var: str = "T",
                 degree_cap: int = DEFAULT_DEGREE_CAP):
        self.base = base
        self.var = var
        self.degree_cap = degree_cap
        self.characteristic = base.characteristic
        self.is_zero_ring = base.is_zero_ring
        # integer coefficients accumulate unreduced; 0 means none to reduce
        n = base.integer_modulus
        self._raw = n is not None
        self._modulus = n or 0

    def key(self):
        return ("poly", self.base.key(), self.var, self.degree_cap)

    def describe(self):
        cap = ("" if self.degree_cap == DEFAULT_DEGREE_CAP
               else f"; degree_cap={self.degree_cap}")
        return f"{self.base.describe()}[{self.var}{cap}]"

    def canon(self, payload):
        if isinstance(payload, int):
            payload = (self.base.coerce(payload).payload,)
        return self._trim([self.base.canon(c) for c in payload])

    def _trim(self, coeffs: list):
        """The payload of a list of canonical base payloads: trailing zeros
        stripped (in place), then the degree cap checked."""
        z = self.base.zero().payload
        while coeffs and coeffs[-1] == z:
            coeffs.pop()
        if len(coeffs) - 1 > self.degree_cap:
            raise DegreeCapExceeded(
                f"degree {len(coeffs) - 1} exceeds cap {self.degree_cap}")
        return tuple(coeffs)

    def coerce(self, x):
        if isinstance(x, RingValue):
            if x.ring == self:
                return x
            if x.ring == self.base:
                return RingValue(self, self.canon((x.payload,)))
            raise DescriptorMismatch("value from another ring")
        if isinstance(x, (list, tuple)):
            payload = []
            for c in x:
                if isinstance(c, RingValue):
                    if c.ring != self.base:
                        raise DescriptorMismatch("coefficient from another ring")
                    payload.append(c.payload)
                else:
                    payload.append(self.base.coerce(c).payload)
            return RingValue(self, self.canon(payload))
        if isinstance(x, int):
            return RingValue(self, self.canon(x))
        # a bare base payload acts as a constant polynomial
        return RingValue(self, self.canon((self.base.coerce(x).payload,)))

    def variable(self) -> RingValue:
        return RingValue(self, self.canon((self.base.zero().payload,
                                           self.base.one().payload)))

    def constant_term(self, a) -> RingValue:
        payload = a.payload if isinstance(a, RingValue) else a
        return RingValue(self.base,
                         payload[0] if payload else self.base.zero().payload)

    def add(self, a, b):
        n = max(len(a), len(b))
        z = self.base.zero().payload
        out = [self.base.add(a[i] if i < len(a) else z,
                             b[i] if i < len(b) else z) for i in range(n)]
        return self._trim(out)

    def _raw_sum(self, acc, pairs):
        """acc + sum(a * b for a, b in pairs) over Z and Z/n: exact integer
        coefficient sums, each reduced mod n once, then trimmed once.

        A product whose untrimmed degree exceeds the cap is reduced and
        trimmed on its own first, and raises if its degree still exceeds
        it, as the term-by-term loop does; every other summand stays within
        the cap, and so does the sum."""
        cap, n = self.degree_cap, self._modulus
        out = None
        for a, b in pairs:
            if not a or not b:
                continue
            if out is None:
                out = list(acc)
            size = len(a) + len(b) - 1
            dest = out if size <= cap + 1 else [0] * size
            if len(dest) < size:
                dest.extend([0] * (size - len(dest)))
            for i, ca in enumerate(a):
                if ca:
                    for k, cb in enumerate(b, i):
                        dest[k] += ca * cb
            if dest is not out:
                prod = self._trim([c % n for c in dest] if n else dest)
                if len(out) < len(prod):
                    out.extend([0] * (len(prod) - len(out)))
                for k, c in enumerate(prod):
                    out[k] += c
        if out is None:
            return acc
        if n:
            out = [c % n for c in out]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def mul(self, a, b):
        if self._raw:
            return self._raw_sum((), ((a, b),))
        if not a or not b:
            return ()
        add, mul = self.base.add, self.base.mul
        z = self.base.zero().payload
        out = [z] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca != z:
                for k, cb in enumerate(b, i):
                    out[k] = add(out[k], mul(ca, cb))
        return self._trim(out)

    def dot(self, acc, xs, ys):
        if self._raw:
            return self._raw_sum(acc, zip(xs, ys))
        return super().dot(acc, xs, ys)

    def fma(self, a, c, x):
        if not self._raw:
            return super().fma(a, c, x)
        if not c or not x:
            return a
        size = len(c) + len(x) - 1
        if size > self.degree_cap + 1:
            # raises unless the reduced product trims under the cap
            return self._raw_sum(a, ((c, x),))
        out = list(a)
        if len(out) < size:
            out.extend([0] * (size - len(out)))
        for i, cc in enumerate(c):
            if cc:
                for k, cx in enumerate(x, i):
                    out[k] += cc * cx
        n = self._modulus
        if n:
            out = [v % n for v in out]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def neg(self, a):
        return tuple(self.base.neg(c) for c in a)

    def is_unit_payload(self, a):
        # unit iff constant term is a unit and the higher coefficients
        # are nilpotent (e.g. 1 + 2T over Z/4)
        if self.is_zero_ring:
            return True
        if not a or not self.base.is_unit_payload(a[0]):
            return False
        return all(self.base.is_nilpotent_payload(c) for c in a[1:])

    def inverse_payload(self, a):
        if not self.is_unit_payload(a):
            raise NotAUnit(f"{self.render(a)} is not a unit in {self}")
        g0 = self.canon((self.base.inverse_payload(a[0]),))
        one = self.canon((self.base.one().payload,))
        h = self.sub(one, self.mul(a, g0))  # nilpotent
        acc, term = one, one
        for _ in range(4 * self.degree_cap + 4):
            term = self.mul(term, h)
            if not term:
                return self.mul(g0, acc)
            acc = self.add(acc, term)
        raise CgfError("power series inversion did not terminate")

    def is_nilpotent_payload(self, a):
        return all(self.base.is_nilpotent_payload(c) for c in a)

    def eval_at(self, a, t: RingValue) -> RingValue:
        """Horner evaluation of a payload at a base-ring point."""
        if t.ring != self.base:
            raise DescriptorMismatch("evaluation point from another ring")
        return RingValue(self.base, self._horner(a, t.payload))

    def _horner(self, a, t):
        """The base payload of a payload ``a`` at a base payload ``t``.
        Over Z and Z/n it is the exact integer Horner, reduced mod n once."""
        if self._raw:
            acc = 0
            for c in reversed(a):
                acc = acc * t + c
            n = self._modulus
            return acc % n if n else acc
        fma = self.base.fma
        acc = self.base.zero().payload
        for c in reversed(a):
            acc = fma(c, acc, t)
        return acc

    def compose_scale(self, a, b: RingValue):
        """Payload of f(b*T) for f with payload ``a``; b in the base ring."""
        if b.ring != self.base:
            raise DescriptorMismatch("scale from another ring")
        out = []
        power = self.base.one().payload
        for c in a:
            out.append(self.base.mul(c, power))
            power = self.base.mul(power, b.payload)
        return self.canon(out)

    def render(self, payload):
        if not payload:
            return "0"
        terms = []
        for i, c in enumerate(payload):
            cs = self.base.render(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"({cs}){self.var}")
            else:
                terms.append(f"({cs}){self.var}^{i}")
        return " + ".join(terms)

    def random(self, rng):
        deg = rng.randrange(3)
        return self.coerce([self.base.random(rng) for _ in range(deg + 1)])

    def to_json(self):
        out = {"kind": "poly", "base": self.base.to_json(), "var": self.var}
        if self.degree_cap != DEFAULT_DEGREE_CAP:
            out["degree_cap"] = self.degree_cap
        return out

    def value_to_json(self, payload):
        return [self.base.value_to_json(c) for c in payload]

    def value_from_json(self, obj):
        if isinstance(obj, int):
            return self.coerce(obj)
        return self.coerce([self.base.value_from_json(c) for c in obj])


def _poly_divmod_field(num, den, field: Ring):
    """Division with remainder in F[x] for a field F; payload tuples."""
    num = list(num)
    dlead = den[-1]
    dinv = field.inverse_payload(dlead)
    deg_d = len(den) - 1
    quo = [field.zero().payload] * max(0, len(num) - deg_d)
    while len(num) - 1 >= deg_d and num:
        shift = len(num) - 1 - deg_d
        q = field.mul(num[-1], dinv)
        quo[shift] = q
        for i, c in enumerate(den):
            num[shift + i] = field.sub(num[shift + i], field.mul(q, c))
        while num and num[-1] == field.zero().payload:
            num.pop()
    return tuple(quo), tuple(num)


def _poly_xgcd_field(a, b, poly: PolyExt):
    """Extended gcd in F[x] = ``poly`` over a field; returns (g, u, v) with
    u*a + v*b = g."""
    zero, one = (), (poly.base.one().payload,)
    r0, r1 = tuple(a), tuple(b)
    u0, u1 = one, zero
    v0, v1 = zero, one
    while r1:
        q, r = _poly_divmod_field(r0, r1, poly.base)
        r0, r1 = r1, r
        u0, u1 = u1, poly.sub(u0, poly.mul(q, u1))
        v0, v1 = v1, poly.sub(v0, poly.mul(q, v1))
    return r0, u0, v0


class _PolyRemainders(Ring):
    """F[x]/(f) on payloads, for a field F and a monic f of degree >= 1:
    remainders modulo f.  The arithmetic of a polynomial ``QuotientRing``,
    whose description it carries for its messages."""

    def __init__(self, poly: PolyExt, f, name: str):
        self.poly, self.field, self.f, self.name = poly, poly.base, f, name
        self.is_finite = poly.base.is_finite
        self.characteristic = poly.characteristic
        # x^d = -(f - x^d) modulo f; only f's nonzero lower terms act
        z = self.field.zero().payload
        self._tail = tuple((i, self.field.neg(c))
                           for i, c in enumerate(f[:-1]) if c != z)

    def describe(self):
        return self.name

    def _reduce(self, payload):
        """The remainder of a trimmed payload modulo the monic f: from the
        top, each coefficient c of x^k, k >= d = deg f, is dropped and
        c x^(k-d) (x^d - f) added.  With no nonzero lower term (f = x^e)
        this is truncation."""
        d = len(self.f) - 1
        if len(payload) <= d:
            return payload
        add, mul, z = self.field.add, self.field.mul, self.field.zero().payload
        out = list(payload)
        for k in range(len(out) - 1, d - 1, -1):
            c = out.pop()
            if c != z:
                for i, t in self._tail:
                    out[k - d + i] = add(out[k - d + i], mul(c, t))
        while out and out[-1] == z:
            out.pop()
        return tuple(out)

    def canon(self, payload):
        return self._reduce(self.poly.canon(payload))

    def add(self, a, b):
        return self._reduce(self.poly.add(a, b))

    def mul(self, a, b):
        return self._reduce(self.poly.mul(a, b))

    def neg(self, a):
        return self._reduce(self.poly.neg(a))

    def is_unit_payload(self, a):
        g, _, _ = _poly_xgcd_field(a, self.f, self.poly)
        return len(g) == 1

    def inverse_payload(self, a):
        g, u, _ = _poly_xgcd_field(a, self.f, self.poly)
        if len(g) != 1:
            raise NotAUnit(f"{self.render(a)} is not a unit in {self}")
        scale = self.field.inverse_payload(g[0])
        return self._reduce(tuple(self.field.mul(c, scale) for c in u))

    def is_nilpotent_payload(self, a):
        x = a
        for _ in range(len(self.f).bit_length() + 2):
            x = self.mul(x, x)
        return x == ()

    def _primary_flags(self) -> tuple:
        """(is_local, is_field, residue_size), by distinct-degree
        factorization over a finite field of q elements: the first
        nonconstant h_i = gcd(x^(q^i) - x, f) is the product of f's
        irreducible factors of the least degree i.  F[x]/(f) is local iff f
        is a power of one irreducible, that is deg h_i = i and f a power of
        h_i, with residue field F[x]/(h_i) of q^i elements, and a field iff
        also h_i = f.  Over an infinite field, (False, False, None)."""
        field, poly, f = self.field, self.poly, self.f
        if not field.is_finite:
            return False, False, None
        x = self.canon((field.zero().payload, field.one().payload))
        q, xq, i, h = field.cardinality(), x, 0, ()
        while len(h) < 2:
            i, xq = i + 1, self.power(xq, q)
            h = _poly_xgcd_field(poly.sub(xq, x), f, poly)[0]
        local, rest = len(h) == i + 1, f
        while local and len(rest) > 1:
            rest, r = _poly_divmod_field(rest, h, field)
            local = not r
        return local, local and len(h) == len(f), q ** i if local else None

    def elements(self):
        if not self.field.is_finite:
            raise UnsupportedRing(f"{self} is not finite")
        coeffs = [v.payload for v in self.field.elements()]
        return (RingValue(self, self.canon(combo)) for combo in
                itertools.product(coeffs, repeat=len(self.f) - 1))

    def cardinality(self):
        return self.field.cardinality() ** (len(self.f) - 1)

    @cached_property
    def _coefficients(self) -> tuple:
        """The field's payloads in the order Python compares them, which
        need not be the field's rank order, and the place of each in it by
        its field rank: the digits of ``rank``.  Over Z/p, in any
        descriptor, both are the residues 0..p-1 in order, with nothing
        listed or sorted."""
        field = self.field
        if n := field.integer_modulus:
            return range(n), range(n)
        ordered = sorted(v.payload for v in field.elements())
        # zero, 0 or (), is the least payload, so a nonzero last digit is >= 1
        assert ordered[0] == field.zero().payload
        place = [0] * len(ordered)
        for d, c in enumerate(ordered):
            place[field.rank(c)] = d
        return ordered, place

    def rank(self, payload):
        """Remainders by length, then by their coefficients, lowest degree
        first, each compared as a payload: over a field of q elements,
        q^(L-1) remainders are shorter than one of length L >= 1, and the
        last of its L coefficients is nonzero."""
        ordered, place = self._coefficients  # an infinite field raises
        if type(payload) is not tuple or len(payload) >= len(self.f):
            return None
        if not payload:
            return 0
        q, digit, code = len(ordered), self.field.rank, 0
        for c in payload:
            if (d := digit(c)) is None:
                return None
            code = code * q + place[d]
        head, last = divmod(code, q)
        if not last:
            return None  # a trailing zero
        return q ** (len(payload) - 1) + head * (q - 1) + last - 1

    def unrank(self, r):
        ordered = self._coefficients[0]
        if not r:
            return ()
        q, length, shorter = len(ordered), 1, 1
        while shorter * q <= r:
            length, shorter = length + 1, shorter * q
        head, last = divmod(r - shorter, q - 1)
        return tuple([ordered[d] for d in _split(head, q, length - 1)]
                     + [ordered[last + 1]])

    def random(self, rng):
        return RingValue(self, self.canon(tuple(
            self.field.random(rng).payload for _ in range(len(self.f) - 1))))

    def render(self, payload):
        return self.poly.render(payload)

    def value_to_json(self, payload):
        return self.poly.value_to_json(payload)


class TruncatedPolyLocal(_PolyRemainders):
    """F_p[x]/(x^e): a local ring with nilpotents for e > 1, computed as
    F_p[x] mod x^e on ``_PolyRemainders``.

    Payloads are coefficient tuples (constant term first) of length at most
    e with trailing zeros stripped; the empty tuple is zero.  The ring keeps
    its own descriptor, JSON, rendering and element order (``rank`` pads
    to e), truncates instead of rejecting longer input, and reads units and
    nilpotents off the constant term.
    """

    kind = "polyloc"
    is_local = True

    def __init__(self, p: int, e: int):
        field = PrimeField(p)
        if e < 1:
            raise UnsupportedRing("truncation exponent must be >= 1")
        self.p = p
        self.e = e
        self.is_field = e == 1
        self.residue_size = p
        # a product of two remainders has degree up to 2e - 2
        super().__init__(PolyExt(field, "x", degree_cap=2 * e),
                         (0,) * e + (1,), self.describe())

    def key(self):
        return ("polyloc", self.p, self.e)

    def describe(self):
        return f"F_{self.p}[x]/(x^{self.e})"

    def canon(self, payload):
        if isinstance(payload, int):
            payload = (payload,)
        coeffs = [self.field.canon(c) for c in payload[:self.e]]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def coerce(self, x):
        if not isinstance(x, (RingValue, list, tuple, int)):
            raise DescriptorMismatch(f"cannot coerce {x!r} into {self}")
        return super().coerce(x)

    def is_unit_payload(self, a):
        return bool(a) and a[0] != 0

    def is_nilpotent_payload(self, a):
        return not a or a[0] == 0

    def rank(self, payload):
        """The coefficients padded to e, constant term first, read as base-p
        digits, most significant first."""
        if type(payload) is not tuple or len(payload) > self.e or \
                payload[-1:] == (0,):
            return None
        p, code = self.p, 0
        for c in payload:
            if type(c) is not int or not 0 <= c < p:
                return None
            code = code * p + c
        return code * p ** (self.e - len(payload))

    def unrank(self, r):
        coeffs = _split(r, self.p, self.e)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def render(self, payload):
        if not payload:
            return "0"
        terms = []
        for i, c in enumerate(payload):
            if c == 0:
                continue
            terms.append(str(c) if i == 0 else (f"{c}x^{i}" if i > 1 else f"{c}x"))
        return "+".join(terms)

    def to_json(self):
        return {"kind": "polyloc", "p": self.p, "e": self.e}

    def value_from_json(self, obj):
        if isinstance(obj, int):
            return self.coerce(obj)
        return self.coerce([_json_int(c) for c in obj])


class QuotientRing(Ring):
    """R/I for the decidable ideal shapes of the tower: a quotient
    descriptor over the ring ``residues`` that does its arithmetic.

    Over an integer-style base (Z, Z/n, a prime field) with any finite
    generating set, R/I is Z/m for m = gcd(n, gens), and the quotient is
    Z/m's arithmetic under a quotient descriptor: ``residues`` is
    ``ModularRing(m)``, or ``IntegerRing()`` when m = 0.  Over R[x] for a
    field R, with one generator whose leading coefficient is a unit, the
    payloads are remainders modulo its monic associate.  Every payload
    operation and flag is the residue ring's own; the quotient keeps the
    descriptor and the value JSON, re-boxes elements and samples, and maps
    values along ``project`` and ``lift``.
    """

    kind = "quot"

    def __init__(self, base: Ring, gens):
        self.base = base
        payloads = []
        for g in gens:
            if isinstance(g, RingValue):
                if g.ring != base:
                    raise DescriptorMismatch("ideal generator from another ring")
                payloads.append(g.payload)
            else:
                payloads.append(base.coerce(g).payload)
        self.gens = tuple(payloads)

        if isinstance(base, (IntegerRing, ModularRing)):
            # 0 means the quotient by the zero ideal of Z
            self.modulus = gcd(base.characteristic, *payloads)
            residues = (ModularRing(self.modulus) if self.modulus
                        else IntegerRing())
        elif isinstance(base, PolyExt) and base.base.is_field:
            if len(payloads) != 1:
                raise UnsupportedQuotient(
                    "polynomial quotients take a single generator")
            f = payloads[0]
            if len(f) < 2:
                raise UnsupportedQuotient(
                    "polynomial quotient generator must have degree >= 1")
            if not base.base.is_unit_payload(f[-1]):
                raise UnsupportedQuotient(
                    "generator needs a unit leading coefficient")
            lc_inv = base.base.inverse_payload(f[-1])
            self.modulus = tuple(base.base.mul(c, lc_inv) for c in f)  # monic
            residues = _PolyRemainders(base, self.modulus, self.describe())
            (residues.is_local, residues.is_field,
             residues.residue_size) = residues._primary_flags()
        else:
            raise UnsupportedQuotient(
                f"quotients of {base} are not supported")
        self.residues = residues
        for name in ("canon", "add", "sub", "mul", "neg", "dot", "fma",
                     "act", "products", "is_unit_payload", "inverse_payload",
                     "is_nilpotent_payload", "cardinality", "rank", "unrank",
                     "render", "value_to_json", "is_finite", "is_field",
                     "is_local", "is_zero_ring", "characteristic",
                     "residue_size", "integer_modulus"):
            setattr(self, name, getattr(residues, name))

    def key(self):
        return ("quot", self.base.key(), self.gens)

    def describe(self):
        gs = ",".join(self.base.render(g) for g in self.gens)
        return f"{self.base.describe()}/({gs})"

    def coerce(self, x):
        if isinstance(x, RingValue):
            if x.ring == self:
                return x
            if x.ring != self.base:
                raise DescriptorMismatch("value from another ring")
            return self.project(x)
        return self.project(self.base.coerce(x))

    def project(self, v: RingValue) -> RingValue:
        """Image of a base-ring element in the quotient."""
        if v.ring != self.base:
            raise DescriptorMismatch("projection expects a base-ring value")
        return RingValue(self, self.canon(v.payload))

    def lift(self, v: RingValue) -> RingValue:
        """The canonical representative of a residue, as a base-ring element."""
        if v.ring != self:
            raise DescriptorMismatch("lift expects a quotient value")
        return RingValue(self.base, self.base.canon(v.payload))

    def elements(self):
        return (RingValue(self, v.payload) for v in self.residues.elements())

    def random(self, rng):
        return RingValue(self, self.residues.random(rng).payload)

    def to_json(self):
        return {"kind": "quot", "base": self.base.to_json(),
                "gens": [self.base.value_to_json(g) for g in self.gens]}

    def value_from_json(self, obj):
        return self.project(self.base.value_from_json(obj))


# ---------------------------------------------------------------------------
# descriptor serialization

def ring_from_json(obj: dict) -> Ring:
    kind = obj.get("kind")
    if kind == "int":
        return IntegerRing()
    if kind == "rat":
        return RationalField()
    if kind == "mod":
        return ModularRing(_json_int(obj["n"]))
    if kind == "prime":
        return PrimeField(_json_int(obj["p"]))
    if kind == "polyloc":
        return TruncatedPolyLocal(_json_int(obj["p"]), _json_int(obj["e"]))
    if kind == "loc_int":
        return LocalizedIntegers(_json_int(obj["p"]))
    if kind == "poly":
        return PolyExt(ring_from_json(obj["base"]), obj.get("var", "T"),
                       _json_int(obj.get("degree_cap", DEFAULT_DEGREE_CAP)))
    if kind == "frac":
        base = ring_from_json(obj["base"])
        s = base.value_from_json(obj["s"])
        return FractionRing(base, s)
    if kind == "quot":
        base = ring_from_json(obj["base"])
        gens = [base.value_from_json(g) for g in obj["gens"]]
        return QuotientRing(base, gens)
    raise UnsupportedRing(f"unknown ring kind {kind!r}")


# ---------------------------------------------------------------------------
# the operation surface

def arith(a: RingValue, b: RingValue, op: str) -> RingValue:
    """add / sub / mul of two elements sharing a descriptor."""
    if not isinstance(a, RingValue) or not isinstance(b, RingValue):
        raise DescriptorMismatch("arith expects ring values")
    if a.ring != b.ring:
        raise DescriptorMismatch(f"{a.ring} vs {b.ring}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def is_unit(a: RingValue) -> bool:
    return a.is_unit()


def inverse(a: RingValue) -> RingValue:
    return a.inverse()


def substitute(f: RingValue, t: RingValue) -> RingValue:
    """Evaluate a polynomial-ring element at a base-ring point."""
    if not isinstance(f.ring, PolyExt):
        raise DescriptorMismatch(f"{f.ring} is not a polynomial ring")
    return f.ring.eval_at(f.payload, t)


def localize_denominator_check(a: RingValue, allowed) -> bool:
    """True iff ``a`` has a representative whose denominator is a power of
    ``allowed`` (up to sign).  Accepts fraction-ring values and polynomials
    over a fraction ring (checked coefficientwise)."""
    if isinstance(allowed, RingValue):
        p = allowed.payload
        allowed = p if isinstance(p, int) else (
            p.numerator if p.denominator == 1 else None)
        if allowed is None:
            raise DescriptorMismatch("allowed denominator must be integral")
    allowed = int(allowed)
    ring = a.ring
    if isinstance(ring, PolyExt):
        base = ring.base
        if not isinstance(base, (FractionRing, LocalizedIntegers, IntegerRing,
                                 RationalField)):
            raise UnsupportedRing(f"no denominator structure in {base}")
        return all(_divides_power(c.denominator, allowed) for c in a.payload)
    if isinstance(ring, (FractionRing, LocalizedIntegers, RationalField)):
        return _divides_power(a.payload.denominator, allowed)
    if isinstance(ring, IntegerRing):
        return True
    raise UnsupportedRing(f"no denominator structure in {ring}")


def has_half(ring: Ring) -> bool:
    """Whether 1/2 exists in the ring."""
    one = ring.one().payload
    return ring.is_unit_payload(ring.add(one, one))


def _xgcd(a: int, b: int):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0, any signs of a, b."""
    if b == 0:
        return (-a, -1, 0) if a < 0 else (a, 1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def _xgcd_chain(ints):
    """(g, coeffs) with sum(coeffs[i] * ints[i]) = g = gcd(ints) >= 0."""
    g = 0
    coeffs: list[int] = []
    for x in ints:
        g_new, u, w = _xgcd(g, x)
        coeffs = [c * u for c in coeffs] + [w]
        g = g_new
    return g, coeffs


def unit_ideal_witness(ring: Ring, values):
    """Coefficients c_i with sum(c_i * v_i) = 1, or None if (v_i) != (1)."""
    return ideal_combination(ring, values, ring.one())


def ideal_combination(ring: Ring, gens, target):
    """Coefficients q_i with sum(q_i * g_i) = target, or None.

    Supported: Z and Z/n in any descriptor via Bezout, local rings (a unit
    entry), and small finite rings by exhaustive search.
    """
    gens = list(gens)
    if not gens:
        return None if not target.is_zero() else []
    if ring.is_zero_ring:
        return [ring.zero() for _ in gens]
    n = ring.integer_modulus
    if n is not None:
        ints = [int(g.payload) for g in gens]
        t = int(target.payload)
        acc_g, acc_coeffs = _xgcd_chain(ints)  # sum c_i g_i = acc_g >= 0
        if n:
            g_mod, u, _ = _xgcd(acc_g, n)  # u * acc_g = g_mod (mod n)
            if t % g_mod != 0:
                return None
            scale = (t // g_mod) * u
            return [ring.coerce(c * scale) for c in acc_coeffs]
        if acc_g == 0:
            return [ring.zero() for _ in gens] if t == 0 else None
        if t % acc_g != 0:
            return None
        scale = t // acc_g
        return [ring.coerce(c * scale) for c in acc_coeffs]
    if ring.is_local:
        for i, g in enumerate(gens):
            if g.is_unit():
                out = [ring.zero() for _ in gens]
                out[i] = g.inverse() * target
                return out
        return None
    if ring.is_finite and ring.cardinality() ** len(gens) <= 10 ** 5:
        zero, payloads = ring.zero().payload, [g.payload for g in gens]
        for combo in itertools.product(list(ring.elements()),
                                       repeat=len(gens)):
            if ring.dot(zero, [c.payload for c in combo],
                        payloads) == target.payload:
                return list(combo)
        return None
    raise UnsupportedRing(f"no ideal membership solver for {ring}")
