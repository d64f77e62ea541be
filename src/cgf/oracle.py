"""Brute-force certification over tiny finite rings: exhaustive BFS orbits
of the right generator action on rows and frames, with predecessor links so
any claimed equivalence can be re-derived as an explicit path word.

Determinism: objects are enumerated in key order (a row domain is built
in increasing code order, so it needs no sort), generators are ordered by
(i, j, parameter rank), and when several frontier edges reach the same new
object the lowest-ordered (parent, generator) pair wins: the frontier is
kept in key order, so that pair proposes it first.

A table is kept on integer codes (the numbering of points in orbit
algorithms; Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, section 4.1).  An entry's digit is its rank, the ring's
one element order, which ``ring.rank`` and ``ring.unrank`` give in closed
form over every finite ring, so no codec holds a table of the q elements;
a key's entries, row by row, are the digits of one base-q integer, most
significant first, so integer order is key order.  A row is unimodular
iff it lies in no maximal ideal M, one per local part of the finite ring
(``Ring.local_parts``), so a row domain is built as the complement of the
rows over each M: their codes, the product of M's ranks, come out
increasing, and the domain is the ranges between the merged codes.

A row table's BFS starts from its whole domain, which the generators keep
(a code outside it, a codec defect, is refused when it is committed).
Each orbit stops expanding once every object of a counted set that must
hold it is reached, by it or by an earlier orbit.  The generators keep the
set, so the orbit lies inside it (the orbit-invariant argument of Holt,
Eick and O'Brien, section 4.1): a later edge could only propose an object
already reached, and the first proposal stands, so the table is the full
BFS's.  A row table's sets (``_counted_sets``) are its domain for lin and
sp rows, and the domain's level sets of Q(v) = v_1 v_2 + v_3 v_4 + ...
for orth rows, Q computed on digits, which right multiplication keeps
since a phi a^t = phi; they bound an orbit from above, so they only stop
a BFS early and refuse nothing.  A frame table is one orbit, that of the
standard frame, and its one set is that orbit wherever its size is proven
(``_frame_orbit_count``: lin, one-row sp and sp of whole pairs over a
finite local ring, orth of size 4 and up of one row over such a ring with
a residue field of odd order and square over a field of odd order, and
each of these over any finite ring as the product over its local parts);
every other frame runs to the end.  That size, or else a lower bound
(``_frame_orbit_exponent``), also refuses an oversized frame table before
its catalog exists, and over the zero ring, where every table is one
object, one of more entries than the budget is refused
(``_check_entries``).

A catalog with no (i, j) pair (lin of size 1, orth of size 2, the zero
ring) lists no parameter, and a frame table with none is its standard
frame alone, with no count.  The catalog checks each (i, j) once.  A generator acts on each row alone,
(V.g)_k = V_k.g, so it compiles on one row into updates from
``Generator._triples``: one whose source digit x is nonzero adds
(rank(a + x*c) - a) * q^k, a being the target digit.  A row code expands
by runs of generators on the same positions, one run per (i, j), in
catalog order, so the tie rule needs no sort; a run whose sources are all
zero is skipped.  A run compiles its first member and reads the others'
coefficient ranks off their triples.  A row (or a frame of one row) skips
the single-update runs on a target t whose line through t it has swept:
a run of one update over every nonzero parameter, from a unit source,
links every point that differs from the row at t alone, so later runs on
t, from the row or from any other point of the line, could only propose
points already linked (``_Codec.expander``).  A frame of several rows
memoizes, per (row position, row code), the row's delta under every
generator.  The table's links hold every object reached or proposed, so an
image is proposed (linked and listed) only if it is not there, one lookup,
and the first proposal stands; each level sorts its list of fresh codes
into the next frontier.  Digits come from two memoized half codes, and the
rows rank(a + .) and rank(x * .) of an entry are built with the first half
that holds it.

When the BFS ends its code dicts are the table, with nothing decoded; the
payload-keyed ``orbit_of``, ``pred`` and ``reps`` are read-only views,
built together on first read, which decodes each object once and each
distinct row once.  ``to_json`` writes objects in code order, which is key
order, each distinct row's JSON built once from the JSON of its ranks.

The link check of a loaded table and the path check of
``certify_equivalence`` share no code with the BFS they check: they act on
payload rows through the ring's word kernel ``ring.act``, the one every
word evaluation uses (inlined over Z/n, ``Ring``'s fma loop elsewhere).
``OrbitTable.from_json`` maps each distinct JSON entry to its rank once,
and each distinct row of other entries to its code once, keyed by its
repr, so a parent read again costs a lookup; it builds each distinct link
generator once, and checks each link on the rows its JSON gives.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import Counter
from functools import cache, cached_property
from types import MappingProxyType

from .errors import (BadIndices, DescriptorMismatch, ObjectOutOfDomain,
                     SearchBudgetExceeded, ShapeMismatch, UnsupportedRing,
                     WitnessCheckFailed)
from .matrices import Mat
from .rings import (Ring, RingValue, _json_int, _split, has_half,
                    ring_from_json)
from .words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator, GenWord,
                    _gen, paired_index)

FORMAT_VERSION = 1
DEFAULT_BUDGET = 10 ** 7


def _row_domain(codec: "_Codec") -> list:
    """The codes of every unimodular row of the codec's width, increasing:
    the complement of the rows inside a maximal ideal (see the module
    docstring), one per local part of the ring (``Ring.local_parts``).  The
    zero ring has none, so its one row stays; over a nonzero ring the empty
    row lies in every maximal ideal, so a domain of width 0 is empty
    without the parts."""
    q, n = codec.q, codec.width
    if not n and q > 1:
        return []
    ideals = [ideal() for _, _, ideal in codec.ring.local_parts()]
    inside = []  # per ideal, the codes of its rows, increasing
    for ranks in ideals:
        codes = [0]
        for _ in range(n):
            codes = [c + r for c in map(q.__mul__, codes) for r in ranks]
        inside.append(codes)
    out, start = [], 0
    for code in heapq.merge(*inside):  # a code in two ideals comes twice
        out.extend(range(start, code))
        start = code + 1
    out.extend(range(start, q ** n))
    return out


def _capped_power(q: int, size: int, cap: int) -> int:
    """q ** size if it is at most ``cap``, else some q ** j past ``cap``,
    j <= size: for q >= 2 the product passes ``cap`` within about
    log_q(cap) + 1 steps, so q ** size is never formed."""
    if q <= 1:
        return q ** min(size, 1)  # 0 ** 0 == 1 ** size == 1
    count = 1
    for _ in range(size):
        if count > cap:
            break
        count *= q
    return count


def _capped_product(factors, cap: int) -> int:
    """The product of ``factors``, each an int >= 1 that is exact or past
    ``cap`` (a ``_capped_power``), or the partial product that first
    passes ``cap``, before any later factor is formed.  It passes ``cap``
    iff the product of the exact factors does."""
    count = 1
    for factor in factors:
        count *= factor
        if count > cap:
            break
    return count


def _check_entries(q: int, entries: int, budget: int):
    """Refuse an object of more than ``budget`` entries over the zero ring
    (q = 1), before anything is built: there every table is one object,
    whose length no count of objects bounds.  For q >= 2 a row of more
    than ``budget`` entries has q^size > budget objects, refused already;
    the rule would refuse otherwise only the one-object frame tables (lin
    of size 1, orth of size 2) at a budget below their 1 to 4 entries."""
    if q == 1 and entries > budget:
        raise SearchBudgetExceeded(
            f"an object of {entries} entries exceeds budget {budget}")


def _check_paired_size(family: str, size: int):
    """The paired families need an even size, also where the catalog would
    be empty."""
    if family in (FAMILY_SP, FAMILY_ORTH) and size % 2:
        raise BadIndices(f"{family} generators need even size")


def _frame_orbit_exponent(ring: Ring, family: str, size: int,
                          frame_rows: int) -> int:
    """k with q^k at most the size of the orbit of the standard frame
    [I_r | 0] of r = ``frame_rows`` rows and s = ``size`` columns, q = |R|.

    lin: let L and U be lower and upper unitriangular r x r matrices, and
    E(Z) the product of the e_ij(z) with i <= r < j, Z the r x (s - r)
    matrix of their z.  With L and U acting on the first r columns,
    [I_r | 0] L U E(Z) = [LU | LUZ].  LU is invertible and its factors are
    unique, so distinct (L, U, Z) give distinct frames, over any ring:
    q^(r(r - 1) + r(s - r)) of them, k = r(s - 1).  sp and orth, s = 2m
    and P = ceil(r/2): take i <= r and j odd with j > 2P.  Each generator's
    partner update adds column j+1, which no such generator touches, so it
    stays zero, and the products reach every frame whose columns j are any
    vectors: k = r(m - P), and k >= 1 wherever the catalog has an (i, j)
    pair: then it has e_1j(c), which takes the standard frame to q
    distinct frames, as row 1 gets c at column j.  Otherwise k = 0, and the
    catalog raises: an unknown family, or orth without 1/2."""
    r = frame_rows
    if family == FAMILY_LIN:
        return r * (size - 1)
    if family == FAMILY_SP or family == FAMILY_ORTH and has_half(ring):
        return max(r * (size // 2 - (r + 1) // 2),
                   int(_has_pairs(ring, family, size)))
    return 0


def _frame_orbit_count(ring: Ring, family: str, size: int, frame_rows: int,
                       cap: int):
    """The number of frames in the orbit of the standard frame [I_r | 0],
    r = ``frame_rows`` and s = ``size``, where it is proven, as a
    ``_capped_product`` (a number past ``cap`` stands for any count past
    it); None elsewhere.  Over a finite local ring it is the product of
    ``_local_frame_factors``, and over any finite ring R = R_1 x ... x R_k
    (``Ring.local_parts``) the product of those over each R_i: a generator
    acts on each factor alone, and with a parameter that is 0 in all but
    one factor it acts on that one alone, so the orbit is the product of
    the local orbits."""
    factors = [_local_frame_factors(q, kappa, family, size, frame_rows, cap)
               for q, kappa, _ in ring.local_parts()]
    return None if None in factors else _capped_product(
        itertools.chain.from_iterable(factors), cap)


def _local_frame_factors(q: int, kappa: int, family: str, size: int,
                         frame_rows: int, cap: int):
    """The factors, each exact or past ``cap``, of the orbit's size over a
    finite local ring of q elements with kappa = |R/M|, a product's many
    factors formed lazily; None where no size is proven.

    lin: SL_s(R) = E_s(R) and, for r < s, acts transitively on the r x s
    frames whose rows are independent mod M: (q/kappa)^(rs) prod_{i<r}
    (kappa^s - kappa^i) of them.  At r = s the orbit is SL_s(R), that count
    over |R*| = (q/kappa)(kappa - 1).  sp, r = 1: Ep_2m acts transitively
    on the unimodular rows, as lin at r = 1 does, |Um_s| of them.  sp, r =
    2k and j = m - k: Ep_2m = Sp_2m, which by Witt's theorem acts
    transitively on the frames of k hyperbolic pairs, fixing the standard
    one on Sp_2j, and |Sp_2m(R)| = (q/kappa)^(m(2m+1)) |Sp_2m(kappa)|: the
    orbit has |Sp_2m(R)| / |Sp_2j(R)| = (q/kappa)^(m(2m+1) - j(2j+1))
    kappa^(m^2 - j^2) prod_{j<i<=m} (kappa^(2i) - 1) frames.  orth, kappa
    odd and s = 2m >= 4: at r = 1, EO_2m acts transitively on the
    unimodular rows with Q(v) = v_1 v_2 + v_3 v_4 + ... = 0; mod M they are
    the (kappa^m - 1)(kappa^(m-1) + 1) nonzero isotropic vectors, and each
    lifts to (q/kappa)^(2m-1) rows, Q having a unit partial derivative at a
    unimodular row.  At r = s over a finite field the orbit of I is
    EO_2m(F_q) = Omega+_2m(q), of index 2 in SO+_2m(q) (D. E. Taylor, *The
    Geometry of the Classical Groups*, 1992): q^(m(m-1)) (q^m - 1)
    prod_{0<i<m} (q^(2i) - 1) / 2 frames, the half taken of q^m - 1, which
    is even, and only while it is exact."""
    r, s, m, j = frame_rows, size, size // 2, (size - frame_rows) // 2
    if family == FAMILY_LIN or family == FAMILY_SP and r == 1:
        # prod_{i<r} (kappa^s - kappa^i) = kappa^(r(r-1)/2) prod (kappa^(s-i)
        # - 1); at r = s the last factor, kappa - 1, goes with |R*|
        square = int(r == s)
        return itertools.chain(
            (_capped_power(q // kappa, r * s - square, cap),
             _capped_power(kappa, r * (r - 1) // 2, cap)),
            (_capped_power(kappa, s - i, cap + 1) - 1
             for i in range(r - square)))
    if family == FAMILY_SP and r % 2 == 0:
        return itertools.chain(
            (_capped_power(q // kappa, m * (2 * m + 1) - j * (2 * j + 1), cap),
             _capped_power(kappa, m * m - j * j, cap)),
            (_capped_power(kappa, 2 * i, cap + 1) - 1
             for i in range(j + 1, m + 1)))
    if family != FAMILY_ORTH or kappa % 2 == 0 or s < 4:
        return None
    if r == 1:
        return (_capped_power(q // kappa, s - 1, cap),
                _capped_power(kappa, m, cap + 1) - 1,
                _capped_power(kappa, m - 1, cap) + 1)
    if r == s and q == kappa:
        # q^m - 1 is exact up to 2 cap + 1, and past that its half passes cap
        return itertools.chain(
            (_capped_power(q, m * (m - 1), cap),
             (_capped_power(q, m, 2 * cap + 2) - 1) // 2),
            (_capped_power(q, 2 * i, cap + 1) - 1 for i in range(1, m)))
    return None


def _has_pairs(ring: Ring, family: str, size: int) -> bool:
    """Whether the catalog has an (i, j) pair, found in closed form: none
    over the zero ring, which has no nonzero parameter, or below size 2;
    for orth none below size 4, as (1, 2) and (2, 1) are partners, and
    (1, 3) from size 4 on."""
    return ring.cardinality() > 1 and size >= (
        4 if family == FAMILY_ORTH else 2)


def generator_catalog(ring: Ring, family: str, size: int):
    """All generators with nonzero parameters, in canonical order; a
    catalog with no (i, j) pair lists no parameter.  The public
    ``Generator`` checks never read z, so they run once per (i, j), on its
    first parameter, and raise the same first error; ``_gen`` builds the
    pair's other parameters from their payloads."""
    _check_paired_size(family, size)
    if not _has_pairs(ring, family, size):
        return []
    zero = ring.zero().payload
    nonzero = [p for p in map(ring.unrank, range(ring.cardinality()))
               if p != zero]
    first, rest = RingValue(ring, nonzero[0]), nonzero[1:]
    gens = []
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i == j or family == FAMILY_ORTH and i == paired_index(j):
                continue
            gens.append(Generator(family, i, j, first, size))
            for p in rest:
                gens.append(_gen(family, i, j, ring, p, size))
    return gens


class _Codec:
    """The codes of one table's objects (see the module docstring), to
    and from payload keys and to JSON, and their expansion by a catalog."""

    def __init__(self, table: "OrbitTable"):
        ring = self.ring = table.ring
        self.q = ring.cardinality()  # an infinite ring raises here
        self.rank, self.unrank = ring.rank, ring.unrank
        self.is_row = table.kind == "row"
        self.rows = 1 if self.is_row else table.frame_rows
        self.width = table.size

    def encode(self, key):
        """The code of the payload key ``key``, or None unless it is a
        tuple of the table's shape whose entries are elements."""
        grid = (key,) if self.is_row else key
        if not isinstance(grid, tuple) or len(grid) != self.rows:
            return None
        code, q, n, rank = 0, self.q, self.width, self.rank
        for row in grid:
            if not isinstance(row, tuple) or len(row) != n:
                return None
            for p in row:
                if (r := rank(p)) is None:
                    return None
                code = code * q + r
        return code

    def decoder(self):
        """code -> payload key, each distinct row and object built once."""
        q, n, payload = self.q, self.width, cache(self.unrank)
        row = cache(lambda c: tuple(map(payload, _split(c, q, n))))
        base, count = q ** n, self.rows
        return row if self.is_row else cache(lambda code: tuple(
            [row(r) for r in _split(code, base, count)]))

    def writer(self):
        """code -> JSON, a new list of rows for a frame; each rank's JSON
        is written once and each row's list built once, and shared."""
        q, n, unrank, ring = self.q, self.width, self.unrank, self.ring
        entry = cache(lambda d: ring.value_to_json(unrank(d)))
        row = cache(lambda c: [entry(d) for d in _split(c, q, n)])
        if self.is_row:
            return row
        base, count = q ** n, self.rows

        def frame(code):
            out = [None] * count
            for k in range(count - 1, -1, -1):
                code, r = divmod(code, base)
                out[k] = row(r)
            return out

        return frame

    @cached_property
    def _arith(self) -> tuple:
        """The expansions' state, built on first use: zero's rank, the
        weight of each digit, the rows add[a][y] = rank(a + y) and
        mul[x][c] = rank(x * c), ``digits`` (see the module docstring), and
        ``fill(d)``, which builds the rows of rank d unless they are built.
        The rows need every element, so they rank through a dict of them."""
        ring, q, n = self.ring, self.q, self.width
        values = list(map(self.unrank, range(q)))
        rank = {p: r for r, p in enumerate(values)}
        add, mul = [None] * q, [None] * q
        ring_add, ring_mul = ring.add, ring.mul
        # a row code is hi * split + lo, hi holding the first n // 2 digits
        low = n - n // 2
        split = q ** low

        def fill(d):
            if add[d] is None:
                a = values[d]
                add[d] = [rank[ring_add(a, y)] for y in values]
                mul[d] = [rank[ring_mul(a, y)] for y in values]

        # half code -> its digits, each with its rows built: plain dicts,
        # as a functools.cache costs about 4 us to make, much of a small
        # table's build
        his, los = {}, {}
        his_get, los_get = his.get, los.get

        def build(memo, code, width):
            ds = memo[code] = tuple(_split(code, q, width))
            for d in ds:
                fill(d)
            return ds

        def digits(code):
            hi, lo = divmod(code, split)
            return ((his_get(hi) or build(his, hi, n - low))
                    + (los_get(lo) or build(los, lo, low)))

        weights = [q ** (n - 1 - k) for k in range(n)]
        return rank[ring.zero().payload], weights, add, mul, digits, fill

    def levels(self) -> list:
        """The rank of Q(v) = v_1 v_2 + v_3 v_4 + ... for every row code v,
        in code order, built pair by pair from the rank rows, so no code is
        decoded: a row's code is its first pairs' code times q^2 plus its
        last pair's code."""
        zero, _, add, mul, _, fill = self._arith
        for d in range(self.q):
            fill(d)
        products = [m for row in mul for m in row]
        out = [zero]
        for _ in range(self.width // 2):
            out = [plus[m] for plus in map(add.__getitem__, out)
                   for m in products]
        return out

    def compile(self, g: Generator) -> list:
        """``g``'s column updates on one row, as (source position, target
        position, weight, coefficient rank)."""
        updates = g._triples
        targets = {t for t, _, _ in updates}
        # each update may read the digits from before the step
        assert len(targets) == len(updates) and targets.isdisjoint(
            s for _, s, _ in updates), "a generator source is a target"
        rank, weights = self.rank, self._arith[1]
        return [(s, t, weights[t], rank(c)) for t, s, c in updates]

    def row_deltas(self, compiled, code, place) -> list:
        """Each compiled generator's change to the row code ``code``,
        scaled by ``place``: image code minus ``code``, times ``place``."""
        zero, _, add, mul, digits, _ = self._arith
        ds = digits(code)
        out = []
        for updates in compiled:
            delta = 0
            for s, t, w, c in updates:
                x = ds[s]
                if x != zero:
                    a = ds[t]
                    delta += (add[a][mul[x][c]] - a) * w
            out.append(delta * place)
        return out

    def _runs(self, gens):
        """Per run of ``gens`` on one (i, j): its members, and the first's
        compiled updates, whose positions the others share."""
        for _, run in itertools.groupby(gens, operator.itemgetter(1, 2)):
            run = list(run)
            yield run, self.compile(run[0])

    def expander(self, gens):
        """``expand(node, link, fresh)``: each image of the object with code
        ``node``, which ``link`` holds, under ``gens``, in their order, that
        is no key of ``link`` (reached or proposed) is linked there to
        (node, g), g the first generator that gives it, and appended to the
        list ``fresh``.  Each run of ``gens`` on one (i, j) compiles once
        (``_runs``).

        A run of one update whose members hold every nonzero parameter, in
        rank order as the catalog lists them, sweeps the line of ``node``
        through its target t (the rows that differ from it at t alone) when
        its source digit x is a unit: x*c then takes every nonzero value,
        so once the run is done every point of the line is in ``link``, and
        stays there, as ``link`` only grows.  The points of a line share
        their digits off t, so a later single-update run on t, from this
        node or from another point of the line, could only propose points
        already linked, and is skipped: no link changes.  A bit per target
        marks the lines a node has swept.  Over q > 2 a memo marks them for
        every node: a byte per row code, bit t of the code with digit t
        zeroed for the line through t, q^n bytes, built for rows of at most
        8 entries where q^n is at most ``DEFAULT_BUDGET``, so 10 MB at
        most.  It is bound to the first ``link`` it meets and starts afresh
        for another.  Over q = 2 a line has one other point, so a memo
        check would cost what the one lookup it saves costs."""
        if self.rows > 1:
            return self._frame_expander(gens)
        if not gens:  # nothing to build, over a ring of any size
            return lambda node, link, fresh: None
        # (source, target, weight, members, their coefficient ranks, None
        # or the same four for a second update, and the target's bit if the
        # run sweeps, else 0) per run
        flat, rank, q, n = [], self.rank, self.q, self.width
        # whether to keep a memo; swept is the memo of the link bound
        memo = 2 < q and n <= 8 and q ** n <= DEFAULT_BUDGET
        bound = swept = None
        nonzero = list(range(q))
        del nonzero[rank(self.ring.zero().payload)]
        sweeps = [0] * n  # per target, its sweeping runs
        for run, first in self._runs(gens):
            assert len(first) <= 2, "a generator of three updates on a row"
            # the members' coefficient ranks, per update, off their triples
            cols = [[rank(g._triples[k][2]) for g in run]
                    for k in range(len(first))]
            second = None if len(first) == 1 else (*first[1][:3], cols[1])
            s, t, w = first[0][:3]
            sweep = second is None and cols[0] == nonzero
            sweeps[t] += sweep
            flat.append((s, t, w, run, cols[0], second, sweep))
        # with no memo, a node's bit for t pays only if t has a later run
        least = 1 if memo else 2
        flat = [(s, t, w, run, col, second,
                 1 << t if sweep and sweeps[t] >= least else 0)
                for s, t, w, run, col, second, sweep in flat]
        zero, _, add, mul, digits, _ = self._arith
        unit = None
        if any(entry[6] for entry in flat):
            unit = list(map(self.ring.is_unit_payload,
                            map(self.unrank, range(q))))

        def expand(node, link, fresh):
            nonlocal bound, swept
            if memo and link is not bound:
                bound, swept = link, bytearray(q ** n)
            ds = digits(node)
            done = 0  # the bits of the targets whose line is swept
            for s, t, w, members, col, second, bit in flat:
                x = ds[s]
                if second is not None:
                    s2, t2, w2, col2 = second
                    y = ds[s2]
                    if y != zero:
                        if x != zero:
                            a, b = ds[t], ds[t2]
                            base = node - a * w - b * w2
                            by_x, plus_a = mul[x], add[a]
                            by_y, plus_b = mul[y], add[b]
                            for g, c, c2 in zip(members, col, col2):
                                new = (base + plus_a[by_x[c]] * w
                                       + plus_b[by_y[c2]] * w2)
                                if new not in link:
                                    link[new] = node, g
                                    fresh.append(new)
                            continue
                        # only the second source is live
                        x, t, w, col = y, t2, w2, col2
                if x == zero or done & bit:
                    continue
                a = ds[t]
                base = node - a * w  # the code of the line through t
                if bit:
                    if swept is not None:
                        if swept[base] & bit:
                            done |= bit
                            continue
                        if unit[x]:
                            swept[base] |= bit
                            done |= bit
                    elif unit[x]:
                        done |= bit
                by_x, plus_a = mul[x], add[a]
                for g, c in zip(members, col):
                    new = base + plus_a[by_x[c]] * w
                    if new not in link:
                        link[new] = node, g
                        fresh.append(new)

        return expand

    def _frame_expander(self, gens):
        """``expander`` for a frame of several rows: each generator's
        updates, with the positions of its run's first."""
        rank, compiled = self.rank, []
        for run, first in self._runs(gens):
            compiled.append(first)
            for g in run[1:]:
                compiled.append([(s, t, w, rank(c)) for (s, t, w, _), (_, _, c)
                                 in zip(first, g._triples)])
        rows, base, build = self.rows, self.q ** self.width, self.row_deltas
        plus = operator.add
        # memo[r]: row code at position r -> its scaled deltas
        memo = [{} for _ in range(rows)]
        places = [base ** (rows - 1 - r) for r in range(rows)]

        def expand(node, link, fresh):
            sums, rest = None, node
            for r in range(rows - 1, -1, -1):
                rest, row = divmod(rest, base)
                deltas = memo[r].get(row)
                if deltas is None:
                    deltas = memo[r][row] = build(compiled, row, places[r])
                sums = deltas if sums is None else map(plus, sums, deltas)
            for g, delta in zip(gens, sums):
                if delta:
                    new = node + delta
                    if new not in link:
                        link[new] = node, g
                        fresh.append(new)

        return expand


class OrbitTable:
    """Reachability data for one generator action over a finite ring, by
    code: ``_orbit`` maps an object's code to its orbit id, ``_link`` to
    (parent code, Generator) or None, and ``_reps`` lists representatives.
    ``orbit_of``, ``pred`` and ``reps`` are the same by payload key, built
    on first read; a table built from them compares equal."""

    __hash__ = None

    def __init__(self, ring: Ring, kind: str, family: str, size: int,
                 frame_rows: int = 0, orbit_of=None, reps=None, pred=None):
        # kind "row" | "frame"; size: the row length or column count
        self.ring, self.kind, self.family = ring, kind, family
        self.size, self.frame_rows = size, frame_rows

        def code(key):
            got = self._codec.encode(key)
            if got is None:
                raise ObjectOutOfDomain(f"{key} is not an object of the table")
            return got

        self._orbit = {code(k): oid for k, oid in (orbit_of or {}).items()}
        self._link = {code(k): link and (code(link[0]), link[1])
                      for k, link in (pred or {}).items()}
        self._reps = [code(k) for k in reps or ()]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in (
            "ring", "kind", "family", "size", "frame_rows", "_orbit",
            "_reps", "_link"))

    @cached_property
    def _codec(self) -> _Codec:
        return _Codec(self)

    @cached_property
    def _views(self) -> tuple:
        key = self._codec.decoder()
        pred = {key(c): link and (key(link[0]), link[1])
                for c, link in self._link.items()}
        return (MappingProxyType({key(c): o for c, o in self._orbit.items()}),
                tuple(map(key, self._reps)), MappingProxyType(pred))

    # the views by payload key
    orbit_of = property(lambda self: self._views[0])
    reps = property(lambda self: self._views[1])
    pred = property(lambda self: self._views[2])

    def orbit_count(self) -> int:
        return len(self._reps)

    def orbit_sizes(self) -> list:
        sizes = [0] * len(self._reps)
        for oid in self._orbit.values():
            sizes[oid] += 1
        return sizes

    def _act(self, key, gens):
        """The image of ``key`` under ``gens``, through the ring's word
        kernel ``ring.act`` on payload rows."""
        if self.kind == "row":
            return tuple(self.ring.act([list(key)], gens)[0])
        return tuple(map(tuple, self.ring.act(list(map(list, key)), gens)))

    def path_word(self, key) -> GenWord:
        """The word carrying this orbit's representative to ``key``."""
        code = self._codec.encode(key)
        if code not in self._orbit:
            raise ObjectOutOfDomain(f"{key} is not in the table")
        return self._path(code)

    def _path(self, code) -> GenWord:
        gens = []
        while (link := self._link.get(code)) is not None:
            code, g = link
            gens.append(g)
        gens.reverse()
        return GenWord(self.ring, self.size, self.family, tuple(gens))

    def to_json(self) -> dict:
        """The table's JSON, its objects in code order, which is key order.
        The objects share the list of each row, and the JSON of each
        element: copy the result before editing it in place."""
        write, orbit, link = self._codec.writer(), self._orbit, self._link
        objects = []
        for code in sorted(orbit):
            edge = link.get(code)
            objects.append({"v": write(code), "orbit": orbit[code], "pred":
                            edge and [write(edge[0]), edge[1].to_json()]})
        return {"version": FORMAT_VERSION, "ring": self.ring.to_json(),
                "kind": self.kind, "family": self.family, "size": self.size,
                "frame_rows": self.frame_rows, "objects": objects}

    @staticmethod
    def from_json(obj: dict) -> "OrbitTable":
        """The table ``obj`` holds, once its links check: each distinct
        JSON entry is mapped to its rank once, and each distinct row that
        is not all plain ints read before to its code once, through one
        dict each."""
        if obj.get("version") != FORMAT_VERSION:
            raise UnsupportedRing(f"unknown table version {obj.get('version')}")
        ring = ring_from_json(obj["ring"])
        kind, family = obj["kind"], obj["family"]
        size = _json_int(obj["size"])
        _check_paired_size(family, size)
        table = OrbitTable(ring, kind, family, size,
                           _json_int(obj.get("frame_rows", 0)))
        if not ring.is_finite:
            raise UnsupportedRing("orbit enumeration needs a finite ring")
        codec = table._codec
        q, rows, width, rank = codec.q, codec.rows, codec.width, codec.rank
        base, one_row = q ** width, codec.is_row
        entries: dict = {}  # an int entry, or another's repr -> (rank, payload)
        lines: dict = {}  # a row's repr -> (its code, its payloads)

        def read_entry(p):
            # a true, a 1.0 and a 1 are read apart; an entry that raises is
            # never stored, so it raises each time
            k = p if type(p) is int else repr(p)
            got = entries.get(k)
            if got is None:
                payload = ring.value_from_json(p).payload
                got = entries[k] = rank(payload), payload
            return got

        def read_row(row):
            # the code and a new list of the payloads of a row holding an
            # entry that is no plain int read before; each distinct row is
            # ranked once, by its repr, so a parent read again is one lookup
            got = lines.get(k := repr(row))
            if got is None:
                c, line = 0, []
                for p in row:
                    r, payload = read_entry(p)
                    c = c * q + r
                    line.append(payload)
                got = lines[k] = c, line
            return got[0], list(got[1])

        def read(v):
            # the code of the object v and its rows of payloads, each a new
            # list; the shape is checked first, since the link check reads
            # entries by place
            grid = [v] if one_row else v
            if len(grid) != rows or any(map(width.__ne__, map(len, grid))):
                raise WitnessCheckFailed(
                    "orbit table object has the wrong shape", object=v)
            code, out = 0, []
            for row in grid:
                c, line = 0, []
                for p in row:  # plain ints read before, in place
                    if type(p) is not int or (got := entries.get(p)) is None:
                        c, line = read_row(row)
                        break
                    c = c * q + got[0]
                    line.append(got[1])
                code = code * base + c
                out.append(line)
            return code, out

        gens: dict = {}  # (i, j, the param's int or repr) -> (its Generator,)

        def gen_of(gj):
            # each distinct link generator passes the public checks once;
            # one that raises is never stored, so it raises each time
            i, j, p = gj["i"], gj["j"], gj["param"]
            if type(i) is not int or type(j) is not int:
                i, j = _json_int(i), _json_int(j)
            g = gens.get(k := (i, j, p if type(p) is int else repr(p)))
            if g is None:
                g = gens[k] = (Generator(family, i, j, RingValue(
                    ring, read_entry(p)[1]), size),)
            return g

        # code -> whether its link is a generator step, checked as read
        orbit, link, steps = table._orbit, table._link, {}
        for entry in obj["objects"]:
            code, grid = read(entry["v"])
            oid = entry["orbit"]
            orbit[code] = oid if type(oid) is int else _json_int(oid)
            pred = entry["pred"]
            if pred is None:
                link[code] = None
                continue
            parent, above = read(pred[0])
            g = gen_of(pred[1])
            link[code] = parent, g[0]
            steps[code] = ring.act(above, g) == grid
        table._reps = sorted((c for c, edge in link.items() if edge is None),
                             key=orbit.get)
        table._check_links(steps)
        return table

    def _check_links(self, steps):
        """Raise unless each link is a generator step (``steps``: code ->
        whether it is) inside one orbit, the objects without a link are one
        representative per orbit id in id order, and each chain of links
        ends at one, so objects that share an orbit id are equivalent."""
        of, json_of = self._orbit, self._codec.writer()
        for code, link in self._link.items():
            if link is None or of.get(link[0]) == of[code] and steps[code]:
                continue
            raise WitnessCheckFailed("orbit table link fails its check",
                                     object=json_of(code))
        for oid, rep in enumerate(self._reps):
            if of[rep] != oid:
                raise WitnessCheckFailed(
                    "orbit table needs one representative per orbit id",
                    object=json_of(rep))
        rooted = set(self._reps)
        for code in of:
            chain = [code]
            while chain[-1] not in rooted:
                if len(chain) > len(of):
                    raise WitnessCheckFailed("orbit table links form a cycle",
                                             object=json_of(chain[-1]))
                chain.append(self._link[chain[-1]][0])
            rooted.update(chain)


def _counted_sets(table: OrbitTable, domain):
    """(level, counts) for a row table of row domain ``domain``: ``level``
    maps the code of a row to the key of a set that holds the row's whole
    orbit (None for a key where one set serves every row), and ``counts``
    maps each key to the set's size.

    The generators keep each set, so each orbit lies inside the set of any
    of its rows (Holt, Eick and O'Brien, section 4.1).  A row keeps its
    unimodularity; an orth generator keeps Q(v) = v_1 v_2 + v_3 v_4 + ...
    (its two updates v_i += z v_j and v_pair(j) -= z v_pair(i) add
    z v_j v_pair(i) and take it away), so orth rows are counted by Q."""
    if table.family != FAMILY_ORTH:
        return None, {None: len(domain)}
    level = table._codec.levels().__getitem__
    return level, Counter(map(level, domain))


def _bfs_closure(table: OrbitTable, starts, gens, budget: int, count=None):
    """Deterministic multi-source BFS from the codes ``starts`` into the
    empty ``table``'s code dicts; ties between frontier edges pick the
    least (parent, generator), which is the first to propose the object.
    ``_link`` holds each object reached or proposed, so an image costs one
    lookup, and each level's fresh codes are sorted into the next frontier.

    Each orbit stops expanding once every object of its counted set is
    reached, by it or by an earlier orbit: a row table's sets are its
    ``_counted_sets``, and a frame table, one orbit, is its own set where
    ``count``, its exact size, is given.  The orbit lies inside that set,
    so a later edge could only propose an object already reached, and the
    first proposal stands: the ids, links and representatives are those of
    the full BFS.  A frame with no count runs to the end.  For a row table
    ``starts`` is the whole domain, and a code outside it, a codec defect,
    is refused when committed."""
    expand = table._codec.expander(gens)
    row = table.kind == "row"
    domain = set(starts) if row else None
    # level: code -> the key of its set (None where one set serves every
    # object); left: key -> the set's objects not yet reached, None for a
    # frame with no count
    level, left = (_counted_sets(table, starts) if row
                   else (None, {None: count} if count else None))
    orbit, link, reps = table._orbit, table._link, table._reps
    for code in starts:
        if code in orbit:
            continue
        oid = len(reps)
        reps.append(code)
        orbit[code] = oid
        link[code] = None
        key, start = level(code) if level else None, len(link) - 1
        # len(link) once the orbit's set is reached; -1, never, if uncounted
        stop = start + left[key] if left else -1
        frontier = [code]
        while frontier:
            fresh: list = []
            for node in frontier:
                if len(link) == stop:
                    break  # the set is reached; no edge proposes more
                expand(node, link, fresh)
            fresh.sort()
            if row and not domain.issuperset(fresh):
                raise ObjectOutOfDomain(
                    "internal: a row orbit left the row domain")
            if fresh and len(link) > budget:
                raise SearchBudgetExceeded(
                    f"orbit table exceeded budget {budget}")
            for new in fresh:
                orbit[new] = oid
            frontier = fresh
        if left:
            left[key] -= len(link) - start


def enumerate_orbits(ring: Ring, kind: str, family: str, size: int,
                     frame_rows: int = 0,
                     budget: int = DEFAULT_BUDGET) -> OrbitTable:
    """Exhaustive orbits of the right generator action.

    kind "row": partitions all unimodular rows of the given length.
    kind "frame": the closure of the standard frame [I | 0], pruned to
    form-compatible objects by construction.
    """
    if not ring.is_finite:
        raise UnsupportedRing("orbit enumeration needs a finite ring")
    if kind == "row":
        if size < 0:
            raise ObjectOutOfDomain(f"row size must be >= 0, got {size}")
        q = ring.cardinality()
        if _capped_power(q, size, budget) > budget:
            raise SearchBudgetExceeded(
                f"{q}^{size} objects exceed budget {budget}")
        _check_entries(q, size, budget)
        table = OrbitTable(ring, "row", family, size)
        gens = generator_catalog(ring, family, size)
        _bfs_closure(table, _row_domain(table._codec), gens, budget)
        return table
    if kind == "frame":
        if frame_rows <= 0 or frame_rows > size:
            raise ObjectOutOfDomain("frame kind needs frame_rows in 1..size")
        _check_paired_size(family, size)
        # refused before the catalog and the standard frame are built, by a
        # lower bound, then by the orbit's size where it is proven (the bound
        # first: it is q or more wherever a catalog with a pair builds, so
        # no ring past the budget is split for a table it refuses); a table
        # with no catalog pair is its one standard frame, counted by
        # nothing, and a one-object table never trips the BFS
        q, cap = ring.cardinality(), max(budget, 1)
        shape = ring, family, size, frame_rows
        bound = _capped_power(q, _frame_orbit_exponent(*shape), cap)
        count = None if bound > cap or not _has_pairs(*shape[:3]) \
            else _frame_orbit_count(*shape, cap)
        if (bound if count is None else count) > cap:
            raise SearchBudgetExceeded(f"orbit table exceeded budget {budget}")
        _check_entries(q, frame_rows * size, budget)
        table = OrbitTable(ring, "frame", family, size, frame_rows)
        gens = generator_catalog(ring, family, size)
        one, zero = ring.one().payload, ring.zero().payload
        standard = tuple((zero,) * i + (one,) + (zero,) * (size - 1 - i)
                         for i in range(frame_rows))
        # an admitted count is exact: the table's one counted set
        _bfs_closure(table, [table._codec.encode(standard)], gens, budget,
                     count)
        return table
    raise ObjectOutOfDomain(f"unknown object kind {kind!r}")


def _table_key(v, table: OrbitTable):
    """The key of a row or frame given as a ``Mat`` or as payloads."""
    if not isinstance(v, Mat):
        return tuple(v)
    if v.ring != table.ring:
        raise DescriptorMismatch(
            f"object over {v.ring} does not match table over {table.ring}")
    if table.kind == "frame":
        return v._grid
    if v.rows != 1:
        raise ShapeMismatch("expected a single row")
    return v._grid[0]


def _check_closed(table: OrbitTable, oid: int):
    """Raise unless every catalog generator maps every object of orbit
    ``oid`` to an object of that orbit.  The objects with that id then hold
    the whole orbit, so an object with another id lies outside it.  Every
    member is expanded: no count vouches for a loaded table."""
    expand = table._codec.expander(
        generator_catalog(table.ring, table.family, table.size))
    codes = [c for c, o in table._orbit.items() if o == oid]
    members, outside = dict.fromkeys(codes), []
    for code in codes:
        expand(code, members, outside)
        if outside:
            raise WitnessCheckFailed(
                "orbit table orbit is not closed under the generators",
                object=table._codec.writer()(code))


def certify_equivalence(v1, v2, table: OrbitTable):
    """An explicit word with v1 . eval(word) = v2, or None when the
    exhaustive table proves there is none: before None, v1's orbit is
    checked to be closed under the generator catalog."""
    k1, k2 = _table_key(v1, table), _table_key(v2, table)
    c1, c2 = table._codec.encode(k1), table._codec.encode(k2)
    for k, c in ((k1, c1), (k2, c2)):
        if c not in table._orbit:
            raise ObjectOutOfDomain(f"{k} is not in the table's domain")
    if table._orbit[c1] != table._orbit[c2]:
        _check_closed(table, table._orbit[c1])
        return None
    word = table._path(c1).invert() + table._path(c2)
    # re-verify the path before returning it
    if table._act(k1, word.gens) != k2:
        raise ObjectOutOfDomain("internal: path verification failed")
    return word
