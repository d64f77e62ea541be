"""Brute-force certification over tiny finite rings: exhaustive BFS orbits
of the right generator action on rows and frames, with predecessor links so
any claimed equivalence can be re-derived as an explicit path word.

Determinism: objects are enumerated in key order (a row domain is the
product of the elements in ``ring.sort_key`` order, so it needs no sort),
generators are ordered by (i, j, parameter key), and when several frontier
edges reach the same new object the lowest-ordered (parent, generator) pair
wins: the frontier is kept in key order, so that pair proposes it first.

A row table's BFS starts from its whole domain, every unimodular row, and
the generators keep a row unimodular, so every image lies in the domain,
and a code outside it, a codec defect, is refused when it is committed.
Once each row is in the table or proposed, no later edge can propose one,
and the first proposal of each row is already made: the BFS stops expanding
there and commits its last frontier, with the orbit ids, links and
representatives the full BFS gives.  A frame table's closure has no size
known in advance, so its BFS runs to the end; an oversized one is refused
before its catalog exists by a lower bound on its size
(``_frame_orbit_exponent``).  Over the zero ring every table is one
object, refused before it is built when it has more entries than the
budget (``_check_entries``).

The BFS and the closure check, the two expansions by a whole catalog, run
on integer codes (the numbering of points in orbit algorithms; Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.1),
and share the one codec a table builds on first use.  ``_Codec`` ranks the
ring's elements in ``ring.sort_key`` order, and a key's entries, row by
row, are the digits of one base-q integer, most significant first, so
integer order is key order: a frame's code is its row codes as the digits
of one base-q^size integer.
A generator acts on each row alone, (V.g)_k = V_k.g, so the catalog
compiles once on one row: each generator, from its stored triples
``Generator._triples``, into (source position, target position,
weight q^k, coefficient rank) updates; an update whose source digit x is
nonzero adds (rank(a + x*c) - a) * q^k, a being the target digit.  A
generator's sources are never its targets, so every update reads the
digits of the row it acts on.

A row code (a row table, or a frame of one row) expands by runs of
consecutive generators that share their (source, target, weight)
positions, one run per (i, j), each holding its generators' coefficient
ranks in catalog order, so the tie rule needs no sort.  A run has one
update (every linear run, and the symplectic (i, pair i)) or two (every
other symplectic run, and every orthogonal one).  It reads its source and
target digits once per node and is skipped when every source is zero,
since every member then fixes the node; a run of two with one live source
takes the one-update form, and otherwise each image is node - a*w - b*w'
plus the two new digits, summed inline with no call.  A frame of several
rows splits its code into row codes and memoizes, per (row position, row
code), the row's delta under every generator, already scaled to its
place; each image is the node plus its rows' deltas, and a generator whose
deltas are all zero proposes nothing.  An image is proposed only if it is
neither in the table nor proposed, so a generator that fixes its node, or
repeats an image, allocates nothing and the first proposal stands.

``digits`` splits a row code at q^(n - h), h = n // 2, into two halves
whose digit tuples it builds once each.  The rows rank(a + .) and
rank(x * .) for an entry value are built with the first half that holds
it, so their cost never exceeds the BFS work that reaches them, even over
a large ring.  When the BFS ends, a row table takes each payload key from
its domain, whose keys it encoded on the way in, and a frame table decodes
each key once, each distinct row of it once.

The checks of one generator step, the link check of a loaded table and the
path check of ``certify_equivalence``, share no code with the BFS they
check: they act on payload keys through the shared kernel
``words._apply_gens`` (``OrbitTable._act``), so neither a load nor an
equivalence answer builds a codec.  ``OrbitTable.from_json`` decodes each
distinct JSON entry, and builds each distinct link generator, of a cached
table once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .errors import (BadIndices, DescriptorMismatch, ObjectOutOfDomain,
                     SearchBudgetExceeded, ShapeMismatch, UnsupportedRing,
                     WitnessCheckFailed)
from .matrices import Mat
from .rings import (Ring, RingValue, _json_int, _residue_modulus, has_half,
                    ring_from_json, unit_ideal_witness)
from .words import (FAMILY_LIN, FAMILY_ORTH, FAMILY_SP, Generator, GenWord,
                    _apply_gens, paired_index)

FORMAT_VERSION = 1
DEFAULT_BUDGET = 10 ** 7


def _unimodular_test(ring: Ring):
    """The test whether a row of payloads generates the unit ideal, with
    the ring's case decided once: only the fallback of a non-local ring
    that is no Z/m boxes the entries."""
    if ring.is_zero_ring:
        return lambda payloads: True
    if ring.is_local:
        is_unit = ring.is_unit_payload
        return lambda payloads: any(map(is_unit, payloads))
    modulus = _residue_modulus(ring)
    if modulus is None:
        return lambda payloads: unit_ideal_witness(
            ring, [RingValue(ring, p) for p in payloads]) is not None
    return lambda payloads: gcd(modulus, *payloads) == 1


def _sorted_payloads(ring: Ring) -> list:
    """The payloads of the elements in ``ring.sort_key`` order, the one
    element order of keys, codes and catalogs."""
    return sorted((v.payload for v in ring.elements()), key=ring.sort_key)


def _row_domain(ring: Ring, size: int) -> list:
    """Every unimodular row of length ``size``, as payload keys in
    ``_key_order``: the product of the elements in ``ring.sort_key`` order
    comes out in that order, so it needs no sort."""
    return list(filter(_unimodular_test(ring),
                       itertools.product(_sorted_payloads(ring), repeat=size)))


def _power_exceeds(q: int, size: int, budget: int) -> bool:
    """Whether q ** size > budget, without forming q ** size: for q >= 2
    the product passes the budget within about log_q(budget) + 1 steps."""
    if q <= 1:
        return q ** min(size, 1) > budget  # 0 ** 0 == 1 ** size == 1
    count = 1
    for _ in range(size):
        if count > budget:
            return True
        count *= q
    return count > budget


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
    vectors: k = r(m - P).  Otherwise k = 0, and the catalog raises: an
    unknown family, or orth without 1/2."""
    r = frame_rows
    if family == FAMILY_LIN:
        return r * (size - 1)
    if family == FAMILY_SP or family == FAMILY_ORTH and has_half(ring):
        return r * (size // 2 - (r + 1) // 2)
    return 0


def generator_catalog(ring: Ring, family: str, size: int):
    """All generators with nonzero parameters, in canonical order."""
    _check_paired_size(family, size)
    zero = ring.zero().payload
    nonzero = [RingValue(ring, p) for p in _sorted_payloads(ring) if p != zero]
    if not nonzero:
        # the zero ring: no parameter, so no generator at any size
        return []
    gens = []
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i == j:
                continue
            if family == FAMILY_ORTH and i == paired_index(j):
                continue
            for z in nonzero:
                gens.append(Generator(family, i, j, z, size))
    return gens


class _Codec:
    """The keys of one table as base-q integers, and ``expander``, which
    acts on them by a whole catalog (see the module docstring)."""

    def __init__(self, table: "OrbitTable"):
        ring = table.ring
        values = _sorted_payloads(ring)
        rank = {p: r for r, p in enumerate(values)}
        q = len(values)
        # distinct keys get distinct codes, in key order, only if no two
        # elements tie in sort_key
        assert len(rank) == q and all(
            ring.sort_key(a) < ring.sort_key(b)
            for a, b in zip(values, values[1:])), "sort_key ties elements"
        self.values, self.rank, self.q = values, rank, q
        self.is_row = table.kind == "row"
        self.rows = 1 if self.is_row else table.frame_rows
        self.width = n = table.size
        # a frame's code is its row codes as the digits of one base-q^n
        # integer, most significant first
        self.row_base = q ** n
        self.weights = [q ** (n - 1 - k) for k in range(n)]
        self.zero = rank[ring.zero().payload]
        # add[a][y] = rank(a + y), mul[x][c] = rank(x * c), both built
        # when a half code holding a is first met
        self.add = add = [None] * q
        self.mul = mul = [None] * q
        ring_add, ring_mul = ring.add, ring.mul
        # a row code is hi * split + lo, hi holding the first n // 2 digits
        low = n - n // 2
        split = q ** low
        halves = ({}, {})  # hi -> its digits, lo -> its digits

        def half(code, width, memo):
            ds, rest = [0] * width, code
            for k in range(width - 1, -1, -1):
                rest, ds[k] = divmod(rest, q)
            for d in ds:
                if add[d] is None:
                    a = values[d]
                    add[d] = [rank[ring_add(a, y)] for y in values]
                    mul[d] = [rank[ring_mul(a, y)] for y in values]
            memo[code] = ds = tuple(ds)
            return ds

        def digits(code):
            """The digits of the row code ``code``, from two memoized
            halves."""
            hi, lo = divmod(code, split)
            his = halves[0].get(hi)
            if his is None:
                his = half(hi, n - low, halves[0])
            los = halves[1].get(lo)
            if los is None:
                los = half(lo, low, halves[1])
            return his + los

        self.digits = digits
        self._row_keys: dict = {}  # row code -> its payload row

    def row_codes(self, code) -> list:
        """The codes of the rows of the object with code ``code``, first
        row first."""
        out = [0] * self.rows
        for r in range(self.rows - 1, -1, -1):
            code, out[r] = divmod(code, self.row_base)
        return out

    def encode(self, key) -> int:
        rank, q, code = self.rank, self.q, 0
        for row in ((key,) if self.is_row else key):
            for p in row:
                code = code * q + rank[p]
        return code

    def decode(self, code):
        """The key of ``code``, each distinct row decoded once."""
        memo, values = self._row_keys, self.values
        rows = []
        for row in ((code,) if self.is_row else self.row_codes(code)):
            key = memo.get(row)
            if key is None:
                key = memo[row] = tuple(values[d] for d in self.digits(row))
            rows.append(key)
        return rows[0] if self.is_row else tuple(rows)

    def compile(self, g: Generator) -> list:
        """``g``'s column updates on one row, as (source position, target
        position, weight, coefficient rank)."""
        updates = g._triples
        targets = {t for t, _, _ in updates}
        # each update may read the digits from before the step
        assert len(targets) == len(updates) and targets.isdisjoint(
            s for _, s, _ in updates), "a generator source is a target"
        weights, rank = self.weights, self.rank
        return [(s, t, weights[t], rank[c]) for t, s, c in updates]

    def row_deltas(self, compiled, code, place) -> list:
        """Each compiled generator's change to the row code ``code``,
        scaled by ``place``: image code minus ``code``, times ``place``."""
        ds, add, mul, zero = self.digits(code), self.add, self.mul, self.zero
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

    def expander(self, gens):
        """``expand(node, seen, proposals)``: each image of the object with
        code ``node`` under ``gens``, in their order, that is in neither
        ``seen`` nor ``proposals`` becomes a proposal, linked to (node, g)
        for the first generator g that gives it.

        The generators compile on one row (see the module docstring): a
        row code expands by runs of one update or two, and a frame of
        several rows by its rows' deltas, memoized per (row position, row
        code) (``row_deltas``)."""
        if self.rows > 1:
            return self._frame_expander(gens)
        runs = []  # (places, [(g, updates), ...])
        for g in gens:
            updates = self.compile(g)
            places = [u[:3] for u in updates]
            if not runs or runs[-1][0] != places:
                runs.append((places, []))
            runs[-1][1].append((g, updates))
        # (source, target, weight, members, their coefficient ranks, and
        # None, or the same four for a second update)
        flat = []
        for places, steps in runs:
            assert len(places) <= 2, "a generator of three updates on a row"
            second = None if len(places) == 1 else (
                *places[1], [u[1][3] for _, u in steps])
            flat.append((*places[0], [g for g, _ in steps],
                         [u[0][3] for _, u in steps], second))
        digits, add, mul, zero = self.digits, self.add, self.mul, self.zero

        def expand(node, seen, proposals):
            ds = digits(node)
            for s, t, w, members, col, second in flat:
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
                                if new not in seen and new not in proposals:
                                    proposals[new] = (node, g)
                            continue
                        # only the second source is live
                        x, t, w, col = y, t2, w2, col2
                if x == zero:
                    continue
                a = ds[t]
                base, by_x, plus_a = node - a * w, mul[x], add[a]
                for g, c in zip(members, col):
                    new = base + plus_a[by_x[c]] * w
                    if new not in seen and new not in proposals:
                        proposals[new] = (node, g)

        return expand

    def _frame_expander(self, gens):
        """``expander`` for a frame of several rows."""
        compiled = [self.compile(g) for g in gens]
        rows, base, build = self.rows, self.row_base, self.row_deltas
        plus = operator.add
        # memo[r]: row code at position r -> its scaled deltas
        memo = [{} for _ in range(rows)]
        places = [base ** (rows - 1 - r) for r in range(rows)]

        def expand(node, seen, proposals):
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
                    if new not in seen and new not in proposals:
                        proposals[new] = (node, g)

        return expand


@dataclass
class OrbitTable:
    """Reachability data for one generator action over a finite ring."""

    ring: Ring
    kind: str  # "row" | "frame"
    family: str
    size: int  # row length, or the frame's column count
    frame_rows: int = 0
    orbit_of: dict = field(default_factory=dict)
    reps: list = field(default_factory=list)
    pred: dict = field(default_factory=dict)  # key -> (parent_key, Generator)

    def orbit_count(self) -> int:
        return len(self.reps)

    def orbit_sizes(self) -> list:
        sizes = [0] * len(self.reps)
        for _, oid in self.orbit_of.items():
            sizes[oid] += 1
        return sizes

    @cached_property
    def _codec(self) -> _Codec:
        """The table's codec, built on first use by the BFS or the closure
        check (not a dataclass field, so ``==`` and ``to_json`` ignore
        it)."""
        return _Codec(self)

    def _act(self, key, gens):
        """The image of ``key`` under ``gens``, through the shared kernel
        ``words._apply_gens`` on payload rows."""
        if self.kind == "row":
            return tuple(_apply_gens(self.ring, [list(key)], gens)[0])
        return tuple(map(tuple, _apply_gens(self.ring, list(map(list, key)),
                                            gens)))

    def path_word(self, key) -> GenWord:
        """The word carrying this orbit's representative to ``key``."""
        if key not in self.orbit_of:
            raise ObjectOutOfDomain(f"{key} is not in the table")
        gens = []
        cur = key
        while True:
            link = self.pred.get(cur)
            if link is None:
                break
            parent, g = link
            gens.append(g)
            cur = parent
        gens.reverse()
        return GenWord(self.ring, self.size, self.family, tuple(gens))

    def _enc_key(self, key):
        enc = self.ring.value_to_json
        if self.kind == "row":
            return [enc(p) for p in key]
        return [[enc(p) for p in row] for row in key]

    def to_json(self) -> dict:
        enc_key = self._enc_key
        objects = []
        for key in sorted(self.orbit_of, key=self._key_order):
            link = self.pred.get(key)
            objects.append({
                "v": enc_key(key),
                "orbit": self.orbit_of[key],
                "pred": None if link is None else
                        [enc_key(link[0]), link[1].to_json()],
            })
        return {"version": FORMAT_VERSION, "ring": self.ring.to_json(),
                "kind": self.kind, "family": self.family, "size": self.size,
                "frame_rows": self.frame_rows, "objects": objects}

    @staticmethod
    def from_json(obj: dict) -> "OrbitTable":
        if obj.get("version") != FORMAT_VERSION:
            raise UnsupportedRing(f"unknown table version {obj.get('version')}")
        ring = ring_from_json(obj["ring"])
        kind = obj["kind"]
        size = _json_int(obj["size"])
        _check_paired_size(obj["family"], size)
        table = OrbitTable(ring, kind, obj["family"], size,
                           _json_int(obj.get("frame_rows", 0)))
        rows = 1 if kind == "row" else table.frame_rows
        seen: dict = {}  # _json_memo_key(entry) -> its RingValue

        def dec(p):
            # an entry that raises is never stored, so it raises each time
            k = _json_memo_key(p)
            if k is None:
                return ring.value_from_json(p)
            v = seen.get(k)
            if v is None:
                v = seen[k] = ring.value_from_json(p)
            return v

        def dec_key(v):
            # the kernel that checks a link reads each entry by position
            grid = [v] if kind == "row" else v
            if len(grid) != rows or any(len(r) != table.size for r in grid):
                raise WitnessCheckFailed(
                    "orbit table object has the wrong shape", object=v)
            if kind == "row":
                return tuple(dec(p).payload for p in v)
            return tuple(tuple(dec(p).payload for p in row) for row in v)

        gens: dict = {}  # (i, j, _json_memo_key(param)) -> its Generator

        def dec_gen(gj):
            # each distinct link generator passes the public checks once;
            # one that raises is never stored, so it raises each time
            i, j = _json_int(gj["i"]), _json_int(gj["j"])
            param = dec(gj["param"])
            k = _json_memo_key(gj["param"])
            g = None if k is None else gens.get((i, j, k))
            if g is None:
                g = Generator(obj["family"], i, j, param, size)
                if k is not None:
                    gens[i, j, k] = g
            return g

        for entry in obj["objects"]:
            key = dec_key(entry["v"])
            table.orbit_of[key] = _json_int(entry["orbit"])
            if entry["pred"] is not None:
                pk = dec_key(entry["pred"][0])
                table.pred[key] = (pk, dec_gen(entry["pred"][1]))
            else:
                table.pred[key] = None
        table.reps = sorted((k for k, link in table.pred.items()
                             if link is None), key=table.orbit_of.get)
        table._check_links()
        return table

    def _check_links(self):
        """Raise unless each link is one generator step inside one orbit,
        the objects without a link are one representative per orbit id in
        id order, and each chain of links ends at one.  Objects that share
        an orbit id are then equivalent."""
        of = self.orbit_of
        for key, link in self.pred.items():
            if link is None:
                continue
            parent, g = link
            if of.get(parent) == of[key] and self._act(parent, (g,)) == key:
                continue
            raise WitnessCheckFailed("orbit table link fails its check",
                                     object=self._enc_key(key))
        for oid, rep in enumerate(self.reps):
            if of[rep] != oid:
                raise WitnessCheckFailed(
                    "orbit table needs one representative per orbit id",
                    object=self._enc_key(rep))
        rooted = set(self.reps)
        for key in of:
            chain = [key]
            while chain[-1] not in rooted:
                if len(chain) > len(of):
                    raise WitnessCheckFailed("orbit table links form a cycle",
                                             object=self._enc_key(chain[-1]))
                chain.append(self.pred[chain[-1]][0])
            rooted.update(chain)

    def _key_order(self, key):
        if self.kind == "row":
            return tuple(self.ring.sort_key(p) for p in key)
        return tuple(tuple(self.ring.sort_key(p) for p in row) for row in key)


def _json_memo_key(p):
    """A hashable key for a JSON value under which equal keys decode
    alike: the type tags every scalar, so ``true`` never meets ``1`` nor
    ``1.0`` meets ``1``, and a list becomes a tuple.  None for a value
    holding an object, which is never memoized."""
    if isinstance(p, list):
        keys = tuple(map(_json_memo_key, p))
        return None if None in keys else (list, keys)
    if isinstance(p, dict):
        return None
    return (type(p), p)


def _bfs_closure(table: OrbitTable, start_keys, gens, budget: int):
    """Deterministic multi-source BFS into the empty ``table``; ties
    between frontier edges pick the least (parent, generator), which is the
    first to propose the object.  It runs on codes and, at the end, in the
    order the objects were reached, maps each code back to its key: a row
    table takes it from its start keys, each encoded once on the way in,
    and a frame table decodes each object once.

    Each node is expanded by ``gens`` compiled on one row (``_Codec.
    expander``): one call per node, none per image; a row's digits are read
    from two memoized half codes, and a frame of several rows combines its
    rows' memoized deltas.

    For a row table ``start_keys`` is the whole domain, closed under the
    generators, so the BFS stops expanding once every key is in an orbit
    or proposed: a later edge could only propose a key already proposed,
    and the first proposal stands, so the ids and links do not change.
    A code outside the domain is a codec defect, refused when it is
    committed, before it could run the BFS on without end."""
    codec = table._codec
    expand = codec.expander(gens)
    # code -> key of each start key, encoded once; a row table's are its
    # whole domain, so -1, never reached, stands for a frame table's end
    starts = {codec.encode(k): k for k in start_keys}
    row = table.kind == "row"
    full = len(starts) if row else -1
    orbit: dict = {}  # code -> orbit id
    link: dict = {}  # code -> (parent code, Generator), or None for a root
    reps = []
    for code in starts:
        if code in orbit:
            continue
        oid = len(reps)
        reps.append(code)
        orbit[code] = oid
        link[code] = None
        frontier = [code]
        while frontier:
            proposals: dict = {}
            for node in frontier:
                if len(orbit) + len(proposals) == full:
                    break  # every object is reached; no edge proposes more
                expand(node, orbit, proposals)
            frontier = sorted(proposals)
            if row and not starts.keys() >= proposals.keys():
                raise ObjectOutOfDomain(
                    "internal: a row orbit left the row domain")
            for new in frontier:
                orbit[new] = oid
                link[new] = proposals[new]
                if len(orbit) > budget:
                    raise SearchBudgetExceeded(
                        f"orbit table exceeded budget {budget}")
    key_of = starts.__getitem__ if row else codec.decode
    keys = {}
    for code, oid in orbit.items():
        keys[code] = key = key_of(code)
        table.orbit_of[key] = oid
        edge = link[code]
        table.pred[key] = None if edge is None else (keys[edge[0]], edge[1])
    table.reps.extend(keys[code] for code in reps)


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
        if _power_exceeds(q, size, budget):
            raise SearchBudgetExceeded(
                f"{q}^{size} objects exceed budget {budget}")
        _check_entries(q, size, budget)
        table = OrbitTable(ring, "row", family, size)
        gens = generator_catalog(ring, family, size)
        _bfs_closure(table, _row_domain(ring, size), gens, budget)
        return table
    if kind == "frame":
        if frame_rows <= 0 or frame_rows > size:
            raise ObjectOutOfDomain("frame kind needs frame_rows in 1..size")
        _check_paired_size(family, size)
        # refused before the catalog and the standard frame are built; a
        # one-object table never trips the BFS
        q = ring.cardinality()
        k = _frame_orbit_exponent(ring, family, size, frame_rows)
        if q >= 2 and k >= 1 and _power_exceeds(q, k, budget):
            raise SearchBudgetExceeded(f"orbit table exceeded budget {budget}")
        _check_entries(q, frame_rows * size, budget)
        table = OrbitTable(ring, "frame", family, size, frame_rows)
        gens = generator_catalog(ring, family, size)
        one, zero = ring.one().payload, ring.zero().payload
        standard = tuple((zero,) * i + (one,) + (zero,) * (size - 1 - i)
                         for i in range(frame_rows))
        _bfs_closure(table, [standard], gens, budget)
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
    the whole orbit, so an object with another id lies outside it."""
    codec = table._codec
    expand = codec.expander(
        generator_catalog(table.ring, table.family, table.size))
    members = {codec.encode(k): k for k, o in table.orbit_of.items()
               if o == oid}
    outside: dict = {}
    for code, key in members.items():
        expand(code, members, outside)
        if outside:
            raise WitnessCheckFailed(
                "orbit table orbit is not closed under the generators",
                object=table._enc_key(key))


def certify_equivalence(v1, v2, table: OrbitTable):
    """An explicit word with v1 . eval(word) = v2, or None when the
    exhaustive table proves there is none: before None, v1's orbit is
    checked to be closed under the generator catalog."""
    k1, k2 = _table_key(v1, table), _table_key(v2, table)
    for k in (k1, k2):
        if k not in table.orbit_of:
            raise ObjectOutOfDomain(f"{k} is not in the table's domain")
    if table.orbit_of[k1] != table.orbit_of[k2]:
        _check_closed(table, table.orbit_of[k1])
        return None
    word = table.path_word(k1).invert() + table.path_word(k2)
    # re-verify the path before returning it
    if table._act(k1, word.gens) != k2:
        raise ObjectOutOfDomain("internal: path verification failed")
    return word
