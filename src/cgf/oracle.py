"""Brute-force certification over tiny finite rings: exhaustive BFS orbits
of the right generator action on rows and frames, with predecessor links so
any claimed equivalence can be re-derived as an explicit path word.

Determinism: objects are enumerated in lexicographic payload order,
generators are ordered by (i, j, parameter key), and when several frontier
edges reach the same new object the lowest-ordered (parent, generator) pair
wins: the frontier is kept in key order, so that pair proposes it first.

The generator action is compiled once per enumeration: each catalog
generator becomes its column updates col_t += c * col_s as 0-based payload
triples (``Generator._payload_updates``), and one row kernel applies them to
a payload tuple with the ring's ``fma``.  A frame key applies the kernel to
each of its rows, a row key is a one-row frame, and the path check and the
closure check of ``certify_equivalence`` run the same kernel.  The kernel
reports a generator whose source entries are all zero as fixing the object
instead of copying it.  Skipping that edge keeps the tie rule: the fixed
object is the parent itself, already in the table, so it was never a
proposal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

from .errors import (DescriptorMismatch, ObjectOutOfDomain,
                     SearchBudgetExceeded, ShapeMismatch, UnsupportedRing,
                     WitnessCheckFailed)
from .matrices import Mat
from .rings import Ring, _residue_modulus, ring_from_json, unit_ideal_witness
from .words import FAMILY_ORTH, Generator, GenWord, paired_index

FORMAT_VERSION = 1
DEFAULT_BUDGET = 10 ** 7


def _is_unimodular_row(ring: Ring, values) -> bool:
    if ring.is_zero_ring:
        return True
    if ring.is_local:
        return any(v.is_unit() for v in values)
    modulus = _residue_modulus(ring)
    if modulus is None:
        return unit_ideal_witness(ring, list(values)) is not None
    return gcd(modulus, *(v.payload for v in values)) == 1


def generator_catalog(ring: Ring, family: str, size: int):
    """All generators with nonzero parameters, in canonical order."""
    nonzero = [v for v in ring.elements() if not v.is_zero()]
    nonzero.sort(key=lambda v: ring.sort_key(v.payload))
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


def _key_action(table: "OrbitTable"):
    """The right action of one compiled generator (its
    ``_payload_updates()``) on a key of ``table``: the new key, or None when
    every source entry is zero, so that the generator fixes the key."""
    ring = table.ring
    fma, zero = ring.fma, ring.zero().payload

    def act_row(row, updates):
        new = None
        for t, s, c in updates:
            x = (new or row)[s]
            if x != zero:
                if new is None:
                    new = list(row)
                new[t] = fma(new[t], c, x)
        return None if new is None else tuple(new)

    if table.kind == "row":
        return act_row

    def act_frame(frame, updates):
        new = None
        for k, row in enumerate(frame):
            moved = act_row(row, updates)
            if moved is not None:
                if new is None:
                    new = list(frame)
                new[k] = moved
        return None if new is None else tuple(new)

    return act_frame


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

    def contains(self, key) -> bool:
        return key in self.orbit_of

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

        def dec_key(v):
            if kind == "row":
                return tuple(ring.value_from_json(p).payload for p in v)
            return tuple(tuple(ring.value_from_json(p).payload for p in row)
                         for row in v)

        table = OrbitTable(ring, kind, obj["family"], int(obj["size"]),
                           int(obj.get("frame_rows", 0)))
        for entry in obj["objects"]:
            key = dec_key(entry["v"])
            table.orbit_of[key] = int(entry["orbit"])
            if entry["pred"] is not None:
                pk = dec_key(entry["pred"][0])
                gj = entry["pred"][1]
                g = Generator(obj["family"], int(gj["i"]), int(gj["j"]),
                              ring.value_from_json(gj["param"]), int(obj["size"]))
                table.pred[key] = (pk, g)
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
        act, of = _key_action(self), self.orbit_of
        for key, link in self.pred.items():
            if link is not None and (
                    of.get(link[0]) != of[key] or
                    act(link[0], link[1]._payload_updates()) != key):
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


def _bfs_closure(table: OrbitTable, start_keys, gens, budget: int):
    """Deterministic multi-source BFS; ties between frontier edges pick the
    least (parent, generator), which is the first to propose the object."""
    act = _key_action(table)
    compiled = [(g, g._payload_updates()) for g in gens]
    for root in start_keys:
        if root in table.orbit_of:
            continue
        oid = len(table.reps)
        table.reps.append(root)
        table.orbit_of[root] = oid
        table.pred[root] = None
        frontier = [root]
        while frontier:
            proposals: dict = {}
            for node in frontier:
                for g, updates in compiled:
                    new = act(node, updates)
                    if new is not None and new not in table.orbit_of:
                        proposals.setdefault(new, (node, g))
            next_frontier = []
            for new, (parent, g) in sorted(
                    proposals.items(), key=lambda kv: table._key_order(kv[0])):
                table.orbit_of[new] = oid
                table.pred[new] = (parent, g)
                next_frontier.append(new)
                if len(table.orbit_of) > budget:
                    raise SearchBudgetExceeded(
                        f"orbit table exceeded budget {budget}")
            frontier = next_frontier


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
        if ring.cardinality() ** size > budget:
            raise SearchBudgetExceeded(
                f"{ring.cardinality()}^{size} objects exceed budget {budget}")
        table = OrbitTable(ring, "row", family, size)
        gens = generator_catalog(ring, family, size) if size >= 2 else []
        pool = list(ring.elements())
        domain = []
        for combo in itertools.product(pool, repeat=size):
            if _is_unimodular_row(ring, combo):
                domain.append(tuple(v.payload for v in combo))
        domain.sort(key=table._key_order)
        if not gens:
            for key in domain:
                table.orbit_of[key] = len(table.reps)
                table.pred[key] = None
                table.reps.append(key)
            return table
        _bfs_closure(table, domain, gens, budget)
        return table
    if kind == "frame":
        if frame_rows <= 0 or frame_rows > size:
            raise ObjectOutOfDomain("frame kind needs frame_rows in 1..size")
        table = OrbitTable(ring, "frame", family, size, frame_rows)
        gens = generator_catalog(ring, family, size)
        standard = Mat.identity(ring, size)._grid[:frame_rows]
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
    act, of = _key_action(table), table.orbit_of
    compiled = [g._payload_updates() for g in
                generator_catalog(table.ring, table.family, table.size)]
    for key in [k for k, o in of.items() if o == oid]:
        for updates in compiled:
            image = act(key, updates)
            if image is not None and of.get(image) != oid:
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
    act = _key_action(table)
    cur = k1
    for g in word:
        cur = act(cur, g._payload_updates()) or cur
    if cur != k2:
        raise ObjectOutOfDomain("internal: path verification failed")
    return word
