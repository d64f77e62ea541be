"""Every object of three large frame domains through its completion: the
Sp_4 frames of two rows over Z/4 and over F_2[x]/(x^2) (15,360 objects
each) and the O_6 frames of two rows over F_3 (21,060 objects).  The orbit
BFS builds each table, so the sweep runs it end to end as well, and sends
each table through ``json.dumps``, ``json.loads`` and
``OrbitTable.from_json``: the load must equal the table and dump the same
bytes again.  Over F_2[x]/(x^2), a ring that is no Z/m, the entries are
lists, ranked in closed form, and the load reads each distinct row once.

For each object, the leading rows of eval(word) of its completion word must
equal the object, and the word must rebuild unchanged through the public
``Generator``/``GenWord`` checks.

A frame table's proven size stops its BFS and refuses it past the budget
(``oracle._frame_orbit_count``); a size too small would cut a table short
without an error.  So every lin, sp and orth frame table of sizes 2 to 6
and every number of rows over the ``COUNT_RINGS`` is built at a budget of
5,000 twice, with its count used and withheld, and each pair must dump
the same bytes or raise the same error.  Over F_2 x F_2 the lin 1 x 9
frame table and the lin row table of 9 must each hold its 261,121
unimodular rows in one orbit.

A row table's BFS skips the runs whose images lie on a line it has swept
already (``oracle._Codec.expander``); a line swept by mistake would leave
an image unproposed without an error.  So every lin, sp and orth row table
and one-row frame table of at most 2,000 codes over the ``COUNT_RINGS`` is
built by the library and by the reference BFS of tests/test_oracle.py,
which proposes every image, and the two must dump the same bytes.

The sweeps take a few seconds each, so they run as their own CI step,
outside tier-1; pytest does not collect this file.  Run it from the
repository root:

    PYTHONPATH=src python tests/large_domain_sweeps.py

It prints one line per domain, with the seconds the table took to
enumerate, to dump and to load, one line for the count sweep, one for
each F_2 x F_2 table and one for the row sweep, and exits 1 at the first
failure.
"""

import json
import sys
import time
from unittest import mock

from cgf import oracle
from cgf.errors import CgfError
from cgf.matrices import IsotropicFrame, Mat
from cgf.oracle import OrbitTable, enumerate_orbits
from cgf.reduce import complete_orth, complete_sp
from cgf.rings import (ModularRing, PolyExt, PrimeField, QuotientRing,
                       TruncatedPolyLocal)

from test_domains import _publicly_rebuilt
from test_oracle import _bfs_closure_ref, _sweep_shapes

# (ring, family, size, frame rows, objects in the table, completion)
DOMAINS = [
    (ModularRing(4), "sp", 4, 2, 15360, complete_sp),
    (TruncatedPolyLocal(2, 2), "sp", 4, 2, 15360, complete_sp),
    (PrimeField(3), "orth", 6, 2, 21060, complete_orth),
]


# Z/m local and not, the zero ring, a field, and as JSON quotients
# F_3[x]/(x^2), F_2 x F_2, F_3 x F_3 and F_2[x]/(x^3 + x), the last three
# split into local parts by trial division
F2xF2 = QuotientRing(PolyExt(PrimeField(2), "x"), [(0, 1, 1)])
COUNT_RINGS = [ModularRing(n) for n in (1, 2, 3, 4, 6, 9, 10, 12, 15)] + [
    PrimeField(5), QuotientRing(PolyExt(PrimeField(3), "x"), [(0, 0, 1)]),
    F2xF2, QuotientRing(PolyExt(PrimeField(3), "x"), [(2, 0, 1)]),
    QuotientRing(PolyExt(PrimeField(2), "x"), [(0, 1, 0, 1)])]
COUNT_BUDGET = 5000
ROW_CODES = 2000


class SweepFailed(Exception):
    """What failed in a domain's sweep."""


def round_trip(table) -> tuple:
    """(dump seconds, load seconds, what failed or None) of sending
    ``table`` through JSON and back."""
    start = time.perf_counter()
    blob = json.dumps(table.to_json())
    dumped = time.perf_counter()
    back = OrbitTable.from_json(json.loads(blob))
    loaded = time.perf_counter()
    failure = None
    if back != table:
        failure = "the loaded table differs"
    elif json.dumps(back.to_json()) != blob:
        failure = "the loaded table dumps other bytes"
    return dumped - start, loaded - dumped, failure


def sweep(ring, family, size, frame_rows, objects, complete) -> str:
    """The times of the table's enumeration and round trip when every
    object of the domain completes, else what failed."""
    start = time.perf_counter()
    table = enumerate_orbits(ring, "frame", family, size, frame_rows)
    enumerated = time.perf_counter() - start
    if sum(table.orbit_sizes()) != objects:
        raise SweepFailed(f"{sum(table.orbit_sizes())} objects, "
                             f"expected {objects}")
    dumped, loaded, failure = round_trip(table)
    if failure is not None:
        raise SweepFailed(failure)
    for key in table.orbit_of:
        word = complete(IsotropicFrame(Mat._box(ring, key), family))
        if word.eval()._grid[:frame_rows] != key:
            raise SweepFailed(f"eval(word) does not lead with {key}")
        if _publicly_rebuilt(word) != word:
            raise SweepFailed(f"the word of {key} does not rebuild "
                                 "publicly")
    return (f"enumerated in {enumerated:.2f} s, dumped in {dumped:.2f} s, "
            f"loaded in {loaded:.2f} s")


def frame_outcome(ring, family, size, frame_rows) -> str:
    """The bytes of the frame table at ``COUNT_BUDGET``, or its error."""
    try:
        table = enumerate_orbits(ring, "frame", family, size, frame_rows,
                                 budget=COUNT_BUDGET)
    except CgfError as error:
        return json.dumps(error.to_json())
    return json.dumps(table.to_json(), sort_keys=True)


def count_sweep() -> int:
    """The number of frame tables built with their count used and
    withheld; raises SweepFailed at the first pair that differs."""
    built = 0
    for ring in COUNT_RINGS:
        for family in ("lin", "sp", "orth"):
            for size in range(2, 7, 1 if family == "lin" else 2):
                for rows in range(1, size + 1):
                    shape = ring, family, size, rows
                    used = frame_outcome(*shape)
                    with mock.patch.object(oracle, "_frame_orbit_count",
                                           lambda *args: None):
                        withheld = frame_outcome(*shape)
                    if used != withheld:
                        raise SweepFailed(
                            f"{family} {rows}x{size} over {ring}: the "
                            "count changes the table")
                    built += 1
    return built


def row_sweep() -> int:
    """The number of row tables and one-row frame tables of at most
    ``ROW_CODES`` codes built by the library and by the reference BFS;
    raises SweepFailed at the first pair whose bytes differ."""
    built = 0
    for ring in COUNT_RINGS:
        for spec in _sweep_shapes(ring, ROW_CODES):
            table = enumerate_orbits(ring, spec[0], spec[1], spec[2],
                                     spec[3])
            want = OrbitTable(ring, *spec, *_bfs_closure_ref(ring, *spec))
            if json.dumps(table.to_json()) != json.dumps(want.to_json()):
                raise SweepFailed(f"{spec[0]} {spec[1]} of {spec[2]} over "
                                  f"{ring}: the reference BFS differs")
            built += 1
    return built


def main() -> int:
    for ring, family, size, frame_rows, objects, complete in DOMAINS:
        start = time.perf_counter()
        name = f"{family} {frame_rows}x{size} over {ring}"
        try:
            times = sweep(ring, family, size, frame_rows, objects, complete)
        except SweepFailed as failure:
            print(f"{name}: {failure}", file=sys.stderr)
            return 1
        print(f"{name}: {objects} objects in "
              f"{time.perf_counter() - start:.1f} s; table {times}")
    start = time.perf_counter()
    try:
        built = count_sweep()
    except SweepFailed as failure:
        print(f"frame counts: {failure}", file=sys.stderr)
        return 1
    print(f"frame counts: {built} tables the same with the count used and "
          f"withheld in {time.perf_counter() - start:.1f} s")
    for kind, rows, name in (("frame", 1, "lin 1x9"),
                             ("row", 0, "lin rows of 9")):
        start = time.perf_counter()
        sizes = enumerate_orbits(F2xF2, kind, "lin", 9, rows).orbit_sizes()
        if sizes != [261121]:
            print(f"{name} over F_2 x F_2: orbit sizes {sizes[:5]}, "
                  "expected [261121]", file=sys.stderr)
            return 1
        print(f"{name} over F_2 x F_2: 261121 objects in one orbit in "
              f"{time.perf_counter() - start:.1f} s")
    start = time.perf_counter()
    try:
        built = row_sweep()
    except SweepFailed as failure:
        print(f"row tables: {failure}", file=sys.stderr)
        return 1
    print(f"row tables: {built} tables the same as the reference BFS's in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
