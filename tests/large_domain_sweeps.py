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
``Generator``/``GenWord`` checks.  The sweeps take a few seconds each, so
they run as their own CI step, outside tier-1; pytest does not collect this
file.  Run it from the repository root:

    PYTHONPATH=src python tests/large_domain_sweeps.py

It prints one line per domain, with the seconds the table took to
enumerate, to dump and to load, and exits 1 at the first failure.
"""

import json
import sys
import time

from cgf.matrices import IsotropicFrame, Mat
from cgf.oracle import OrbitTable, enumerate_orbits
from cgf.reduce import complete_orth, complete_sp
from cgf.rings import ModularRing, PrimeField, TruncatedPolyLocal

from test_domains import _publicly_rebuilt

# (ring, family, size, frame rows, objects in the table, completion)
DOMAINS = [
    (ModularRing(4), "sp", 4, 2, 15360, complete_sp),
    (TruncatedPolyLocal(2, 2), "sp", 4, 2, 15360, complete_sp),
    (PrimeField(3), "orth", 6, 2, 21060, complete_orth),
]


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
