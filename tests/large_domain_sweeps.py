"""Every object of two large frame domains through its completion: the
Sp_4 frames of two rows over Z/4 (15,360 objects) and the O_6 frames of two
rows over F_3 (21,060 objects).  The orbit BFS builds both tables, so the
sweep runs it end to end as well.

For each object, the leading rows of eval(word) of its completion word must
equal the object, and the word must rebuild unchanged through the public
``Generator``/``GenWord`` checks.  The sweeps take a few seconds each, so
they run as their own CI step, outside tier-1; pytest does not collect this
file.  Run it from the repository root:

    PYTHONPATH=src python tests/large_domain_sweeps.py

It prints one line per domain and exits 1 at the first object that fails.
"""

import sys
import time

from cgf.matrices import IsotropicFrame, Mat
from cgf.oracle import enumerate_orbits
from cgf.reduce import complete_orth, complete_sp
from cgf.rings import ModularRing, PrimeField

from test_domains import _publicly_rebuilt

# (ring, family, size, frame rows, objects in the table, completion)
DOMAINS = [
    (ModularRing(4), "sp", 4, 2, 15360, complete_sp),
    (PrimeField(3), "orth", 6, 2, 21060, complete_orth),
]


def sweep(ring, family, size, frame_rows, objects, complete) -> str | None:
    """None when every object of the domain completes, else what failed."""
    table = enumerate_orbits(ring, "frame", family, size, frame_rows)
    if len(table.orbit_of) != objects:
        return f"{len(table.orbit_of)} objects, expected {objects}"
    for key in table.orbit_of:
        word = complete(IsotropicFrame(Mat._box(ring, key), family))
        if word.eval()._grid[:frame_rows] != key:
            return f"eval(word) does not lead with {key}"
        if _publicly_rebuilt(word) != word:
            return f"the word of {key} does not rebuild publicly"
    return None


def main() -> int:
    for ring, family, size, frame_rows, objects, complete in DOMAINS:
        start = time.perf_counter()
        failure = sweep(ring, family, size, frame_rows, objects, complete)
        name = f"{family} {frame_rows}x{size} over {ring}"
        if failure is not None:
            print(f"{name}: {failure}", file=sys.stderr)
            return 1
        print(f"{name}: {objects} objects in "
              f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
