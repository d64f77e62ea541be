#!/usr/bin/env python3
"""The brute-force oracle: exhaustive BFS orbits over tiny finite rings.

Orbit tables partition all unimodular rows under the right generator
action, store predecessor links, and certify any claimed equivalence with
an explicit path word - or refute it definitively.
"""

import json

from cgf import (ModularRing, OrbitTable, certify_equivalence,
                 enumerate_orbits, reduce_row_linear, Mat)
from cgf.words import FAMILY_LIN, apply_word_to_row

print("== Um_2(Z/2): one orbit of size 3 ==")
Z2 = ModularRing(2)
table = enumerate_orbits(Z2, "row", FAMILY_LIN, 2)
print("orbits:", table.orbit_count(), "| sizes:", table.orbit_sizes())
print("domain:", sorted(table.orbit_of))

print()
print("== path certification ==")
word = certify_equivalence((1, 0), (1, 1), table)
print("(1,0) -> (1,1) via", word)

print()
print("== transitivity over local rings cross-checks the reduction ==")
for ring in (ModularRing(4), ModularRing(8), ModularRing(9)):
    t = enumerate_orbits(ring, "row", FAMILY_LIN, 2)
    print(f"{ring}: {t.orbit_count()} orbit of size {t.orbit_sizes()[0]}")
    # the reduction word and the oracle path may differ; the target agrees
    some = next(iter(sorted(t.orbit_of)))
    row = [ring.coerce(p) for p in some]
    red = reduce_row_linear(Mat(ring, [row]))
    out = apply_word_to_row(row, red)
    e1 = tuple([ring.one().payload] + [ring.zero().payload])
    oracle_word = certify_equivalence(some, e1, t)
    print(f"    {some}: reduction length {len(red)}, "
          f"oracle path length {len(oracle_word)}, same target:",
          tuple(v.payload for v in out) == e1)

print()
print("== determinism: re-enumeration and a JSON round trip ==")
a = enumerate_orbits(ModularRing(4), "row", FAMILY_LIN, 3)
b = enumerate_orbits(ModularRing(4), "row", FAMILY_LIN, 3)
print("Um_3(Z/4) orbit sizes:", a.orbit_sizes())
print("identical tables:", a.orbit_of == b.orbit_of and a.pred == b.pred)
dumped = json.dumps(a.to_json())
back = OrbitTable.from_json(json.loads(dumped))
print("identical JSON after a round trip:",
      json.dumps(back.to_json()) == dumped)
