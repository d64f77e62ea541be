import random
import threading
import time

import pytest

from cgf.rings import (FractionRing, IntegerRing, LocalizedIntegers,
                       ModularRing, PolyExt, PrimeField, QuotientRing,
                       RationalField, TruncatedPolyLocal)


@pytest.fixture
def rng():
    return random.Random(20240811)


def local_test_rings():
    """The small local rings used throughout the suite."""
    return [ModularRing(4), ModularRing(8), ModularRing(9),
            TruncatedPolyLocal(2, 2), TruncatedPolyLocal(3, 2),
            PrimeField(5)]


def all_test_rings():
    return local_test_rings() + [
        IntegerRing(), RationalField(), ModularRing(6),
        LocalizedIntegers(5), PolyExt(ModularRing(4), "T"),
        FractionRing(IntegerRing(), 6),
        QuotientRing(ModularRing(4), [2]),
    ]


def random_unit(rng, ring, tries=64):
    """A random unit of ``ring`` drawn from ``rng``, or ``ring.one()``
    after ``tries`` draws that are not units."""
    for _ in range(tries):
        v = ring.random(rng)
        if v.is_unit():
            return v
    return ring.one()


def within(seconds, call):
    """Run ``call`` in a thread with a deadline; its result, or the
    exception it raised.  The clock is read as well: one long C call (a huge
    int power) holds the interpreter lock past the join's timeout."""
    results = []

    def run():
        try:
            results.append(call())
        except Exception as e:  # the caller checks which
            results.append(e)

    start = time.monotonic()
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive() and len(results) == 1
    assert time.monotonic() - start < seconds
    return results[0]
