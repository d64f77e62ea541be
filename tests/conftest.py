import random
import signal
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


class _Deadline(BaseException):
    """Raised by ``within``'s timer: not an ``Exception``, so no
    ``except Exception`` in the code under test can swallow it."""


def within(seconds, call):
    """Run ``call`` with a deadline; its result, or the exception it raised.

    The call runs in the main thread under a real-time interval timer whose
    handler raises ``_Deadline``, so a call that misses the deadline is
    stopped and fails the assertion.  The clock is read as well: one long C
    call (a huge int power) delays the signal until it returns."""

    def expire(signum, frame):
        raise _Deadline

    missed = False
    old = signal.signal(signal.SIGALRM, expire)
    start = time.monotonic()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                result = call()
            except Exception as e:  # the caller checks which
                result = e
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Deadline:
            missed = True
    finally:
        signal.signal(signal.SIGALRM, old)
    assert not missed, f"call missed its {seconds} s deadline"
    assert time.monotonic() - start < seconds
    return result
