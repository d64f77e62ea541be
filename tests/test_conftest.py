"""The suite's own helpers."""

import signal
import time

import pytest

from conftest import within


def test_within_returns_the_result_or_the_exception():
    assert within(5, lambda: 3) == 3
    assert type(within(5, lambda: 1 // 0)) is ZeroDivisionError


def test_within_stops_a_call_that_misses_its_deadline():
    old = signal.getsignal(signal.SIGALRM)
    count = [0]

    def spin():
        while True:
            try:
                count[0] += 1
            except Exception:  # the deadline must get through
                pass

    with pytest.raises(AssertionError):
        within(0.2, spin)
    stopped = count[0]
    time.sleep(0.2)
    assert stopped > 0 and count[0] == stopped
    # the handler is restored and the timer is off
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
