"""A time cap on every test, so that a run whose numbers blow up (a wrong
frame factor compounds, and its denominators grow without bound) fails
instead of hanging the suite.  The cap is far above any test's normal time;
the whole suite runs in a little over a minute (515 tests in 73 s on a
shared 2-CPU host).

The alarm's handler runs between bytecodes, so one long C call (a `gcd` on
blown-up numbers inside `Fraction`) finishes before the test fails: a test
can overrun the cap by as long as its longest such call, and a cap in
seconds is a lower bound on when a blow-up fails."""

from __future__ import annotations

import signal

import pytest

CAP_SECONDS = 300


class TestTimeCapExceeded(BaseException):
    """Raised in a test that ran past `CAP_SECONDS`.  It is not an
    `Exception`, so the code under test cannot catch it as a runtime error
    and turn it into an exit code."""

    __test__ = False  # not a test class, despite its name


def _expired(signum, frame):
    raise TestTimeCapExceeded(f"test ran for more than {CAP_SECONDS} s")


@pytest.fixture(autouse=True)
def _time_cap():
    """Arm a real-time timer for the test's call and its fixtures, and
    disarm it after.  Where the platform has no `setitimer`, no cap."""
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, CAP_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
