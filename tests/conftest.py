"""A wall-clock limit on every test, so that a test which hangs fails instead.

The slowest test takes a few seconds; a broken Gröbner step can run for
minutes under the engine's own budgets before any of them trips.
"""

import signal

import pytest

TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def wall_clock_limit():
    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_SECONDS} s wall-clock limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
