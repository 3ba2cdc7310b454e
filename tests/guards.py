"""Time guards for tests that must fail rather than hang."""

import signal
import time
from contextlib import contextmanager


@contextmanager
def within(seconds):
    """Fail, rather than hang, when the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds
