"""Shared test helpers."""

import contextlib
import signal

import pytest


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the running test when its ``with`` body takes over ``seconds``.

    A hang then fails one test instead of stalling the suite (pytest-timeout is
    not a dependency).  The body runs under a real-time ``SIGALRM`` timer; the
    previous handler is restored afterwards.  Where ``SIGALRM`` does not exist,
    the body runs unguarded.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"time limit of {seconds} s exceeded", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
