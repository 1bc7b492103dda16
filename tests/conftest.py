"""A time limit for every test outside `slow`: a kernel bug that makes a test
hang fails it instead of holding up the suite.  Past the limit, faulthandler
dumps every thread's stack to stderr and SIGALRM raises inside the test.
The slowest tier-1 test takes a few seconds."""

import faulthandler
import signal

import pytest

LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Derives from BaseException so that hypothesis does not take it for a
    failing example and replay it without the limit."""


def _expire(signum, frame):
    # a raise that lands in a gc callback is swallowed, so ask again in 1 s
    signal.alarm(1)
    raise TimeLimitExceeded(f"test ran past its {LIMIT_S} s limit")


def _limited(item):
    if item.get_closest_marker("slow") or not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    faulthandler.dump_traceback_later(LIMIT_S)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _limited(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _limited(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _limited(item)
