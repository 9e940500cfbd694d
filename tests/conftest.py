"""Fixtures shared by the test modules."""

import signal

import pytest


class _Overtime(Exception):
    """Raised by the alarm; not an OSError, so cli.main lets it through."""


def _within(seconds, fn, *args, **kwargs):
    """fn(*args, **kwargs), failing the test if it is still running after
    `seconds`.  The alarm handler only raises; the test fails outside it,
    since pytest.fail inside a signal handler crashes pytest when the alarm
    lands in a frame without a line number."""

    def on_alarm(*_):
        raise _Overtime

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        return fn(*args, **kwargs)
    except _Overtime:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    pytest.fail(f"still running after {seconds} s")


@pytest.fixture
def within():
    """The time cap `within(seconds, fn, *args, **kwargs)`: turns a hang into a failure."""
    return _within
