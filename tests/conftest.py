"""Shared test configuration.

Collects the verdicts recorded by the acceptance suite and prints one
line per criterion after the normal pytest summary, so a reader can see
at a glance which end-to-end guarantees hold without scrolling through
individual test ids.  Fails any test that leaves a thread running.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable

import pytest

# number -> (label, passed); populated by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def criterion(number: int, label: str) -> Callable:
    """Mark a test as one acceptance criterion.

    Registers FAIL up front and flips it to PASS only when the test body
    returns, so an assertion anywhere inside leaves a FAIL line behind.
    """

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(*args, **kwargs):
            ACCEPTANCE_RESULTS[number] = (label, False)
            out = fn(*args, **kwargs)
            ACCEPTANCE_RESULTS[number] = (label, True)
            return out

        return run

    return wrap


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running.  Threads the test started
    get a short grace period to end; the engine shuts every pool down
    before its call returns, so none should need it."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    deadline = time.monotonic() + 1.0
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = [thread.name for thread in started if thread.is_alive()]
    if alive:
        pytest.fail(f"threads left running: {', '.join(alive)}")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, passed = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({label}): {verdict}")
