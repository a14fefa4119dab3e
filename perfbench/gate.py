"""Timings scaled to a reference machine speed, for a shared host.

On a shared host the same code runs up to 1.7x slower for stretches of a
fraction of a second to minutes, whatever the program does.  A short
fixed reference kernel, timed right before and right after every
measurement, shows how fast the machine ran.  Each timing is reported
scaled by REFERENCE_S / (mean of its two probes): the time the call would
take on a machine where the kernel takes REFERENCE_S.  A measurement whose
two probes disagree by more than STABLE saw the machine change speed; the
call is then retimed, after its lasting effects are undone.  The kernel
never touches the package under test.
"""

from __future__ import annotations

import time

# the kernel's time at full speed on the machine the bounds were set on
# (2 vCPUs, Python 3.11.7)
REFERENCE_S = 3.3e-4
STABLE = 1.25
_PROBE_SIZE = 2000


def _kernel() -> int:
    acc: dict[tuple[int, int], int] = {}
    for i in range(_PROBE_SIZE):
        key = (i & 63, i % 7)
        acc[key] = acc.get(key, 0) + i
    return len(acc)


def probe() -> float:
    """One timed run of the kernel, after an untimed one: the first run
    after other code, a child process above all, reads ~10% slow from cold
    caches alone."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REFERENCE_S / (before + after)


def timed(fn, *args):
    """(result, seconds, scaled seconds, stable) for one call of fn."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    after = probe()
    stable = max(before, after) <= STABLE * min(before, after)
    return result, elapsed, scale(elapsed, before, after), stable


def retimed(fn, *args, undo=None, attempts: int = 3):
    """timed(), repeated until the machine kept its speed during the call.

    Only for calls with the same result every time; ``undo`` (untimed)
    takes back a call's lasting effects before the next attempt.  The
    previous result is released before the next call, so that two are
    never alive at once.
    """
    for attempt in range(attempts):
        if attempt and undo:
            undo()
        measured = None
        measured = timed(fn, *args)
        if measured[3]:
            break
    return measured
