"""Host speed probe: how fast this host ran while a pass was measured.

The benchmark shares a few cores of a busy host.  The host's speed for
the same Python code swings by up to 1.5x from one second to the next,
and each vCPU swings on its own, so two timings of identical work can
differ by more than any bound a later change could be judged by.

The probe measures that speed where the work runs.  A CPU-time interval
timer (``ITIMER_PROF``) fires every ``INTERVAL_S`` CPU seconds; its
handler times ``kernel()``, a fixed piece of Python work that never
changes with the program, and adds up ``REFERENCE_S / elapsed`` over
its samples.  The mean over a pass's samples is the pass's *speed
factor*: 1.0 on a host that runs the kernel in
``REFERENCE_S``, 0.7 on one that runs 30% slower.  Because the timer
counts CPU time, samples fall where the work is and in proportion to
it; a process blocked on its pool takes none.

Forked children (the program's process-pool workers) start their own
timer from an ``os.register_at_fork`` hook and keep their running
totals in a small file in the probe's directory, rewritten after every
sample, so no code inside the program is touched.  A worker killed
mid-task loses at most its last sample.

Multiplying a measured time by the factor gives the time the work would
take at reference speed.  Samples cost about 2-3% of the CPU they watch.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import random
import signal
import time
from pathlib import Path

#: CPU seconds between samples.
INTERVAL_S = 0.1
#: The kernel's time on an unloaded host (Intel Xeon, Sapphire Rapids,
#: 2 vCPUs), so that factors read near 1.0 there.
REFERENCE_S = 0.0015


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


_rss_before = _rss_mb()
#: Data the kernel works on: a 1500-entry dictionary, and 300000 small
#: lists (about 50 MB, more than the caches hold) to chase pointers
#: through at fixed random rows.
_TABLE: dict = {}
_ROWS = [[i, i + 1, -i] for i in range(300000)]
_PICKS = [random.Random(5).randrange(len(_ROWS)) for _ in range(3000)]


def kernel() -> int:
    """Fixed reference work in three parts that the host slows down
    differently: hashing tuples into a dictionary, chasing pointers
    through more data than the caches hold, and plain integer
    arithmetic.  Their sum follows the program's speed far better than
    any one part (the memory part alone over-corrects, the other two
    under-correct)."""
    table = _TABLE
    for i in range(1500):
        table[(i, i & 7)] = table.get((i ^ 5, i & 7), 0) + 1
    rows = _ROWS
    total = 0
    for i in _PICKS:
        total += rows[i][1]
    for i in range(7500):
        total = (total * 31 + i) & 0xFFFF
    return total


kernel()
#: Resident memory the probe's data adds to every process it samples.
FOOTPRINT_MB = _rss_mb() - _rss_before
# Keep the kernel's data out of the program's garbage collections.
gc.freeze()


class _State:
    def __init__(self) -> None:
        self.directory: Path | None = None
        self.pid = os.getpid()
        self.samples = 0
        self.speed_sum = 0.0


_state = _State()


def _record(elapsed: float) -> None:
    _state.samples += 1
    _state.speed_sum += REFERENCE_S / elapsed


def _on_timer(_signum, _frame) -> None:
    started = time.perf_counter()
    kernel()
    _record(time.perf_counter() - started)
    if _state.pid != _main_pid and _state.directory is not None:
        path = _state.directory / f"worker-{_state.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([_state.samples, _state.speed_sum]))
        os.replace(tmp, path)


def _arm() -> None:
    signal.signal(signal.SIGPROF, _on_timer)
    # Restart interrupted system calls instead of failing them.
    signal.siginterrupt(signal.SIGPROF, False)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def _after_fork_in_child() -> None:
    _state.pid = os.getpid()
    _state.samples = 0
    _state.speed_sum = 0.0
    _arm()


_main_pid = os.getpid()


def start(directory: Path) -> None:
    """Start sampling in this process and in every child it forks."""
    global _main_pid
    directory.mkdir(parents=True, exist_ok=True)
    _main_pid = os.getpid()
    _state.directory = directory
    _state.pid = _main_pid
    os.register_at_fork(after_in_child=_after_fork_in_child)
    # A timer left armed past interpreter shutdown would kill the
    # process with SIGPROF's default action.
    atexit.register(stop)
    _arm()


def stop() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


class Window:
    """The samples taken from now on, here and in children forked later."""

    def __init__(self) -> None:
        for path in _state.directory.glob("worker-*.json"):
            path.unlink()
        self.samples = _state.samples
        self.speed_sum = _state.speed_sum

    def factor(self) -> tuple[float, int]:
        """Mean speed factor over the window and its number of samples."""
        samples = _state.samples - self.samples
        speed_sum = _state.speed_sum - self.speed_sum
        for path in _state.directory.glob("worker-*.json"):
            worker_samples, worker_sum = json.loads(path.read_text())
            samples += worker_samples
            speed_sum += worker_sum
        if samples == 0:
            # A window shorter than one interval: time the kernel now.
            for _ in range(3):
                started = time.perf_counter()
                kernel()
                speed_sum += REFERENCE_S / (time.perf_counter() - started)
            samples = 3
        return speed_sum / samples, samples
