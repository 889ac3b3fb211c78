"""Cooperative cancellation of in-flight solver work.

A portfolio race is only worth running if the loser stops once the
winner has answered.  The scheduler allocates one shared-memory flag
per in-flight pool slot before the pool forks (:func:`install` is the
pool initializer); each pool task runs under :func:`watching` its
slot's flag, and the scheduler sets the flag of every sibling still
running once a race is decided.

Every engine (BMC, k-induction, PDR) reaches the SAT layer through
``Solver.solve_limited``, which polls the flag on entry and once per
conflict, and the external-solver bridge polls it while its binary
runs.  A set flag raises :class:`SearchCancelled` out of the engine;
the pool task turns it into a cancelled attempt carrying the partial
effort.  In-process checks never watch a flag, so for them a poll is
one global load.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

# The flags this process inherited from its pool's initializer, and the
# slot of the task it is running (None outside a watched task).
_flags: Sequence[int] | None = None
_slot: int | None = None


class SearchCancelled(BaseException):
    """The running attempt's cancel flag was set mid-search.

    A ``BaseException`` (like ``asyncio.CancelledError``) so that broad
    ``except Exception`` handlers on the way up cannot swallow it.
    ``stats`` is the :class:`~repro.sat.solver.SatStats` of the solver
    that saw the flag; ``max_depth`` is filled in by the engine's
    :class:`~repro.mc.frame.StatsTimer` as the exception leaves it.
    """

    def __init__(self, stats=None):
        super().__init__("search cancelled")
        self.stats = stats
        self.max_depth = 0


def install(flags: Sequence[int] | None) -> None:
    """Adopt the shared flag array (the pool workers' initializer)."""
    global _flags
    _flags = flags


@contextmanager
def watching(slot: int | None) -> Iterator[None]:
    """Poll flag ``slot`` for the duration of the body (``None``: none)."""
    global _slot
    previous, _slot = _slot, slot if _flags is not None else None
    try:
        yield
    finally:
        _slot = previous


def requested() -> bool:
    """Has the watched flag been set?"""
    return _slot is not None and _flags[_slot] != 0


def check(stats=None) -> None:
    """Raise :class:`SearchCancelled` (carrying ``stats``) if requested."""
    if _slot is not None and _flags[_slot]:
        raise SearchCancelled(stats)
