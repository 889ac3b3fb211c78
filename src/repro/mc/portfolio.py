"""Portfolio scheduling of check tasks: one race loop over one pool.

The :class:`PortfolioScheduler` takes a batch of verification tasks
(one per property), expands each into a *race* of complementary
strategies (a prover like k-induction plus a refuter like BMC), runs
every race's attempts through one loop, and streams per-property
outcomes back **in completion order**:

* the first *conclusive* result (PROVEN / VIOLATED) for a property wins
  its race.  Siblings not started yet are skipped; siblings already
  running are cancelled mid-solve: the scheduler sets their shared
  cancel flag, which every engine polls in the SAT layer (see
  :mod:`repro.sat.cancel`).  The outcome is yielded once they have
  stopped, and their partial effort lands in the effort ledger as
  ``"cancelled"`` rows;
* if every strategy comes back inconclusive, the most informative
  inconclusive result is reported (earliest strategy in the configured
  order, so a k-induction UNKNOWN with its step CEX beats a BMC
  BOUNDED_OK);
* results are looked up in / stored to a shared
  :class:`~repro.mc.cache.ResultCache` first, so repeated batches cost
  nothing.  Only finished attempts are stored: a cancelled attempt has
  no answer, and never reaches the cache.

With ``jobs > 1`` up to ``jobs`` attempts run at once in a process pool
that starts on first use and serves every later ``stream()`` call until
``close()`` (the scheduler is a context manager).  ``jobs=1`` (the
default) is the same loop with one inline slot: no pool and no
pickling, strategies execute in configured order and stop at the first
conclusive verdict.  This path is deterministic and is what the flows
use under test.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.cache import (ResultCache, cached_check, query_key,
                            strategy_cacheable)
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, ProofStats, Status
from repro.mc.strategy import (CheckTask, canonical_options,
                               resolve_strategy, run_check_task,
                               strategy_option_names)
from repro.obs import tracing as _tracing
from repro.sat import cancel as _cancel

#: Complementary default race: k-induction proves, BMC refutes.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("k_induction", "bmc")


def depth_options(strategies: Sequence[str],
                  max_k: int | None = None,
                  bound: int | None = None,
                  simple_path: bool | None = None
                  ) -> dict[str, dict]:
    """Per-spec option overrides applying caller depth limits.

    Maps induction depth (``max_k``/``simple_path``) onto every
    k-induction-family spec and the BMC ``bound`` onto every BMC-family
    spec, *without* clobbering options the spec already sets inline
    (``"bmc(bound=6)"`` keeps its 6).  Options a strategy's ``run``
    signature does not accept are never applied — PDR measures depth in
    frames, not unrolling steps, so ``max_k`` deliberately passes it
    by (bound it with ``max_frames`` in the spec).  The single place
    the engine defaults and ``verify_all`` both derive portfolio
    options from, so extending :data:`DEFAULT_PORTFOLIO` cannot
    silently desynchronize the call sites.
    """
    overrides: dict[str, dict] = {}
    for spec in strategies:
        strategy, inline = resolve_strategy(spec)
        accepted = strategy_option_names(strategy)
        options: dict = {}
        if strategy.can_prove:  # k-induction family
            if max_k is not None and "max_k" not in inline:
                options["max_k"] = max_k
            if simple_path is not None and "simple_path" not in inline:
                options["simple_path"] = simple_path
        else:                   # bmc family
            if bound is not None and "bound" not in inline:
                options["bound"] = bound
        options = {k: v for k, v in options.items() if k in accepted}
        if options:
            overrides[spec] = options
    return overrides


@dataclass
class VerifyTask:
    """One property to verify against one (scoped) transition system.

    ``tag`` is opaque caller identity (the campaign scheduler stamps the
    design name on it) carried through to the outcome, so one flattened
    cross-design batch can be demultiplexed afterwards.  ``strategies``,
    when set, overrides the scheduler's portfolio for this task only —
    the hook adaptive selection uses to order or prune each job's race.
    """

    system: TransitionSystem
    prop: SafetyProperty
    lemmas: list[tuple[E.Expr, int]] = field(default_factory=list)
    tag: str = ""
    strategies: tuple[str, ...] | None = None


@dataclass
class PortfolioOutcome:
    """Per-property outcome of a portfolio race."""

    property_name: str
    result: CheckResult
    strategy: str               # spec string that produced `result`
    attempts: int = 0           # strategy results actually observed
    cancelled: int = 0          # siblings dropped after the win
    from_cache: bool = False
    tag: str = ""               # the task's tag, passed through
    #: One plain dict per raced slot, in configured order — the effort
    #: ledger's raw material (see :func:`attempt_record`).  Plain dicts
    #: so the log pickles through the dist protocol and JSON-serializes
    #: into the proof store unchanged.
    attempt_log: list[dict] = field(default_factory=list)

    @property
    def status(self) -> Status:
        return self.result.status

    def one_line(self) -> str:
        origin = "cache" if self.from_cache else self.strategy
        extra = f" [{origin}" + \
            (f", {self.cancelled} cancelled]" if self.cancelled else "]")
        return self.result.one_line() + extra


def _ledger_effort(stats: ProofStats) -> dict:
    effort = stats.effort_dict()
    effort["solve_seconds"] = round(stats.solve_seconds, 6)
    effort["max_depth"] = stats.max_depth
    return effort


def attempt_record(spec: str, result: CheckResult, origin: str,
                   winner: bool = False) -> dict:
    """One effort-ledger row for a strategy attempt that produced a
    result.  ``origin`` is where the answer came from: ``"solver"``,
    or the cache tier that served it (``"memory"`` / ``"disk"``)."""
    return {"strategy": spec, "status": result.status.value,
            "origin": origin, "winner": winner, "k": result.k,
            "wall_seconds": round(result.stats.wall_seconds, 6),
            "effort": _ledger_effort(result.stats)}


def unrun_record(spec: str, origin: str,
                 partial: ProofStats | None = None) -> dict:
    """A ledger row for a slot that produced no result: ``"skipped"``
    (never started: the race was decided first) or ``"cancelled"``
    (cut off mid-solve after the win; ``partial`` is the effort it had
    spent by then)."""
    return {"strategy": spec, "status": "", "origin": origin,
            "winner": False, "k": 0,
            "wall_seconds": round(partial.wall_seconds, 6)
            if partial is not None else 0.0,
            "effort": _ledger_effort(partial)
            if partial is not None else {}}


@dataclass
class CancelledAttempt:
    """What a pool worker returns for an attempt cut off mid-solve: no
    answer, only the effort spent (wall seconds, the SAT counters of
    the solver that saw the cancel flag, the depth reached)."""

    stats: ProofStats


def _worker_run(task: CheckTask) -> CheckResult | CancelledAttempt:
    """Run one attempt in a pool worker, watching its cancel flag.

    Module-level so the process pool can pickle it by reference.
    """
    started = time.perf_counter()
    with _cancel.watching(task.cancel_slot):
        try:
            return run_check_task(task)
        except _cancel.SearchCancelled as exc:
            stats = ProofStats() if exc.stats is None \
                else ProofStats.from_solver(exc.stats, 0)
            stats.max_depth = exc.max_depth
            stats.wall_seconds = time.perf_counter() - started
            return CancelledAttempt(stats)


class PortfolioScheduler:
    """Races strategy portfolios over a batch of properties.

    ``strategies`` are spec strings (see
    :func:`~repro.mc.strategy.resolve_strategy`); ``strategy_options``
    optionally overrides options per spec (e.g. ``{"bmc":
    {"bound": 12}}``).  ``jobs > 1`` enables the process pool, which
    lives until :meth:`close`.
    """

    def __init__(self, jobs: int = 1,
                 strategies: Sequence[str] = DEFAULT_PORTFOLIO,
                 strategy_options: Mapping[str, Mapping] | None = None,
                 cache: ResultCache | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not strategies:
            raise ValueError("at least one strategy is required")
        for spec in strategies:
            resolve_strategy(spec)  # fail fast on bad specs
        self.jobs = jobs
        self.strategies = tuple(strategies)
        self.strategy_options = {k: dict(v) for k, v in
                                 (strategy_options or {}).items()}
        self.cache = cache
        self._pool: ProcessPoolExecutor | None = None
        self._pool_unusable = False
        self._pool_broken = False
        # One shared cancel flag per pool slot; _free lists the flags
        # no in-flight attempt holds.
        self._flags = None
        self._free: list[int] = []

    def __enter__(self) -> "PortfolioScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Cancel anything still in flight and shut the pool down.

        The scheduler stays usable: a later :meth:`stream` starts a new
        pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._flags[:] = [1] * len(self._flags)
        pool.shutdown(wait=True, cancel_futures=True)
        self._flags, self._free = None, []
        self._pool_broken = False

    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[VerifyTask]) -> list[PortfolioOutcome]:
        """All outcomes, in completion order (see :meth:`stream`)."""
        return list(self.stream(tasks))

    def run_batch(self, system: TransitionSystem,
                  properties: Iterable[SafetyProperty],
                  lemmas: list[tuple[E.Expr, int]] | None = None
                  ) -> list[PortfolioOutcome]:
        """Convenience wrapper: same system and lemma set for every task."""
        shared = list(lemmas or [])
        return self.run([VerifyTask(system, p, list(shared))
                         for p in properties])

    def stream(self, tasks: Sequence[VerifyTask]
               ) -> Iterator[PortfolioOutcome]:
        """Yield one outcome per task as each race concludes.

        Attempts start in task order, each task's strategies in
        configured order, as slots free up: one inline slot for
        ``jobs=1`` (or a single attempt in all), else one per pool
        worker.
        """
        if not tasks:
            return
        total_slots = 0
        for task in tasks:
            for spec in task.strategies or ():
                resolve_strategy(spec)  # fail fast on bad overrides
            total_slots += len(self._specs_for(task))
        pooled = self.jobs > 1 and total_slots > 1
        groups = [_RaceGroup(i, task, self._specs_for(task))
                  for i, task in enumerate(tasks)]
        queue = deque((group, slot) for group in groups
                      for slot in range(len(group.strategies)))
        running: dict[Future, tuple[_RaceGroup, int, int]] = {}
        try:
            while queue or running:
                while queue:
                    if running and (not self._free or self._pool_broken):
                        break  # every pool slot is busy
                    group, slot = queue.popleft()
                    if self._start(group, slot, pooled, running):
                        yield group.outcome()
                if running:
                    yield from (group.outcome()
                                for group in self._collect(running))
        finally:
            if running:
                # The consumer stopped early: stop what still runs.
                for _group, _slot, flag in running.values():
                    self._flags[flag] = 1
                wait(running)
                for _group, _slot, flag in running.values():
                    self._release(flag)

    # ------------------------------------------------------------------

    def _options_for(self, spec: str) -> dict:
        return dict(self.strategy_options.get(spec, {}))

    def _specs_for(self, task: VerifyTask) -> tuple[str, ...]:
        return task.strategies if task.strategies else self.strategies

    def _start(self, group: "_RaceGroup", slot: int, pooled: bool,
               running: dict) -> bool:
        """Run one attempt in the inline slot or submit it to the pool,
        unless the cache answers it.  True when that settles its race."""
        if group.keys is None:
            self._consult_cache(group)
            if group.settled:
                return True
        if group.decided or slot in group.results:
            return False  # skipped (the race is won), or cached
        spec = group.strategies[slot]
        task = group.task
        check = CheckTask(key=(group.index, slot), system=task.system,
                          prop=task.prop, strategy=spec,
                          options=self._options_for(spec),
                          lemmas=task.lemmas)
        flag = self._acquire_flag() if pooled else None
        if flag is None:
            result = run_check_task(check)
            self._store(group, slot, result)
            group.record(slot, result)
            return group.settled
        check.trace = _tracing.current_context()
        check.cancel_slot = flag
        try:
            future = self._pool.submit(_worker_run, check)
        except BrokenProcessPool as exc:  # a worker died since _collect
            self._release(flag)
            self._pool_broken = True
            group.record(slot, _error_result(task.prop.name, spec, exc))
            return group.settled
        running[future] = (group, slot, flag)
        group.running += 1
        return False

    def _consult_cache(self, group: "_RaceGroup") -> None:
        """Before a race's first attempt starts, take every answer the
        cache has for it, in configured order, until one decides it:
        a cached winner must not wait behind an attempt that runs."""
        group.keys = {}
        if self.cache is None:
            return
        task = group.task
        for slot, spec in enumerate(group.strategies):
            strategy, options = resolve_strategy(spec)
            options.update(self._options_for(spec))
            if not strategy_cacheable(strategy, options):
                continue
            key = query_key(task.system, task.prop, strategy.name,
                            canonical_options(strategy, options),
                            task.lemmas)
            group.keys[slot] = key
            hit = cached_check(self.cache, key, task.system, task.prop,
                               strategy.name)
            if hit is not None:
                group.record(slot, hit[0], from_cache=True, origin=hit[1])
                if group.decided:
                    return

    def _collect(self, running: dict) -> list["_RaceGroup"]:
        """Wait for pool attempts to finish; the races they settle."""
        done, _ = wait(running, return_when=FIRST_COMPLETED)
        settled = []
        for future in done:
            group, slot, flag = running.pop(future)
            self._release(flag)
            group.running -= 1
            try:
                result = future.result()
            except Exception as exc:  # worker crash: report, don't die
                if isinstance(exc, BrokenProcessPool):
                    self._pool_broken = True
                group.record(slot, _error_result(
                    group.task.prop.name, group.strategies[slot], exc))
            else:
                if isinstance(result, CancelledAttempt):
                    group.cancelled[slot] = result.stats
                else:
                    self._store(group, slot, result)
                    group.record(slot, result)
            if group.decided and group.running:
                # Stop the siblings still running; the race settles
                # once they have handed back their partial effort.
                for other, _slot, other_flag in running.values():
                    if other is group:
                        self._flags[other_flag] = 1
            if group.settled:
                settled.append(group)
        return settled

    def _store(self, group: "_RaceGroup", slot: int,
               result: CheckResult) -> None:
        key = group.keys.get(slot)
        if key is not None:
            self.cache.put(key, result)

    # -- the pool ------------------------------------------------------

    def _acquire_flag(self) -> int | None:
        """A free pool slot's cancel flag, starting the pool on first
        use; None when no pool can run the attempt now."""
        if self._pool_broken:
            self.close()  # nothing is in flight: start afresh
        if self._pool is None and not self._pool_unusable:
            workers = min(self.jobs, (os.cpu_count() or 1) * 4)
            try:
                flags = multiprocessing.RawArray("b", workers)
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=_cancel.install,
                    initargs=(flags,))
            except (OSError, ValueError):
                # No usable multiprocessing in this environment
                # (restricted sandboxes): race in the inline slot.
                self._pool_unusable = True
                return None
            self._flags, self._free = flags, list(range(workers))
        return self._free.pop() if self._free else None

    def _release(self, flag: int) -> None:
        self._flags[flag] = 0
        self._free.append(flag)


# ---------------------------------------------------------------------------


class _RaceGroup:
    """Book-keeping for one property's strategy race."""

    def __init__(self, index: int, task: VerifyTask,
                 strategies: Sequence[str]):
        self.index = index
        self.task = task
        self.strategies = strategies
        self.results: dict[int, tuple[CheckResult, bool]] = {}
        self.origins: dict[int, str] = {}
        #: Partial effort of the attempts cancelled mid-solve.
        self.cancelled: dict[int, ProofStats] = {}
        #: Cache key per slot (absent: not cacheable, or no cache);
        #: None until the cache has been consulted for this race.
        self.keys: dict[int, str] | None = None
        self.running = 0
        self.winner_slot: int | None = None

    @property
    def decided(self) -> bool:
        return self.winner_slot is not None

    @property
    def settled(self) -> bool:
        """Decided or out of strategies, with nothing left running."""
        return not self.running and (
            self.decided or len(self.results) == len(self.strategies))

    def record(self, slot: int, result: CheckResult,
               from_cache: bool = False, origin: str = "solver") -> None:
        self.results[slot] = (result, from_cache)
        self.origins[slot] = origin
        if result.status.conclusive and self.winner_slot is None:
            self.winner_slot = slot

    def attempt_log(self, winner_slot: int) -> list[dict]:
        """The effort-ledger rows for this race, in configured order."""
        log = []
        for slot, spec in enumerate(self.strategies):
            if slot in self.results:
                result, _ = self.results[slot]
                log.append(attempt_record(
                    spec, result, self.origins[slot],
                    winner=slot == winner_slot))
            elif slot in self.cancelled:
                log.append(unrun_record(spec, "cancelled",
                                        self.cancelled[slot]))
            else:
                log.append(unrun_record(spec, "skipped"))
        return log

    def outcome(self) -> PortfolioOutcome:
        # The winner, else the most informative inconclusive result:
        # configured order.
        slot = self.winner_slot if self.decided else min(self.results)
        result, from_cache = self.results[slot]
        return PortfolioOutcome(
            self.task.prop.name, result, self.strategies[slot],
            attempts=len(self.results),
            cancelled=len(self.strategies) - len(self.results),
            from_cache=from_cache, tag=self.task.tag,
            attempt_log=self.attempt_log(slot))


def _error_result(property_name: str, spec: str,
                  exc: Exception) -> CheckResult:
    return CheckResult(property_name, Status.UNKNOWN,
                       detail=f"strategy {spec} failed in worker: "
                              f"{type(exc).__name__}: {exc}")
