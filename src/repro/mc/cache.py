"""Content-keyed cache of model-checking results.

The paper's flows re-run the formal tool constantly over *identical*
queries: every Houdini round re-screens the surviving conjunction, the
repair loop re-proves the target between LLM calls, and benchmark sweeps
repeat whole configurations.  A query is fully determined by

* the transition system's content (inputs/states/init/next/defines/
  constraints — structurally, not by object identity),
* the property's ``bad`` expression and warm-up offset,
* the assumed lemma set (order-insensitive),
* the strategy spec and its options,

so results can be reused whenever that fingerprint recurs — the solver is
deterministic.  Keys are SHA-256 over a canonical rendering; values are
returned as shallow copies so callers that annotate ``detail`` or
accumulate stats never corrupt the cached record.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Mapping, Protocol, runtime_checkable

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

# Counted in emit_check_events, which every check path reports through.
_M_CHECKS = _metrics.counter(
    "repro_checks_total", "model-checking queries by strategy/origin",
    labels=("strategy", "origin"))


def expr_fingerprint(root: E.Expr) -> str:
    """Canonical structural rendering of one expression DAG."""
    return E.structural_signature(root, {})


def system_fingerprint(system: TransitionSystem) -> str:
    """Digest of a transition system's *content*.

    Excludes the system's name: a cone-of-influence reduction of the same
    design for the same property yields the same fingerprint no matter
    which session built it.
    """
    h = hashlib.sha256()
    for name, v in sorted(system.inputs.items()):
        h.update(f"i:{name}:{v.width};".encode())
    for name, v in sorted(system.states.items()):
        h.update(f"s:{name}:{v.width};".encode())
    for section, mapping in (("init", system.init), ("next", system.next),
                             ("def", system.defines)):
        for name, e in sorted(mapping.items()):
            h.update(f"{section}:{name}=".encode())
            h.update(expr_fingerprint(e).encode())
            h.update(b";")
    for c in sorted(expr_fingerprint(c) for c in system.constraints):
        h.update(b"c:")
        h.update(c.encode())
        h.update(b";")
    return h.hexdigest()


def query_key(system: TransitionSystem, prop: SafetyProperty,
              strategy: str, options: Mapping,
              lemmas: list[tuple[E.Expr, int]] | None = None) -> str:
    """The cache key for one fully-specified check invocation."""
    h = hashlib.sha256()
    h.update(system_fingerprint(system).encode())
    h.update(b"|p:")
    h.update(expr_fingerprint(prop.bad).encode())
    h.update(f":{prop.valid_from}".encode())
    h.update(b"|l:")
    for sig in sorted(f"{expr_fingerprint(g)}@{vf}"
                      for g, vf in (lemmas or [])):
        h.update(sig.encode())
        h.update(b";")
    h.update(b"|s:")
    h.update(strategy.encode())
    for k in sorted(options):
        h.update(f":{k}={options[k]!r}".encode())
    return h.hexdigest()


@runtime_checkable
class CacheBacking(Protocol):
    """A persistent second tier behind :class:`ResultCache`.

    ``load`` answers memory misses; ``put`` writes through every stored
    result.  Implementations must tolerate concurrent callers and must
    never raise on routine failures (a broken backing degrades the cache
    to memory-only, it does not break proving) — the canonical
    implementation is :class:`repro.campaign.store.ProofStore`.
    """

    def load(self, key: str) -> CheckResult | None: ...

    def store(self, key: str, result: CheckResult) -> None: ...


@dataclass
class CacheStats:
    """Hit/miss/store counters (the benchmark's headline numbers).

    ``disk_hits`` is the subset of ``hits`` answered by the persistent
    backing tier rather than the in-memory LRU; ``hits - disk_hits`` is
    therefore the memory-tier hit count.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def memory_hits(self) -> int:
        return self.hits - self.disk_hits

    def one_line(self) -> str:
        disk = f" [{self.disk_hits} from disk]" if self.disk_hits else ""
        return (f"cache: {self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.0%}), {self.stores} stored, "
                f"{self.evictions} evicted{disk}")

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The traffic between an ``earlier`` snapshot and this one.

        Counters are monotone (``clear()`` counts its drops as
        evictions instead of resetting anything), but snapshots taken
        around an externally reset stats object must still not report
        negative traffic — differences clamp at zero.
        """
        return CacheStats(
            hits=max(0, self.hits - earlier.hits),
            misses=max(0, self.misses - earlier.misses),
            stores=max(0, self.stores - earlier.stores),
            evictions=max(0, self.evictions - earlier.evictions),
            disk_hits=max(0, self.disk_hits - earlier.disk_hits))


class ResultCache:
    """Thread-safe LRU cache of :class:`CheckResult` keyed by query content.

    Shared freely: between the strategies racing inside one portfolio
    batch, between Houdini rounds, between flow iterations, and across a
    whole :class:`~repro.flow.session.VerificationSession`.

    With a ``backing`` (any :class:`CacheBacking`, typically the campaign
    subsystem's SQLite :class:`~repro.campaign.store.ProofStore`) the
    cache becomes two-tier: memory misses fall through to the backing,
    backing hits are promoted into the LRU and counted as ``disk_hits``,
    and every ``put`` writes through — so a fresh process warm-starts
    from whatever earlier runs proved.
    """

    def __init__(self, max_entries: int = 4096,
                 backing: CacheBacking | None = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.backing = backing
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CheckResult] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _insert(self, key: str, result: CheckResult) -> None:
        if key not in self._entries and \
                len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = result
        self._entries.move_to_end(key)

    def get(self, key: str) -> CheckResult | None:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                # Shallow per-field copy: callers mutate `detail` (e.g.
                # prove_or_refute appends a note) and must not see each
                # other's annotations or share a stats object.
                return replace(result, stats=replace(result.stats))
            if self.backing is not None:
                try:
                    loaded = self.backing.load(key)
                except Exception:
                    loaded = None
                if loaded is not None:
                    # Promote to the memory tier; not a `store` (nothing
                    # new was proven) but evictions it causes are real.
                    # The caller gets its own copy too: a backing may
                    # return a retained object, and disk-tier hits must
                    # obey the same no-aliasing contract as memory hits.
                    self._insert(key, replace(loaded,
                                              stats=replace(loaded.stats)))
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    return replace(loaded, stats=replace(loaded.stats))
            self.stats.misses += 1
            return None

    def put(self, key: str, result: CheckResult) -> None:
        with self._lock:
            self._insert(key, replace(result, stats=replace(result.stats)))
            self.stats.stores += 1
            if self.backing is not None:
                try:
                    self.backing.store(key, result)
                except Exception:
                    pass  # a broken disk tier must never break proving

    def clear(self) -> None:
        """Drop the memory tier (the backing, if any, is untouched).

        Cleared entries count as evictions so the stats stay monotone
        and a ``since()`` window spanning a ``clear()`` stays honest.
        """
        with self._lock:
            self.stats.evictions += len(self._entries)
            self._entries.clear()


def strategy_cacheable(strategy, options: Mapping) -> bool:
    """May this invocation's result be cached under its query key?

    The key fingerprints the system/property/lemmas/options — which is
    only sound when the strategy is a deterministic function of those.
    A strategy can opt specific invocations out by exposing
    ``cacheable(options)`` (e.g. PDR runs seeded from a proof store:
    their outcome improves as the store warms, and a cached early
    UNKNOWN would pin the property to its worst attempt forever).
    """
    probe = getattr(strategy, "cacheable", None)
    return True if probe is None else bool(probe(options))


def emit_check_events(system_name: str, prop_name: str,
                      strategy_name: str, result: CheckResult,
                      wall_seconds: float, origin: str,
                      tier: str | None = None) -> None:
    """Count and journal one finished check (plus the slow-solve dump
    when due).

    Shared by every check path — :func:`run_cached`, the portfolio's
    cache lookups and :func:`~repro.mc.strategy.run_check_task` — so
    the event schema and the ``repro_checks_total`` counter cannot
    drift between them.  Solver-path checks slower than the journal's
    threshold additionally emit a ``slow_solve`` event carrying the
    full solver-effort snapshot.
    """
    _M_CHECKS.labels(strategy_name, origin).inc()
    fields = {"design": system_name, "property": prop_name,
              "strategy": strategy_name, "status": result.status.value,
              "origin": origin, "k": result.k,
              "wall_seconds": round(wall_seconds, 6)}
    if tier is not None:
        fields["tier"] = tier
    _events.emit("check_finish", **fields)
    threshold = _events.slow_solve_threshold()
    if origin == "solver" and threshold is not None \
            and wall_seconds >= threshold:
        _events.emit(
            "slow_solve", design=system_name, property=prop_name,
            strategy=strategy_name, status=result.status.value,
            k=result.k, wall_seconds=round(wall_seconds, 6),
            threshold=threshold,
            solve_seconds=round(result.stats.solve_seconds, 6),
            effort=result.stats.effort_dict())


def cached_check(cache: ResultCache, key: str, system: TransitionSystem,
                 prop: SafetyProperty, strategy_name: str
                 ) -> tuple[CheckResult, str] | None:
    """Look one check up in ``cache``: ``(result, tier)`` on a hit,
    where ``tier`` is ``"memory"`` or ``"disk"``, and the hit is
    counted and journalled like a solver run."""
    disk_before = cache.stats.disk_hits
    hit = cache.get(key)
    if hit is None:
        return None
    tier = "disk" if cache.stats.disk_hits > disk_before else "memory"
    emit_check_events(system.name, prop.name, strategy_name, hit, 0.0,
                      "cache", tier=tier)
    return hit, tier


def run_cached(strategy_spec: str, system: TransitionSystem,
               prop: SafetyProperty, options: Mapping,
               lemmas: list[tuple[E.Expr, int]] | None = None,
               cache: ResultCache | None = None) -> CheckResult:
    """Run one check through the registry, consulting ``cache`` if given.

    The single choke point the engine, Houdini, and the sequential
    scheduler path all use, so every layer gets identical keying.
    """
    from repro.mc.strategy import canonical_options, resolve_strategy

    strategy, resolved = resolve_strategy(strategy_spec)
    resolved.update(options)
    key = None
    if cache is not None and strategy_cacheable(strategy, resolved):
        key = query_key(system, prop, strategy.name,
                        canonical_options(strategy, resolved), lemmas)
        hit = cached_check(cache, key, system, prop, strategy.name)
        if hit is not None:
            return hit[0]
    with _tracing.span("check", strategy=strategy.name,
                       property=prop.name) as sp:
        _events.emit("check_start", design=system.name,
                     property=prop.name, strategy=strategy.name)
        started = time.perf_counter()
        result = strategy.run(system, prop, lemmas=list(lemmas or []),
                              **resolved)
        wall = time.perf_counter() - started
        if sp is not None:
            sp.attrs["status"] = result.status.value
        emit_check_events(system.name, prop.name, strategy.name,
                          result, wall, "solver")
    if cache is not None and key is not None:
        cache.put(key, result)
    return result
