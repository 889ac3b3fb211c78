"""Cross-design campaign scheduling.

A *campaign* verifies many designs in one run.  The scheduler flattens
the selected designs into one ``(design, property, strategy-race)`` job
pool, orders it longest-expected-first (history medians from the proof
store, structural size as the cold fallback), and feeds the whole pool
through one :class:`~repro.mc.portfolio.PortfolioScheduler` so the
global ``jobs`` limit governs every design at once — a short design's
properties fill worker slots while a long design's proofs grind.

Each job's race comes from :class:`~repro.campaign.adaptive
.AdaptiveSelector` (per-family ordering/pruning mined from the store);
any pruned race that ends inconclusive is re-raced with the full
portfolio, so adaptive campaigns report the same verdicts as full ones.
Every final outcome is appended to the store's history, feeding the next
campaign's selector.

Execution is delegated through the :class:`Dispatcher` interface:
:class:`LocalDispatcher` streams the pool through one in-process
portfolio scheduler, while
:class:`~repro.dist.coordinator.DistributedDispatcher` fans it across
worker processes rendezvousing on any shared backend (a cache
directory or a ``repro-verify serve`` URL).  ``CampaignScheduler.run``
is the same code either way — it records history and builds the report
from dispatcher-neutral :class:`DispatchOutcome` records.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Protocol, Sequence

from repro.campaign.adaptive import (AdaptiveSelector, StrategyChoice,
                                     base_strategy_name)
from repro.campaign.report import CampaignReport, CampaignRow, WorkerStat
from repro.campaign.store import ProofStore, verdict_provenance
from repro.designs.base import Design, PropertySpec
from repro.mc.cache import CacheStats, ResultCache
from repro.mc.engine import EngineConfig, ProofEngine
from repro.mc.portfolio import (DEFAULT_PORTFOLIO, PortfolioScheduler,
                                VerifyTask, depth_options)
from repro.ir.system import TransitionSystem
from repro.mc.property import SafetyProperty
from repro.mc.result import Status
from repro.mc.strategy import resolve_strategy
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.sva.compile import MonitorContext

_M_PHASE_SECONDS = _metrics.histogram(
    "repro_campaign_phase_seconds", "campaign wall clock by phase",
    labels=("phase",))

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")

#: Status strings that settle a property, derived from the enum so the
#: two can never drift apart.
CONCLUSIVE_STATUSES = tuple(s.value for s in Status if s.conclusive)


def compile_design(design: Design) -> list[
        tuple[PropertySpec, SafetyProperty, TransitionSystem]]:
    """Compile one design into (spec, property, scoped system) triples.

    All of the design's properties are monitored into one shared system
    and each is then cone-of-influence scoped through the engine — the
    exact pipeline single-design runs use, so every layer (campaign
    scheduler, distributed workers, ``verify_all``) produces identical
    cache fingerprints for the same query.
    """
    ctx = MonitorContext(design.system())
    # Justice (liveness) specs have no SVA monitor and no engine that
    # could settle them; campaigns skip them rather than fabricating a
    # verdict.  `verify_all` reports them as UNKNOWN explicitly.
    compiled = [(spec, ctx.add(spec.sva, name=spec.name))
                for spec in design.properties if spec.kind != "justice"]
    engine = ProofEngine(ctx.system)
    return [(spec, prop, engine.scoped_system(prop))
            for spec, prop in compiled]


def inline_spec(spec: str, options: Mapping) -> str:
    """Bake option overrides into a spec string (spec-bound options win).

    ``inline_spec("bmc", {"bound": 6})`` -> ``"bmc(bound=6)"``; an
    option the spec already binds (written inline, or baked into its
    registry name like ``k_induction_sp``) keeps its value — the same
    precedence :func:`~repro.mc.portfolio.depth_options` applies.  The
    spec is parsed and validated by ``resolve_strategy`` itself, so a
    malformed spec raises the canonical ``StrategyError`` instead of
    silently dropping arguments.  Campaign jobs carry per-property
    depths this way, and because cache keying canonicalizes options,
    the keys they produce are exactly the ones a single-design run of
    the same query produces.
    """
    _strategy, bound_options = resolve_strategy(spec)
    name = _SPEC_RE.match(spec).group(1)
    merged = {**options, **bound_options}
    if not merged:
        return name
    rendered = ", ".join(f"{k}={merged[k]!r}" for k in sorted(merged))
    return f"{name}({rendered})"


@dataclass
class CampaignJob:
    """One (design, property) unit of the flattened cross-design pool."""

    design: Design
    spec: PropertySpec
    prop: SafetyProperty
    task: VerifyTask
    full_specs: tuple[str, ...]     # the un-pruned race for this job
    choice: StrategyChoice
    expected_wall: float            # scheduling priority (bigger = first)
    order: int = 0                  # registry position, for stable reports

    @property
    def identity(self) -> tuple[str, str]:
        return (self.design.name, self.prop.name)


@dataclass
class DispatchOutcome:
    """One job's final verdict, as any dispatcher reports it.

    The neutral record both the in-process and the distributed paths
    emit, so :meth:`CampaignScheduler.run` can record history and build
    the report without knowing how the job was executed.
    """

    design: str
    property_name: str
    status: str                  # "proven" | "violated" | ...
    strategy: str                # spec string that produced the verdict
    wall_seconds: float
    k: int
    from_cache: bool
    fallback: bool = False       # settled by the full-portfolio rerun
    worker_id: str = ""          # distributed dispatch only
    #: Cumulative solver-effort snapshot of the winning run (conflicts /
    #: decisions / propagations / ...), machine-independent — see
    #: :meth:`repro.mc.result.ProofStats.effort_dict`.
    effort: dict = field(default_factory=dict)
    #: Per-slot effort-ledger rows of the race that produced the verdict
    #: (see :func:`repro.mc.portfolio.attempt_record`) — plain dicts, so
    #: the record pickles through the dist protocol unchanged.
    attempts: list[dict] = field(default_factory=list)

    @property
    def conclusive(self) -> bool:
        return self.status in CONCLUSIVE_STATUSES


@dataclass
class DispatchResult:
    """Everything one dispatch pass hands back to the campaign."""

    outcomes: dict[tuple[str, str], DispatchOutcome]
    dispatched_specs: int = 0    # strategy slots actually scheduled
    fallback_reruns: int = 0     # pruned races re-run with full portfolio
    cache: CacheStats = field(default_factory=CacheStats)
    workers: int = 0             # worker processes (0 = in-process)
    worker_stats: list[WorkerStat] = field(default_factory=list)


class Dispatcher(Protocol):
    """Executes a campaign job pool and reports one outcome per job.

    Implementations own the whole execution policy — including the
    adaptive-fallback contract: any job whose pruned race stayed
    inconclusive must be re-raced with its ``full_specs`` before the
    result is returned (see :func:`fallback_jobs`), so every dispatcher
    reports the same verdicts a full-portfolio run would.
    """

    def dispatch(self, pool: Sequence[CampaignJob]) -> DispatchResult:
        ...


def fallback_jobs(pool: Sequence[CampaignJob],
                  outcomes: Mapping[tuple[str, str], DispatchOutcome]
                  ) -> list[CampaignJob]:
    """Jobs whose pruned race stayed inconclusive: re-race these in full."""
    return [job for job in pool
            if job.choice.was_pruned and
            not outcomes[job.identity].conclusive]


class LocalDispatcher:
    """In-process dispatch through one shared :class:`PortfolioScheduler`.

    ``jobs`` is the global process-pool limit across every design in the
    pool; the cache (two-tier when backed by the proof store) is shared
    by the first pass and the fallback reruns, so a rerun's
    already-raced specs answer from cache and the extra dispatch is
    exactly the pruned remainder.
    """

    def __init__(self, jobs: int = 1,
                 strategies: Sequence[str] = DEFAULT_PORTFOLIO,
                 cache: ResultCache | None = None):
        self.jobs = jobs
        self.strategies = tuple(strategies)
        self.cache = cache if cache is not None else ResultCache()

    def dispatch(self, pool: Sequence[CampaignJob]) -> DispatchResult:
        stats_before = replace(self.cache.stats)
        outcomes: dict[tuple[str, str], DispatchOutcome] = {}
        dispatched = sum(len(j.choice.specs) for j in pool)

        # One worker pool serves the first pass and the fallback rerun.
        with PortfolioScheduler(jobs=self.jobs, strategies=self.strategies,
                                cache=self.cache) as scheduler:
            for outcome in scheduler.stream([j.task for j in pool]):
                outcomes[(outcome.tag, outcome.property_name)] = \
                    _from_portfolio(outcome)

            rerun = fallback_jobs(pool, outcomes)
            if rerun:
                dispatched += sum(len(j.choice.pruned) for j in rerun)
                tasks = [replace(j.task, strategies=j.full_specs)
                         for j in rerun]
                for outcome in scheduler.stream(tasks):
                    outcomes[(outcome.tag, outcome.property_name)] = \
                        _from_portfolio(outcome, fallback=True)

        return DispatchResult(
            outcomes=outcomes, dispatched_specs=dispatched,
            fallback_reruns=len(rerun),
            cache=self.cache.stats.since(stats_before))


def _from_portfolio(outcome, fallback: bool = False) -> DispatchOutcome:
    """Normalize a :class:`PortfolioOutcome` into the dispatch record."""
    return DispatchOutcome(
        design=outcome.tag, property_name=outcome.property_name,
        status=outcome.result.status.value, strategy=outcome.strategy,
        wall_seconds=outcome.result.stats.wall_seconds,
        k=outcome.result.k, from_cache=outcome.from_cache,
        fallback=fallback, effort=outcome.result.stats.effort_dict(),
        attempts=list(outcome.attempt_log))


class CampaignScheduler:
    """Runs one verification campaign over many designs (see module doc)."""

    def __init__(self, designs: Sequence[Design], store: ProofStore,
                 jobs: int = 1,
                 strategies: Sequence[str] | None = None,
                 adaptive: bool = True,
                 min_samples: int = 3,
                 max_k: int | None = None,
                 bmc_bound: int | None = None,
                 cache: ResultCache | None = None,
                 dispatcher: Dispatcher | None = None):
        if not designs:
            raise ValueError("a campaign needs at least one design")
        self.designs = list(designs)
        self.store = store
        self.jobs = jobs
        self.base = tuple(strategies or DEFAULT_PORTFOLIO)
        for spec in self.base:
            resolve_strategy(spec)  # fail fast on bad specs
        self.adaptive = adaptive
        self.min_samples = min_samples
        self.max_k = max_k
        self.bmc_bound = bmc_bound if bmc_bound is not None \
            else EngineConfig().bmc_bound
        self.cache = cache if cache is not None \
            else ResultCache(backing=store)
        # Local in-process dispatch unless a distributed (or test)
        # dispatcher is plugged in — one interface either way.
        self.dispatcher: Dispatcher = dispatcher if dispatcher is not None \
            else LocalDispatcher(jobs=jobs, strategies=self.base,
                                 cache=self.cache)

    # ------------------------------------------------------------------

    def build_jobs(self) -> list[CampaignJob]:
        """The flattened job pool, ordered longest-expected-first."""
        selector = AdaptiveSelector(self.store, self.min_samples) \
            if self.adaptive else None
        pool: list[CampaignJob] = []
        for design in self.designs:
            # compile_design scopes through the engine so campaign jobs
            # fingerprint — and therefore cache-key — exactly like
            # single-design runs (and like distributed workers, which
            # recompile from the same registry entry).
            for spec, prop, scoped in compile_design(design):
                full = self._full_specs(spec)
                choice = selector.choose(
                    design.family, full, design=design.name,
                    property_name=prop.name) \
                    if selector is not None else StrategyChoice(full)
                task = VerifyTask(scoped, prop, tag=design.name,
                                  strategies=choice.specs)
                pool.append(CampaignJob(
                    design=design, spec=spec, prop=prop, task=task,
                    full_specs=full, choice=choice,
                    expected_wall=self._expected_wall(design, spec,
                                                      scoped),
                    order=len(pool)))
        # Longest first: with history, seconds; cold jobs use a large
        # structural proxy, which also (deliberately) schedules the
        # unknown ahead of the known.
        pool.sort(key=lambda j: -j.expected_wall)
        return pool

    def _full_specs(self, spec: PropertySpec) -> tuple[str, ...]:
        depth = self.max_k if self.max_k is not None else spec.max_k
        overrides = depth_options(self.base, max_k=depth,
                                  bound=self.bmc_bound)
        return tuple(inline_spec(s, overrides.get(s, {}))
                     for s in self.base)

    def _expected_wall(self, design: Design, spec: PropertySpec,
                       scoped) -> float:
        history = self.store.expected_wall(design.name, spec.name)
        if history is not None:
            return history
        depth = self.max_k if self.max_k is not None else spec.max_k
        return float((len(scoped.states) + len(scoped.inputs)) * depth)

    # ------------------------------------------------------------------

    def run(self) -> CampaignReport:
        start = time.perf_counter()
        with _tracing.span("campaign",
                           designs=[d.name for d in self.designs]) as root:
            _events.emit("campaign_start",
                         designs=[d.name for d in self.designs],
                         jobs=self.jobs)
            with _tracing.span("compile"):
                pool = self.build_jobs()
            compiled = time.perf_counter()
            full_total = sum(len(j.full_specs) for j in pool)

            # The dispatcher executes the pool (in-process or across
            # worker processes) and owns the pruned-race fallback
            # contract; the campaign only records and reports what came
            # back.
            with _tracing.span("dispatch", jobs=len(pool)):
                result = self.dispatcher.dispatch(pool)
            dispatched = time.perf_counter()

            rows = []
            with _tracing.span("record"):
                for job in sorted(pool, key=lambda j: j.order):
                    outcome = result.outcomes[job.identity]
                    provenance = verdict_provenance(
                        outcome.strategy, outcome.from_cache)
                    # History is recorded here, once per final verdict,
                    # whichever dispatcher ran the job — distributed
                    # workers deliberately do not write history, so no
                    # outcome is double-counted.
                    self.store.record(
                        design=job.design.name, family=job.design.family,
                        property_name=job.prop.name,
                        strategy=base_strategy_name(outcome.strategy),
                        status=outcome.status,
                        wall_seconds=outcome.wall_seconds,
                        from_cache=outcome.from_cache)
                    # The forensic ledger rides along: one row per
                    # final verdict holding the whole race's story.
                    self.store.record_ledger({
                        "design": job.design.name,
                        "property": job.prop.name,
                        "status": outcome.status,
                        "strategy": outcome.strategy,
                        "provenance": provenance,
                        "from_cache": outcome.from_cache,
                        "fallback": outcome.fallback,
                        "worker": outcome.worker_id,
                        "wall_seconds": outcome.wall_seconds,
                        "k": outcome.k,
                        "attempts": list(outcome.attempts)})
                    rows.append(CampaignRow(
                        design=job.design.name, family=job.design.family,
                        property_name=job.prop.name,
                        status=outcome.status,
                        expect=job.spec.expect,
                        strategy=outcome.strategy,
                        wall_seconds=outcome.wall_seconds,
                        k=outcome.k,
                        from_cache=outcome.from_cache,
                        adaptive_fallback=outcome.fallback,
                        worker=outcome.worker_id,
                        effort=dict(outcome.effort),
                        provenance=provenance,
                        attempts=list(outcome.attempts)))
            recorded = time.perf_counter()

        # Phase wall clock: "solve" is the in-job portion of "dispatch"
        # (sum of non-cached job wall times — across workers it can
        # exceed the dispatch wall when jobs ran in parallel).
        phases = {
            "compile": round(compiled - start, 6),
            "dispatch": round(dispatched - compiled, 6),
            "solve": round(sum(r.wall_seconds for r in rows
                               if not r.from_cache), 6),
            "store": round(recorded - dispatched, 6),
        }
        for name, seconds in phases.items():
            _M_PHASE_SECONDS.labels(name).observe(seconds)
            _events.emit("campaign_phase", phase=name,
                         seconds=seconds)
        _events.emit("campaign_finish", properties=len(rows),
                     mismatches=sum(1 for r in rows if r.mismatch))

        tracer = _tracing.active()
        return CampaignReport(
            designs=[d.name for d in self.designs],
            rows=rows,
            wall_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            adaptive=self.adaptive,
            dispatched_jobs=result.dispatched_specs,
            full_portfolio_jobs=full_total,
            fallback_reruns=result.fallback_reruns,
            cache=result.cache,
            store_results=len(self.store),
            workers=result.workers,
            worker_stats=result.worker_stats,
            phase_seconds=phases,
            trace_id=tracer.trace_id if tracer is not None and
            root is not None else "")
