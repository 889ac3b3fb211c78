"""Per-layer tracing: timed wrappers around the program's public functions.

A traced pass installs these wrappers before its workload starts (and so
before any process pool forks, which lets pool workers inherit them).
Every wrapped call opens a span named after its layer; the recorder turns
the span stack into *self time* per layer (a span's duration minus the
part its child spans cover) and keeps counts measured at the same call
boundaries.  Nothing inside the program is edited: spans sit around the
calls into each layer.

Pool workers hand their spans back once per task: the wrapped
``repro.mc.portfolio._worker_run`` appends one JSON line per task to a
file in the pass's trace directory, with no I/O per wrapped call.

Accounting.  In the pass's own process the spans partition each
top-level call, so the self times of all layers plus the time spent
outside any span (``trace.unattributed_s``) equal the traced wall time.
While that process is blocked on the worker pool (the self time of
``PortfolioScheduler.stream``), each instant is split equally among the
layers the busy workers are in at that instant; instants with no busy
worker stay with ``portfolio.sched`` (pool start-up, pickling, idle).
Layer seconds are therefore shares of the pass's wall clock, and they
still sum to it.  Busy seconds summed over all processes are kept too
(``busy``), for ratios such as propagations per search second.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: The layer whose self time is the dispatching process's wait on the
#: pool; worker spans are swept into it (see the module docstring).
SCHED = "portfolio.sched"

#: Strategy classes and the layer each one's ``run`` is timed under.
STRATEGY_LAYERS = {
    "BmcStrategy": "mc.bmc",
    "BmcProbeStrategy": "mc.bmc_probe",
    "KInductionStrategy": "mc.k_induction",
    "PdrStrategy": "mc.pdr",
}


class Recorder:
    """Span stack, per-layer self time and counts for one process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.main_pid = os.getpid()
        self.reset(keep_all_segments=False)

    def reset(self, keep_all_segments: bool) -> None:
        self.pid = os.getpid()
        self.stack: list[str] = []
        self.mark = 0.0
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # (start, end, layer) self-time segments.  The dispatching
        # process keeps only SCHED segments (the sweep needs those);
        # workers keep all of theirs.
        self.segments: list[tuple[float, float, str]] = []
        self.keep_all_segments = keep_all_segments

    def enter(self, layer: str) -> None:
        now = time.perf_counter()
        if self.stack:
            self._close(now)
        self.stack.append(layer)
        self.mark = now

    def exit(self) -> None:
        now = time.perf_counter()
        self._close(now)
        self.stack.pop()
        self.mark = now

    def _close(self, now: float) -> None:
        layer = self.stack[-1]
        self.busy[layer] += now - self.mark
        if self.keep_all_segments or layer == SCHED:
            self.segments.append((self.mark, now, layer))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- pool workers --------------------------------------------------

    def begin_worker_task(self) -> None:
        """First wrapped call in a forked worker drops the state it
        inherited from the dispatching process."""
        if self.pid != os.getpid():
            self.reset(keep_all_segments=True)

    def flush_worker_task(self) -> None:
        """Hand this task's spans back: one appended line per task."""
        if os.getpid() == self.main_pid:
            return
        line = json.dumps({"busy": self.busy, "counts": self.counts,
                           "segments": self.segments})
        path = self.trace_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.busy = defaultdict(float)
        self.counts = defaultdict(float)
        self.segments = []


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _span(rec: Recorder, layer: str, fn, after=None, before=None):
    """Wrap ``fn`` in a span; ``before``/``after`` measure counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(*args, **kwargs) if before is not None else None
        rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(result, token, *args, **kwargs)
        return result

    return wrapper


class _TracedIterator:
    """Times each step of a generator as one span of ``layer``."""

    def __init__(self, rec: Recorder, layer: str, iterator, on_item):
        self.rec = rec
        self.layer = layer
        self.iterator = iterator
        self.on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        self.rec.enter(self.layer)
        try:
            item = next(self.iterator)
        finally:
            self.rec.exit()
        self.on_item(item)
        return item


def _span_iter(rec: Recorder, layer: str, fn, on_item):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedIterator(rec, layer, fn(*args, **kwargs), on_item)

    return wrapper


def _patch_method(cls, name: str, make) -> None:
    setattr(cls, name, make(cls.__dict__[name]))


def _patch_function(module, name: str, make) -> None:
    """Replace a module-level function everywhere it was imported by
    name, so ``from x import f`` call sites are traced as well."""
    original = getattr(module, name)
    wrapped = make(original)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr in [a for a, v in vars(mod).items() if v is original]:
            setattr(mod, attr, wrapped)


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points (call before the workload)."""
    import repro.campaign.scheduler as scheduler_mod
    import repro.flow.houdini as houdini_mod
    import repro.formats.designio as designio_mod
    import repro.mc.cache as cache_mod
    import repro.mc.portfolio as portfolio_mod
    import repro.mc.strategy as strategy_mod
    from repro.aig.bitblast import BitBlaster
    from repro.aig.cnf import CnfBuilder
    from repro.campaign.store import ProofStore
    from repro.flow import session as session_mod
    from repro.flow.lemma_flow import LemmaGenerationFlow
    from repro.flow.repair_flow import InductionRepairFlow
    from repro.genai.client import SimulatedLLM
    from repro.mc.engine import ProofEngine
    from repro.sat.solver import Solver
    from repro.sva.compile import MonitorContext

    # ``repro.hdl`` re-exports the function under the submodule's name.
    elaborate_mod = importlib.import_module("repro.hdl.elaborate")

    def counter(name):
        return lambda result, token, *a, **k: rec.count(name)

    # frontend ----------------------------------------------------------
    _patch_function(designio_mod, "import_design", lambda f: _span(
        rec, "formats.import", f, after=counter("formats.designs")))
    _patch_function(elaborate_mod, "elaborate", lambda f: _span(
        rec, "hdl.elaborate", f, after=counter("hdl.elaborate_calls")))
    _patch_method(MonitorContext, "add", lambda f: _span(
        rec, "sva.monitor", f, after=counter("sva.monitors")))

    def coi_after(scoped, token, engine, *a, **k):
        full = engine.system
        rec.count("ir.coi_vars_kept", len(scoped.states) + len(scoped.inputs))
        rec.count("ir.coi_vars_total", len(full.states) + len(full.inputs))

    _patch_method(ProofEngine, "scoped_system", lambda f: _span(
        rec, "ir.coi", f, after=coi_after))

    # result cache ------------------------------------------------------
    _patch_function(cache_mod, "query_key",
                    lambda f: _span(rec, "cache.key", f))

    def get_after(hit, token, *a, **k):
        rec.count("cache.lookups")
        if hit is not None:
            rec.count("cache.hits")

    _patch_method(cache_mod.ResultCache, "get", lambda f: _span(
        rec, "cache.get", f, after=get_after))

    # encoding ----------------------------------------------------------
    def blast_before(blaster, *a, **k):
        return blaster.aig.num_ands

    def blast_after(result, before, blaster, *a, **k):
        rec.count("aig.and_nodes", blaster.aig.num_ands - before)

    _patch_method(BitBlaster, "blast", lambda f: _span(
        rec, "aig.blast", f, before=blast_before, after=blast_after))

    def make_cnf(fn):
        timed = _span(
            rec, "aig.cnf", fn,
            before=lambda b: b.solver.stats.clauses_added,
            after=lambda r, before, b: rec.count(
                "aig.clauses", b.solver.stats.clauses_added - before))

        @functools.wraps(fn)
        def wrapper(builder):
            # ``lit_to_dimacs`` calls this for every literal; most calls
            # find nothing new to encode and are not worth a span.
            if getattr(builder, "_encoded_upto", 0) >= builder.aig.num_nodes:
                return fn(builder)
            return timed(builder)

        return wrapper

    _patch_method(CnfBuilder, "encode_new_nodes", make_cnf)

    # SAT search --------------------------------------------------------
    def solve_before(solver, *a, **k):
        return solver.stats.conflicts, solver.stats.propagations

    def solve_after(result, before, solver, *a, **k):
        rec.count("sat.calls")
        rec.count("sat.conflicts", solver.stats.conflicts - before[0])
        rec.count("sat.propagations", solver.stats.propagations - before[1])
        if result is None:
            rec.count("sat.indeterminate")

    _patch_method(Solver, "solve_limited", lambda f: _span(
        rec, "sat.search", f, before=solve_before, after=solve_after))

    # engines -----------------------------------------------------------
    for name in strategy_mod.strategy_names():
        cls = type(strategy_mod.get_strategy(name))
        if getattr(cls.run, "__wrapped__", None) is not None:
            continue  # a class registered under several names
        layer = STRATEGY_LAYERS.get(cls.__name__, "mc.other")

        def engine_after(result, token, *a, _layer=layer, **k):
            rec.count(f"{_layer}.attempts")
            if result.status.conclusive:
                rec.count(f"{_layer}.conclusive")

        _patch_method(cls, "run", lambda f, _layer=layer: _span(
            rec, _layer, f, after=engine_after))
    _patch_method(ProofEngine, "check",
                  lambda f: _span(rec, "mc.engine", f))

    # scheduling --------------------------------------------------------
    def on_outcome(outcome) -> None:
        for row in outcome.attempt_log:
            if not row["status"] or row["origin"] != "solver":
                continue
            rec.count("portfolio.attempts")
            key = "portfolio.winner_s" if row["winner"] \
                else "portfolio.loser_s"
            rec.count(key, row["wall_seconds"])

    _patch_method(portfolio_mod.PortfolioScheduler, "stream",
                  lambda f: _span_iter(rec, SCHED, f, on_outcome))

    base_pool = portfolio_mod.ProcessPoolExecutor

    class CountingPool(base_pool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rec.count("portfolio.pool_starts")

    portfolio_mod.ProcessPoolExecutor = CountingPool

    def make_worker(fn):
        @functools.wraps(fn)
        def wrapper(task):
            rec.begin_worker_task()
            rec.enter("portfolio.worker")
            try:
                return fn(task)
            finally:
                rec.exit()
                rec.flush_worker_task()

        return wrapper

    _patch_function(portfolio_mod, "_worker_run", make_worker)

    # campaign and persistence -----------------------------------------
    _patch_method(scheduler_mod.CampaignScheduler, "run",
                  lambda f: _span(rec, "campaign.run", f))
    _patch_method(scheduler_mod.CampaignScheduler, "build_jobs",
                  lambda f: _span(rec, "campaign.compile", f))
    _patch_method(scheduler_mod.LocalDispatcher, "dispatch",
                  lambda f: _span(rec, "campaign.dispatch", f))
    _patch_method(ProofStore, "load", lambda f: _span(
        rec, "store.load", f, after=counter("store.loads")))
    for name in ("store", "record", "record_ledger"):
        _patch_method(ProofStore, name, lambda f: _span(
            rec, "store.write", f, after=counter("store.writes")))

    # flows and GenAI ---------------------------------------------------
    _patch_method(session_mod.VerificationSession, "verify_all",
                  lambda f: _span(rec, "flow.session", f))

    def houdini_after(result, token, *a, **k):
        rec.count("flow.houdini_rounds", result.rounds)

    _patch_function(houdini_mod, "houdini_prove", lambda f: _span(
        rec, "flow.houdini", f, after=houdini_after))
    _patch_method(LemmaGenerationFlow, "run",
                  lambda f: _span(rec, "flow.lemma", f))

    def repair_after(result, token, *a, **k):
        rec.count("flow.repair_iterations", len(result.iterations))

    _patch_method(InductionRepairFlow, "run", lambda f: _span(
        rec, "flow.repair", f, after=repair_after))

    def complete_after(response, token, *a, **k):
        rec.count("genai.calls")
        rec.count("genai.simulated_llm_s", response.latency_s)

    _patch_method(SimulatedLLM, "complete", lambda f: _span(
        rec, "genai.complete", f, after=complete_after))


# ---------------------------------------------------------------------------
# Combining the processes of one pass
# ---------------------------------------------------------------------------

def load_worker_lines(trace_dir: Path) -> list[dict]:
    lines = []
    for path in sorted(trace_dir.glob("worker-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            lines += [json.loads(line) for line in fh if line.strip()]
    return lines


def sweep(wall: dict[str, float],
          sched_segments: list[tuple[float, float, str]],
          worker_segments: list[tuple[float, float, str]]) -> None:
    """Move the dispatcher's pool-wait time onto the layers the busy
    workers were in, split equally among them at every instant."""
    events = []
    for start, end, _layer in sched_segments:
        events.append((start, 0, None))      # wait opens
        events.append((end, 1, None))        # wait closes
    for start, end, layer in worker_segments:
        events.append((start, 2, layer))     # worker span opens
        events.append((end, 3, layer))       # worker span closes
    events.sort(key=lambda e: (e[0], e[1]))
    waiting = 0
    active: dict[str, int] = defaultdict(int)
    busy_workers = 0
    previous = None
    for when, kind, layer in events:
        if previous is not None and waiting and busy_workers:
            dt = when - previous
            for name, n in active.items():
                if n:
                    wall[name] += dt * n / busy_workers
            wall[SCHED] -= dt
        previous = when
        if kind == 0:
            waiting += 1
        elif kind == 1:
            waiting -= 1
        elif kind == 2:
            active[layer] += 1
            busy_workers += 1
        else:
            active[layer] -= 1
            busy_workers -= 1


def combine(rec: Recorder, worker_lines: list[dict]) -> tuple[
        dict[str, float], dict[str, float], dict[str, float]]:
    """(wall-share seconds, busy seconds, counts) over all processes."""
    wall = defaultdict(float, rec.busy)
    busy = defaultdict(float, rec.busy)
    counts = defaultdict(float, rec.counts)
    worker_segments = []
    for line in worker_lines:
        for layer, seconds in line["busy"].items():
            busy[layer] += seconds
            counts["trace.worker_busy_s"] += seconds
        for name, value in line["counts"].items():
            counts[name] += value
        worker_segments += [tuple(s) for s in line["segments"]]
    sched_segments = [s for s in rec.segments if s[2] == SCHED]
    sweep(wall, sched_segments, worker_segments)
    return wall, busy, counts


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

#: Layer -> the metric its wall-share self seconds are reported as.
SECONDS_METRICS = {
    "formats.import": "formats.import_s",
    "hdl.elaborate": "hdl.elaborate_s",
    "sva.monitor": "sva.monitor_s",
    "ir.coi": "ir.coi_s",
    "cache.key": "cache.key_s",
    "cache.get": "cache.get_s",
    "aig.blast": "aig.blast_s",
    "aig.cnf": "aig.cnf_s",
    "sat.search": "sat.search_s",
    "mc.bmc": "mc.bmc.s",
    "mc.bmc_probe": "mc.bmc_probe.s",
    "mc.k_induction": "mc.k_induction.s",
    "mc.pdr": "mc.pdr.s",
    "mc.other": "mc.other.s",
    "mc.engine": "mc.engine_self_s",
    SCHED: "portfolio.sched_s",
    "portfolio.worker": "portfolio.worker_s",
    "campaign.run": "campaign.self_s",
    "campaign.compile": "campaign.compile_s",
    "campaign.dispatch": "campaign.dispatch_s",
    "store.load": "store.load_s",
    "store.write": "store.write_s",
    "flow.session": "flow.session_s",
    "flow.houdini": "flow.houdini_s",
    "flow.lemma": "flow.lemma_s",
    "flow.repair": "flow.repair_s",
    "genai.complete": "genai.complete_s",
}

#: Counts reported as they were measured.
PLAIN_COUNTS = (
    "formats.designs", "hdl.elaborate_calls", "sva.monitors",
    "cache.lookups", "aig.and_nodes", "aig.clauses", "sat.calls",
    "sat.conflicts", "sat.propagations", "portfolio.pool_starts",
    "portfolio.attempts", "portfolio.winner_s", "portfolio.loser_s",
    "store.loads", "store.writes", "flow.houdini_rounds",
    "flow.repair_iterations", "genai.calls", "genai.simulated_llm_s",
    "trace.worker_busy_s",
)

#: Figures the workloads read off the program's own reports.
EXTRAS = ("campaign.dispatched_share", "campaign.fallback_reruns",
          "genai.lemma_yield")

#: Exact counts the determinism check compares across traced passes.
EXACT_COUNTS = ("sat.conflicts", "sat.propagations", "aig.and_nodes",
                "genai.calls", "flow.houdini_rounds")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(wall: dict[str, float], busy: dict[str, float],
                  counts: dict[str, float], extras: dict[str, float],
                  child_cpu_s: float, window_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    unknown = set(wall) - set(SECONDS_METRICS)
    if unknown:
        raise ValueError(f"layers without a metric: {sorted(unknown)}")
    metrics = {metric: wall.get(layer, 0.0)
               for layer, metric in SECONDS_METRICS.items()}
    metrics.update({name: counts.get(name, 0.0) for name in PLAIN_COUNTS})
    metrics.update({name: extras.get(name, 0.0) for name in EXTRAS})
    for layer in ("mc.bmc", "mc.bmc_probe", "mc.k_induction", "mc.pdr"):
        attempts = counts.get(f"{layer}.attempts", 0.0)
        metrics[f"{layer}.attempts"] = attempts
        metrics[f"{layer}.conclusive_share"] = _share(
            counts.get(f"{layer}.conclusive", 0.0), attempts)
    metrics["ir.coi_kept_share"] = _share(counts.get("ir.coi_vars_kept", 0),
                                          counts.get("ir.coi_vars_total", 0))
    metrics["cache.hit_share"] = _share(counts.get("cache.hits", 0),
                                        counts.get("cache.lookups", 0))
    metrics["sat.props_per_search_s"] = _share(
        counts.get("sat.propagations", 0), busy.get("sat.search", 0))
    metrics["sat.indeterminate_share"] = _share(
        counts.get("sat.indeterminate", 0), counts.get("sat.calls", 0))
    metrics["portfolio.wasted_share"] = _share(
        metrics["portfolio.loser_s"],
        metrics["portfolio.winner_s"] + metrics["portfolio.loser_s"])
    metrics["portfolio.child_cpu_s"] = child_cpu_s
    metrics["trace.wall_s"] = window_s
    metrics["trace.unattributed_s"] = window_s - sum(wall.values())
    return metrics
