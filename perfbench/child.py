"""The passes of one benchmark run, in a fresh interpreter.

Usage (normally started by ``run.py``)::

    python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, checkout root, private work
directory and the kind of child: ``passes`` sets up once, then repeats
timed passes (each prepared, run and checked) for ``seconds``, or makes
exactly one traced pass when ``trace`` is set; ``setup`` sets up only.
The child writes its
figures as JSON to ``spec["out"]``.  A fresh interpreter per run keeps
hash-consing tables and design caches from carrying over from one run
to the next.  Every timed stretch also records the host's speed factor
over it (``speed.py``).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of the pass process or its largest reaped worker."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) \
        / 1024.0


def run_child(spec: dict) -> dict:
    root = Path(spec["root"])
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    speed.start(workdir / "speed")
    setup_window = speed.Window()
    sys.path.insert(0, str(root / "src"))

    import repro.campaign  # noqa: F401  (program import is set-up)
    import repro.designs  # noqa: F401
    import repro.flow  # noqa: F401
    import repro.mc.portfolio as portfolio

    imported = time.perf_counter()

    # Engine errors surface as UNKNOWN results built here; count them in
    # every pass so they fail the run rather than pass as undecided.
    errors = []
    make_error = portfolio._error_result

    def counted_error(*args):
        errors.append(args)
        return make_error(*args)

    portfolio._error_result = counted_error

    rec = None
    trace_dir = workdir / "trace"
    if spec["trace"]:
        trace_dir.mkdir(parents=True, exist_ok=True)
        rec = layers.Recorder(trace_dir)
        layers.install(rec)
    window_start = time.perf_counter()

    workload = WORKLOADS[spec["workload"]](root, workdir, spec["seed"])
    workload.setup()
    out = {"setup_s": time.perf_counter() - STARTED,
           "import_s": imported - STARTED}
    out["setup_speed"], _ = setup_window.factor()
    if spec["kind"] == "setup":
        return out
    if rec is not None:
        out.update(_one_pass(workload, 0, errors, rec, trace_dir,
                              window_start))
        return out

    # Passes repeat, each prepared afresh by the workload, until the
    # measuring time is spent; a pass never starts if it could overrun
    # the run's budget.
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(_one_pass(workload, len(passes), errors))
        now = time.perf_counter()
        if now - started >= spec["seconds"] or \
                now - started + 2 * passes[-1]["wall_s"] > spec["budget_s"]:
            break
    out["passes"] = passes
    return out


def _one_pass(workload, index: int, errors: list, rec=None, trace_dir=None,
              window_start: float = 0.0) -> dict:
    """Prepare, time and check one pass of ``workload``."""
    workload.prepare(index)
    first_error = len(errors)
    run_window = speed.Window()
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), \
        _cpu(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    outcome = workload.run()
    finished = time.perf_counter()
    child_cpu = _cpu(resource.RUSAGE_CHILDREN) - cpu_children
    out = {}
    out["speed"], out["speed_samples"] = run_window.factor()
    out.update(
        wall_s=finished - started,
        cpu_s=_cpu(resource.RUSAGE_SELF) - cpu_self + child_cpu,
        peak_rss_mb=_peak_rss_mb() - speed.FOOTPRINT_MB)
    if rec is not None:
        # Snapshot before the check, whose replays would add spans.
        wall, busy, counts = layers.combine(
            rec, layers.load_worker_lines(trace_dir))
        window = finished - window_start

    verdicts = workload.check(outcome)
    workload.finish(index)
    new_errors = errors[first_error:]
    failed = verdicts.failed + len(new_errors)
    out.update(attempted=verdicts.attempted, decided=verdicts.decided,
               failed=min(failed, verdicts.attempted),
               problems=verdicts.problems +
               [f"engine error: {args[1]}: {args[2]}"
                for args in new_errors])
    if rec is not None:
        out["layers"] = layers.layer_metrics(
            wall, busy, counts, verdicts.extras, child_cpu, window)
        out["identity"] = {"window_s": window,
                           "attributed_s": sum(wall.values())}
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run_child(spec)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
