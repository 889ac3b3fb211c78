"""Benchmark entry point: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus_cold --seed 1 \\
        --seconds 25 --trace 0

A run starts a fresh interpreter (``child.py``) that sets up once, then
repeats passes (prepare, run the timed part, check every verdict) until
``--seconds`` of wall clock have gone by; the run prints its end-to-end
metrics, medians over the passes (``--trace 0``).  Set-up time is the
median over that child and extra set-up-only children.  With
``--trace 1`` the run makes one untraced and two traced passes, each in
its own interpreter with the same inputs, and prints the per-layer
metrics of the traced ones.  Metric names and
units come from ``BENCHMARK.json``; the last line of standard output is
the JSON result.

Times in the end-to-end metrics are at reference host speed: each
measured time is multiplied by the speed factor ``speed.py`` sampled
over the same stretch, in the processes that did the work.  The raw
figures and the factors are printed on standard error.  Everything the
run writes lives in ``.perfbench_work/`` under the checkout and is
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_SETUPS = 5
#: Wall-clock budget for a whole run, below the 180 s a run may take.
BUDGET_S = 170.0
#: Part of the budget kept for the set-up-only children.
SETUP_RESERVE_S = 30.0


class BenchError(RuntimeError):
    pass


class Run:
    """The passes of one benchmark run and the directory they share."""

    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.workdir = root / ".perfbench_work" / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + BUDGET_S
        self.children = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        # One string-hash seed for every process: with a random one, set
        # and dict order, and with it the work of identical passes, vary.
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, kind: str, trace: bool = False,
              seconds: float = 0.0) -> dict:
        self.children += 1
        pass_dir = self.workdir / f"p{self.children}"
        pass_dir.mkdir(parents=True)
        remaining = self.deadline - time.monotonic()
        spec = {"workload": self.args.workload, "seed": self.args.seed,
                "root": str(self.root), "workdir": str(pass_dir),
                "kind": kind, "trace": trace, "seconds": seconds,
                "budget_s": remaining - SETUP_RESERVE_S,
                "out": str(pass_dir / "result.json")}
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        tmp = pass_dir / "tmp"
        tmp.mkdir()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=self.root, env={**self.env, "TMPDIR": str(tmp)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{kind} pass overran the run budget")
        finally:
            if proc.poll() is None:
                # The pass and its pool workers share a process group.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"{kind} pass exited {proc.returncode}:\n"
                             f"{err[-4000:]}")
        with open(spec["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return result


def _tally(passes: list[dict]) -> tuple[int, int, int]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    decided = sum(p["decided"] for p in passes)
    return attempted, failed, decided


def end_to_end(run: Run) -> tuple[list[dict], dict[str, float]]:
    first = run.child("passes", seconds=run.args.seconds)
    passes = first["passes"]
    setups = [first]
    while len(setups) < MIN_SETUPS:
        setups.append(run.child("setup"))
    attempted, failed, decided = _tally(passes)
    metrics = {
        "props_per_s": statistics.median(
            p["attempted"] / (p["wall_s"] * p["speed"]) for p in passes),
        "setup_s": statistics.median(s["setup_s"] * s["setup_speed"]
                                     for s in setups),
        "cpu_s": statistics.median(p["cpu_s"] * p["speed"]
                                   for p in passes),
        "decided_share": decided / attempted,
        "correct_share": 1.0 - failed / attempted,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    speeds = ", ".join(f"{p['speed']:.3f}" for p in passes)
    print(f"{run.args.workload}: {len(passes)} passes of {walls} s "
          f"(raw) at speed factors {speeds}; {attempted} verdicts, "
          f"{len(setups)} set-ups", file=sys.stderr)
    return passes, metrics


def per_layer(run: Run) -> tuple[list[dict], dict[str, float]]:
    untraced = run.child("passes")["passes"][0]
    traced = [run.child("passes", trace=True) for _ in range(2)]
    for p in traced:
        ident = p["identity"]
        print(f"identity: traced wall {ident['window_s']:.6f} s = layers "
              f"{ident['attributed_s']:.6f} s + unattributed "
              f"{p['layers']['trace.unattributed_s']:.6f} s",
              file=sys.stderr)
    metrics = {name: statistics.fmean(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_share"] = statistics.fmean(
        p["wall_s"] * p["speed"] for p in traced) / \
        (untraced["wall_s"] * untraced["speed"]) - 1.0
    unrepeated = [name for name in layers.EXACT_COUNTS
                  if traced[0]["layers"][name] != traced[1]["layers"][name]]
    for name in unrepeated:
        print(f"not repeatable: {name} = {traced[0]['layers'][name]:g} "
              f"then {traced[1]['layers'][name]:g}", file=sys.stderr)
    metrics["trace.nondeterministic_counts"] = float(len(unrepeated))
    return [untraced] + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or \
            not (root / "corpus").is_dir():
        print("error: run from the root of a checkout of the program "
              "(src/repro and corpus/ are missing)", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Turn a termination request into an exit that stops the pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args, root)
    try:
        passes, values = (per_layer if args.trace else end_to_end)(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        print(f"error: no value for {sorted(missing)}", file=sys.stderr)
        return 1

    attempted, failed, _decided = _tally(passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload}  {m['name']:32s} {values[m['name']]:14.6f}"
              f"  {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
