"""External SAT bridge: detection, parity, trust model, racing.

No real SAT binary ships in the test environment, so these tests build
their own: tiny Python scripts that answer DIMACS queries with the
in-process solver, written in both output conventions the bridge
supports ("stdout" for the kissat lineage, "file" for minisat's).  That
exercises every layer of the bridge — subprocess plumbing, output
parsing, model verification, strategy degradation, portfolio racing —
against a binary whose verdicts are known-good.
"""

import multiprocessing
import os
import random
import stat
import sys
import threading
import time
from pathlib import Path

import pytest

from helpers import brute_force_sat
from repro.designs import get_design
from repro.errors import SatError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc import PortfolioScheduler, ProofEngine, Status, VerifyTask
from repro.mc.property import SafetyProperty
from repro.sat import cancel
from repro.sat.external import (ExternalSolverSpec, SubprocessSolver,
                                find_external_solver)
from repro.sat.solver import Solver
from repro.sva import MonitorContext

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

STDOUT_SOLVER = f"""#!{sys.executable}
import sys
sys.path.insert(0, {str(REPO_SRC)!r})
from repro.sat.dimacs import solver_from_dimacs
with open(sys.argv[1]) as fp:
    s = solver_from_dimacs(fp.read())
if s.solve():
    print("s SATISFIABLE")
    print("v " + " ".join(str(l) for l in s.model()) + " 0")
    sys.exit(10)
print("s UNSATISFIABLE")
sys.exit(20)
"""

FILE_SOLVER = f"""#!{sys.executable}
import sys
sys.path.insert(0, {str(REPO_SRC)!r})
from repro.sat.dimacs import solver_from_dimacs
with open(sys.argv[1]) as fp:
    s = solver_from_dimacs(fp.read())
with open(sys.argv[2], "w") as out:
    if s.solve():
        out.write("SAT\\n")
        out.write(" ".join(str(l) for l in s.model()) + " 0\\n")
        sys.exit(10)
    out.write("UNSAT\\n")
sys.exit(20)
"""

# Claims SAT with an all-false model regardless of the query: any
# instance with a positive unit clause exposes the lie.
LIAR_SOLVER = f"""#!{sys.executable}
print("s SATISFIABLE")
print("v 0")
raise SystemExit(10)
"""


def _write_binary(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


@pytest.fixture
def stdout_binary(tmp_path):
    return _write_binary(tmp_path, "fakesat", STDOUT_SOLVER)


@pytest.fixture
def file_binary(tmp_path):
    return _write_binary(tmp_path, "fakeminisat", FILE_SOLVER)


class TestDetection:
    def test_nothing_installed_means_none(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))  # empty dir
        monkeypatch.delenv("REPRO_SAT_BINARY", raising=False)
        assert find_external_solver() is None

    def test_env_override_points_at_binary(self, monkeypatch,
                                           stdout_binary):
        monkeypatch.setenv("REPRO_SAT_BINARY", str(stdout_binary))
        spec = find_external_solver()
        assert spec is not None
        assert spec.path == str(stdout_binary)
        assert spec.style == "stdout"  # unknown names default to stdout

    def test_env_style_override(self, monkeypatch, file_binary):
        monkeypatch.setenv("REPRO_SAT_BINARY", str(file_binary))
        monkeypatch.setenv("REPRO_SAT_STYLE", "file")
        spec = find_external_solver()
        assert spec is not None and spec.style == "file"

    def test_known_name_on_path_autodetected(self, monkeypatch, tmp_path):
        _write_binary(tmp_path, "minisat", FILE_SOLVER)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("REPRO_SAT_BINARY", raising=False)
        spec = find_external_solver()
        assert spec is not None
        assert spec.name == "minisat" and spec.style == "file"

    def test_bad_style_rejected(self):
        with pytest.raises(SatError):
            ExternalSolverSpec(path="/bin/true", style="telepathy")


def _spec_for(binary: Path, style: str) -> ExternalSolverSpec:
    return ExternalSolverSpec(path=str(binary), style=style,
                              name=binary.name)


class TestSubprocessSolver:
    @pytest.mark.parametrize("style", ["stdout", "file"])
    def test_parity_on_random_cnfs(self, style, stdout_binary,
                                   file_binary):
        binary = stdout_binary if style == "stdout" else file_binary
        rng = random.Random(77)
        for _ in range(12):
            num_vars = rng.randint(3, 8)
            clauses = [[(v if rng.random() < 0.5 else -v)
                        for v in (rng.randint(1, num_vars)
                                  for _ in range(rng.randint(1, 3)))]
                       for _ in range(rng.randint(2, 24))]
            ext = SubprocessSolver(_spec_for(binary, style))
            for _ in range(num_vars):
                ext.add_var()
            ok = all(ext.add_clause(list(c)) for c in clauses)
            got = ext.solve() if ok else False
            assert got == brute_force_sat(num_vars, clauses)
            if got:
                # SAT answers are verified internally; the model is the
                # caller-visible witness and must satisfy every clause.
                model = ext.model()
                for clause in clauses:
                    assert any(model[abs(lit) - 1] == lit
                               for lit in clause)

    def test_assumptions_become_units(self, stdout_binary):
        ext = SubprocessSolver(_spec_for(stdout_binary, "stdout"))
        a, b = ext.add_var(), ext.add_var()
        ext.add_clause([a, b])
        assert ext.solve([-a]) is True
        assert ext.model_value(b) is True
        assert ext.solve([-a, -b]) is False
        assert ext.solve([a]) is True  # assumptions don't persist

    def test_lying_binary_fails_loudly(self, tmp_path):
        liar = _write_binary(tmp_path, "liar", LIAR_SOLVER)
        ext = SubprocessSolver(_spec_for(liar, "stdout"))
        a = ext.add_var()
        ext.add_clause([a])
        with pytest.raises(SatError, match="violating clause"):
            ext.solve()

    def test_timeout_maps_to_indeterminate(self, tmp_path):
        sleeper = _write_binary(
            tmp_path, "sleeper",
            f"#!{sys.executable}\nimport time\ntime.sleep(30)\n")
        ext = SubprocessSolver(_spec_for(sleeper, "stdout"),
                               timeout_s=0.2)
        a = ext.add_var()
        ext.add_clause([a])
        assert ext.solve_limited() is None

    def test_cancel_kills_the_binary(self, tmp_path):
        pid_file = tmp_path / "pid"
        sleeper = _write_binary(
            tmp_path, "sleeper",
            f"#!{sys.executable}\nimport os, time\n"
            f"open({str(pid_file)!r} + '.tmp', 'w').write(str(os.getpid()))\n"
            f"os.replace({str(pid_file)!r} + '.tmp', {str(pid_file)!r})\n"
            f"time.sleep(30)\n")
        ext = SubprocessSolver(_spec_for(sleeper, "stdout"))
        a = ext.add_var()
        ext.add_clause([a])
        flags = multiprocessing.RawArray("b", 1)

        def cancel_once_running():
            while not pid_file.exists():
                time.sleep(0.01)
            flags[0] = 1

        canceller = threading.Thread(target=cancel_once_running,
                                     daemon=True)
        cancel.install(flags)
        started = time.perf_counter()
        try:
            with cancel.watching(0):
                canceller.start()
                with pytest.raises(cancel.SearchCancelled) as info:
                    ext.solve_limited()
        finally:
            cancel.install(None)
        assert time.perf_counter() - started < 10
        assert info.value.stats is ext.stats
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)  # killed and reaped

    def test_no_verdict_is_an_error(self, tmp_path):
        silent = _write_binary(tmp_path, "silent",
                               f"#!{sys.executable}\nraise SystemExit(3)\n")
        ext = SubprocessSolver(_spec_for(silent, "stdout"))
        a = ext.add_var()
        ext.add_clause([a])
        with pytest.raises(SatError, match="no.*verdict"):
            ext.solve()

    def test_solve_seconds_accumulates(self, stdout_binary):
        ext = SubprocessSolver(_spec_for(stdout_binary, "stdout"))
        a = ext.add_var()
        ext.add_clause([a])
        assert ext.solve() is True
        assert ext.stats.solve_seconds > 0


def _check(design_name, prop_name, strategy, **options):
    design = get_design(design_name)
    ctx = MonitorContext(design.system())
    spec = design.property_spec(prop_name)
    prop = ctx.add(spec.sva, name=spec.name)
    return ProofEngine(ctx.system).check(prop, strategy, **options)


class TestExternalStrategy:
    def test_degrades_to_unknown_without_binary(self, monkeypatch,
                                                tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("REPRO_SAT_BINARY", raising=False)
        result = _check("sync_counters_bug", "counters_equal",
                        "external", bound=25)
        assert result.status is Status.UNKNOWN
        assert "no external SAT binary" in result.detail

    def test_refutation_parity_with_internal_bmc(self, monkeypatch,
                                                 stdout_binary):
        monkeypatch.setenv("REPRO_SAT_BINARY", str(stdout_binary))
        external = _check("sync_counters_bug", "counters_equal",
                          "external", bound=25)
        internal = _check("sync_counters_bug", "counters_equal",
                          "bmc", bound=25)
        assert external.status is Status.VIOLATED
        assert external.status == internal.status
        assert external.k == internal.k
        assert external.cex is not None
        assert len(external.cex.steps) == len(internal.cex.steps)

    def test_wins_a_portfolio_race(self, monkeypatch, stdout_binary):
        """With a binary installed, the external refuter racing a slow
        prover must claim the win — the ISSUE's acceptance scenario."""
        monkeypatch.setenv("REPRO_SAT_BINARY", str(stdout_binary))
        system = TransitionSystem("diverge")
        c1 = system.add_state("count1", 3, init=E.const(0, 3))
        c2 = system.add_state("count2", 3, init=E.const(0, 3))
        one = E.const(1, 3)
        system.set_next("count1", E.add(c1, one))
        system.set_next("count2", E.ite(E.eq(c1, E.const(3, 3)), c2,
                                        E.add(c2, one)))
        prop = SafetyProperty.from_invariant(
            "equal", E.eq(E.var("count1", 3), E.var("count2", 3)))
        scheduler = PortfolioScheduler(jobs=1)
        [outcome] = scheduler.run([VerifyTask(
            system, prop,
            strategies=("external(bound=8)", "k_induction(max_k=2)"))])
        assert outcome.status is Status.VIOLATED
        assert outcome.strategy == "external(bound=8)"
        assert outcome.attempts == 1
        assert outcome.cancelled == 1  # k-induction never ran
