"""External SAT solver bridge: race installed binaries past Python.

The pure-Python CDCL core is the portability floor, not the speed
ceiling.  This module shells out to any installed DIMACS-speaking SAT
binary (kissat, cadical, minisat, ...) through :mod:`repro.sat.dimacs`,
wrapped in a :class:`SubprocessSolver` that duck-types just enough of
:class:`~repro.sat.solver.Solver` for the model checker's
``FrameSolver``/``CnfBuilder`` plumbing to drive it unmodified.  The
model-checking layers therefore gain an external engine with zero
layer-specific code — it is registered as an ordinary strategy in
:mod:`repro.mc.strategy`.

Availability and degradation
----------------------------

Binaries are *auto-detected* (:func:`find_external_solver` probes
``$PATH``, honouring ``REPRO_SAT_BINARY`` as an override) and the
strategy is *opt-in*: it is registered but never part of the default
portfolio, and when no binary exists its verdict is a clean UNKNOWN so
racing it anywhere is always safe.

Trust model
-----------

A SAT answer is **verified**: the witness model is checked against every
clause we sent, so a buggy or lying binary surfaces as a loud
:class:`~repro.errors.SatError`, never as a wrong trace.  An UNSAT
answer is taken on trust (these binaries do not emit checkable proofs in
a common format); the external strategy is therefore registered as a
*refuter* — counterexamples it finds are independently validated, while
unbounded proofs stay with the in-process engines.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

from repro.errors import SatError
from repro.sat import cancel as _cancel
from repro.sat.dimacs import to_dimacs
from repro.sat.solver import SatStats

#: Known binaries, probed in order.  ``style`` is the output convention:
#: "stdout" solvers print ``s SATISFIABLE`` / ``v ...`` lines on stdout
#: (kissat/cadical/picosat lineage); "file" solvers take a result-file
#: argument and write ``SAT\n<model>`` into it (minisat lineage).  Both
#: use exit code 10 for SAT and 20 for UNSAT.
SOLVER_CANDIDATES: tuple[tuple[str, str], ...] = (
    ("kissat", "stdout"),
    ("cadical", "stdout"),
    ("picosat", "stdout"),
    ("lingeling", "stdout"),
    ("minisat", "file"),
    ("glucose", "file"),
)

ENV_BINARY = "REPRO_SAT_BINARY"
ENV_STYLE = "REPRO_SAT_STYLE"
#: How often a running binary's wait checks for cancel and timeout.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class ExternalSolverSpec:
    """A resolved external solver: executable path plus output style."""

    path: str
    style: str  # "stdout" or "file"
    name: str = ""

    def __post_init__(self):
        if self.style not in ("stdout", "file"):
            raise SatError(f"unknown external solver style {self.style!r}")


def find_external_solver(binary: str | None = None) -> ExternalSolverSpec | None:
    """Locate a usable SAT binary, or None (the strategy degrades).

    ``binary`` may name a candidate ("kissat") or be a path; the
    ``REPRO_SAT_BINARY`` environment variable overrides auto-detection
    the same way, with ``REPRO_SAT_STYLE`` forcing the output convention
    for binaries not in the known list (defaults to "stdout").
    """
    styles = dict(SOLVER_CANDIDATES)
    requested = binary or os.environ.get(ENV_BINARY)
    if requested:
        path = shutil.which(requested)
        if path is None:
            return None
        base = os.path.basename(requested)
        style = os.environ.get(ENV_STYLE) or styles.get(base, "stdout")
        return ExternalSolverSpec(path=path, style=style, name=base)
    for name, style in SOLVER_CANDIDATES:
        path = shutil.which(name)
        if path is not None:
            return ExternalSolverSpec(path=path, style=style, name=name)
    return None


@dataclass
class SubprocessSolver:
    """Drop-in ``Solver`` stand-in that solves via an external binary.

    Clauses accumulate in Python; every ``solve`` call writes the whole
    instance (assumptions appended as unit clauses) to a temp file and
    runs the binary — no incrementality, which is exactly the right
    trade for BMC-style workloads where each depth's query dwarfs the
    encoding cost.  Implements the slice of the ``Solver`` interface the
    ``CnfBuilder``/``FrameSolver`` plumbing uses: ``add_var``,
    ``add_clause``, ``solve``, ``solve_limited``, ``model_value``,
    ``model``, ``num_vars``, ``stats``.
    """

    spec: ExternalSolverSpec
    timeout_s: float | None = None
    stats: SatStats = field(default_factory=SatStats)

    def __post_init__(self):
        self._nvars = 0
        self._clauses: list[list[int]] = []
        self._ok = True
        self._model: list[int] = []

    # -- problem construction ------------------------------------------

    def add_var(self) -> int:
        self._nvars += 1
        self.stats.max_vars = self._nvars
        return self._nvars

    def num_vars(self) -> int:
        return self._nvars

    def add_clause(self, dimacs_lits: list[int]) -> bool:
        self.stats.clauses_added += 1
        lits = [int(d) for d in dimacs_lits]
        for d in lits:
            if d == 0 or abs(d) > self._nvars:
                raise SatError(f"bad literal {d} in external clause")
        if not lits:
            self._ok = False
            return False
        self._clauses.append(lits)
        return True

    # -- solving --------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> bool:
        result = self.solve_limited(assumptions)
        if result is None:
            raise SatError("external solve timed out without a budget")
        return result

    def solve_limited(self, assumptions: list[int] | None = None,
                      conflict_budget: int | None = None) -> bool | None:
        """Solve via the subprocess; None on timeout.

        ``conflict_budget`` cannot be imposed on an arbitrary binary and
        is ignored; bounded-latency callers get the wall-clock
        ``timeout_s`` instead, whose expiry maps to the same
        indeterminate None as an exhausted budget.  A cancel request
        (:mod:`repro.sat.cancel`) kills the binary and raises
        :class:`~repro.sat.cancel.SearchCancelled`, as the in-process
        solver does.
        """
        self._model = []
        _cancel.check(self.stats)
        if not self._ok:
            return False
        clauses = self._clauses
        extra = [[int(d)] for d in (assumptions or [])]
        text = to_dimacs(self._nvars, clauses + extra)
        started = time.perf_counter()
        try:
            verdict, model = _run_binary(self.spec, text, self._nvars,
                                         self.timeout_s)
        except subprocess.TimeoutExpired:
            return None
        except _cancel.SearchCancelled as exc:
            exc.stats = self.stats
            raise
        finally:
            self.stats.solve_seconds += time.perf_counter() - started
        if verdict is True:
            self._check_model(model, clauses + extra)
            self._model = model
            return True
        return verdict

    def _check_model(self, model: list[int], clauses: list[list[int]]) -> None:
        """Validate a claimed SAT answer; a lying binary fails loudly."""
        for clause in clauses:
            if not any(model[abs(d)] == (1 if d > 0 else -1)
                       for d in clause):
                raise SatError(
                    f"external solver {self.spec.name or self.spec.path} "
                    f"returned a model violating clause {clause}")

    # -- model access ---------------------------------------------------

    def model_value(self, var: int) -> bool:
        if not self._model:
            raise SatError("no model available (last solve returned False?)")
        if not (1 <= var <= self._nvars):
            raise SatError(f"variable {var} out of range")
        return self._model[var] > 0

    def model(self) -> list[int]:
        return [v if self._model[v] > 0 else -v
                for v in range(1, self._nvars + 1)]


def _run_binary(spec: ExternalSolverSpec, dimacs_text: str, num_vars: int,
                timeout_s: float | None) -> tuple[bool | None, list[int]]:
    """Run one solve; returns (verdict, model as a sign array).

    The model array is indexed by variable (slot 0 unused): +1 true,
    -1 false; unmentioned variables default to false, matching how
    DIMACS solvers may omit don't-cares.
    """
    with tempfile.TemporaryDirectory(prefix="repro-sat-") as tmp:
        cnf_path = os.path.join(tmp, "query.cnf")
        with open(cnf_path, "w", encoding="utf-8") as fp:
            fp.write(dimacs_text)
        if spec.style == "file":
            out_path = os.path.join(tmp, "result.out")
            argv = [spec.path, cnf_path, out_path]
        else:
            argv = [spec.path, cnf_path]
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
        except FileNotFoundError:
            raise SatError(f"external solver vanished: {spec.path}")
        with proc:
            stdout = _wait_for_binary(proc, timeout_s)
        if spec.style == "file":
            try:
                with open(out_path, encoding="utf-8") as fp:
                    payload = fp.read()
            except FileNotFoundError:
                payload = ""
            return _parse_file_output(spec, proc.returncode, payload,
                                      num_vars)
        return _parse_stdout(spec, proc.returncode, stdout, num_vars)


def _wait_for_binary(proc: subprocess.Popen, timeout_s: float | None) -> str:
    """The binary's stdout once it exits.

    Waits in short slices so a cancel request (:mod:`repro.sat.cancel`)
    or the ``timeout_s`` deadline kills the binary promptly; raises
    :class:`~repro.sat.cancel.SearchCancelled` or
    ``subprocess.TimeoutExpired`` after the kill.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        try:
            stdout, _stderr = proc.communicate(timeout=_POLL_SECONDS)
            return stdout
        except subprocess.TimeoutExpired:
            cancelled = _cancel.requested()
            if not cancelled and (deadline is None
                                  or time.monotonic() < deadline):
                continue
            proc.kill()
            proc.communicate()
            if cancelled:
                raise _cancel.SearchCancelled()
            raise subprocess.TimeoutExpired(proc.args, timeout_s)


def _parse_stdout(spec: ExternalSolverSpec, returncode: int, stdout: str,
                  num_vars: int) -> tuple[bool | None, list[int]]:
    status: bool | None = None
    model = [-1] * (num_vars + 1)
    for line in stdout.splitlines():
        if line.startswith("s "):
            token = line.split(None, 2)[1] if len(line.split()) > 1 else ""
            if token == "SATISFIABLE":
                status = True
            elif token == "UNSATISFIABLE":
                status = False
        elif line.startswith("v "):
            for tok in line.split()[1:]:
                lit = int(tok)
                if lit != 0 and abs(lit) <= num_vars:
                    model[abs(lit)] = 1 if lit > 0 else -1
    if status is None:
        # Fall back to the conventional exit codes.
        if returncode == 10:
            status = True
        elif returncode == 20:
            status = False
        else:
            raise SatError(
                f"external solver {spec.name or spec.path} produced no "
                f"verdict (exit code {returncode})")
    return status, model


def _parse_file_output(spec: ExternalSolverSpec, returncode: int,
                       payload: str,
                       num_vars: int) -> tuple[bool | None, list[int]]:
    lines = [ln.strip() for ln in payload.splitlines() if ln.strip()]
    model = [-1] * (num_vars + 1)
    if lines and lines[0] in ("SAT", "SATISFIABLE"):
        for tok in " ".join(lines[1:]).split():
            lit = int(tok)
            if lit != 0 and abs(lit) <= num_vars:
                model[abs(lit)] = 1 if lit > 0 else -1
        return True, model
    if lines and lines[0] in ("UNSAT", "UNSATISFIABLE"):
        return False, model
    if returncode == 10:
        return True, model
    if returncode == 20:
        return False, model
    raise SatError(
        f"external solver {spec.name or spec.path} produced no verdict "
        f"(exit code {returncode}, result file {payload[:80]!r})")
