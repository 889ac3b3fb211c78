"""CDCL SAT solver tests: units, models, assumptions, fuzz vs brute force."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_sat
from repro.errors import SatError
from repro.sat import cancel
from repro.sat.dimacs import parse_dimacs, solver_from_dimacs, to_dimacs
from repro.sat.solver import Solver, _luby


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve() is True

    def test_unit_propagation(self):
        s = Solver()
        a, b = s.add_var(), s.add_var()
        s.add_clause([a])
        s.add_clause([-a, b])
        assert s.solve() is True
        assert s.model_value(a) and s.model_value(b)

    def test_trivial_unsat(self):
        s = Solver()
        a = s.add_var()
        s.add_clause([a])
        assert s.add_clause([-a]) is False
        assert s.solve() is False

    def test_empty_clause_unsat(self):
        s = Solver()
        s.add_var()
        assert s.add_clause([]) is False

    def test_tautology_ignored(self):
        s = Solver()
        a = s.add_var()
        assert s.add_clause([a, -a]) is True
        assert s.solve() is True

    def test_duplicate_literals_collapsed(self):
        s = Solver()
        a, b = s.add_var(), s.add_var()
        s.add_clause([a, a, b, b])
        s.add_clause([-a])
        assert s.solve() is True and s.model_value(b)

    def test_unknown_variable_rejected(self):
        s = Solver()
        with pytest.raises(SatError):
            s.add_clause([1])
        s.add_var()
        with pytest.raises(SatError):
            s.add_clause([0])

    def test_model_satisfies_clauses(self):
        s = Solver()
        variables = [s.add_var() for _ in range(6)]
        clauses = [[variables[0], -variables[1]],
                   [variables[1], variables[2], -variables[3]],
                   [-variables[0], variables[4]],
                   [variables[5]]]
        for c in clauses:
            s.add_clause(c)
        assert s.solve() is True
        model = s.model()
        for c in clauses:
            assert any(model[abs(lit) - 1] == lit for lit in c)

    def test_model_unavailable_after_unsat(self):
        s = Solver()
        a = s.add_var()
        s.add_clause([a])
        s.add_clause([-a])
        s.solve()
        with pytest.raises(SatError):
            s.model_value(a)


class TestAssumptions:
    def test_assumption_directs_model(self):
        s = Solver()
        a, b = s.add_var(), s.add_var()
        s.add_clause([a, b])
        assert s.solve([-a]) is True
        assert s.model_value(b)

    def test_unsat_under_assumptions_recoverable(self):
        s = Solver()
        a, b = s.add_var(), s.add_var()
        s.add_clause([a, b])
        assert s.solve([-a, -b]) is False
        assert s.solve([a]) is True
        assert s.solve([-b]) is True and s.model_value(a)

    def test_conflicting_assumption_with_unit(self):
        s = Solver()
        a = s.add_var()
        s.add_clause([a])
        assert s.solve([-a]) is False
        assert s.solve([a]) is True

    def test_incremental_clause_addition(self):
        s = Solver()
        a, b, c = s.add_var(), s.add_var(), s.add_var()
        s.add_clause([a, b])
        assert s.solve() is True
        s.add_clause([-a])
        s.add_clause([-b, c])
        assert s.solve() is True
        assert s.model_value(b) and s.model_value(c)


class TestBudget:
    def test_budget_exhaustion_returns_none(self):
        # PHP(7,6) is UNSAT and needs far more than 3 conflicts.
        s = Solver()
        v = {}
        for p in range(7):
            for h in range(6):
                v[p, h] = s.add_var()
        for p in range(7):
            s.add_clause([v[p, h] for h in range(6)])
        for h in range(6):
            for p1 in range(7):
                for p2 in range(p1 + 1, 7):
                    s.add_clause([-v[p1, h], -v[p2, h]])
        assert s.solve_limited(conflict_budget=3) is None
        # And without a budget it completes.
        assert s.solve() is False


class _FlagSetAfter:
    """One cancel flag that reads as set from its ``polls+1``-th read."""

    def __init__(self, polls: int):
        self.polls = polls

    def __getitem__(self, slot: int) -> int:
        self.polls -= 1
        return int(self.polls < 0)


class TestCancellation:
    def _cancelled_solve(self, solver, flags):
        cancel.install(flags)
        try:
            with cancel.watching(0):
                with pytest.raises(cancel.SearchCancelled) as info:
                    solver.solve()
        finally:
            cancel.install(None)
        return info.value

    def test_flag_is_polled_once_per_conflict(self):
        s = Solver()
        _php_clauses(s, 7, 6)
        # One poll on entry, then one per conflict: the sixth poll
        # stops the search before its conflict is counted.
        exc = self._cancelled_solve(s, _FlagSetAfter(5))
        assert exc.stats is s.stats
        assert s.stats.conflicts == 4
        assert s.stats.solve_seconds > 0

    def test_set_flag_stops_on_entry(self):
        s = Solver()
        a = s.add_var()
        s.add_clause([a])
        exc = self._cancelled_solve(s, [1])
        assert exc.stats.conflicts == 0

    def test_unwatched_solver_ignores_flags(self):
        cancel.install([1])
        try:
            assert Solver().solve() is True
        finally:
            cancel.install(None)


def _php_clauses(solver, pigeons, holes, guard=None):
    """Pigeonhole clauses, optionally guarded by an activation literal."""
    prefix = [] if guard is None else [-guard]
    v = {}
    for p in range(pigeons):
        for h in range(holes):
            v[p, h] = solver.add_var()
    for p in range(pigeons):
        solver.add_clause(prefix + [v[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause(prefix + [-v[p1, h], -v[p2, h]])
    return v


class TestActivationLiterals:
    """The assumption-guarded clause pattern PDR's frames are built on:
    clauses of the form (¬act ∨ c) must behave as present exactly when
    ``act`` is assumed, across arbitrarily many solve() calls, with
    learnt clauses surviving throughout."""

    def test_guarded_clause_retracts_across_many_solves(self):
        s = Solver()
        act = s.add_var()
        x = s.add_var()
        s.add_clause([-act, x])        # act -> x
        for _ in range(25):
            assert s.solve([act]) is True and s.model_value(x)
            assert s.solve([-x]) is True        # guard off: x free
            assert s.solve([act, -x]) is False  # guard on: forced
            assert s.solve([act, x]) is True    # and recoverable

    def test_independent_guards_select_clause_subsets(self):
        s = Solver()
        g1, g2 = s.add_var(), s.add_var()
        x, y = s.add_var(), s.add_var()
        s.add_clause([-g1, x])
        s.add_clause([-g2, -x])
        s.add_clause([-g2, y])
        # Individually consistent, jointly contradictory on x.
        assert s.solve([g1]) is True and s.model_value(x)
        assert s.solve([g2]) is True and not s.model_value(x)
        assert s.solve([g1, g2]) is False
        assert s.solve([g1]) is True  # no permanent damage

    def test_learnt_clauses_survive_guarded_unsat(self):
        """An UNSAT proof under a guard learns clauses; re-solving the
        same query must reuse them (no more conflicts than round one),
        and retracting the guard must leave the formula satisfiable."""
        s = Solver()
        act = s.add_var()
        _php_clauses(s, 6, 5, guard=act)
        before = s.stats.conflicts
        assert s.solve([act]) is False
        first = s.stats.conflicts - before
        assert first > 0
        assert s.stats.learned > 0
        assert s.solve([]) is True          # guard off: trivially SAT
        learned_before_rerun = s.stats.learned
        before = s.stats.conflicts
        assert s.solve([act]) is False      # same query, warm clause DB
        second = s.stats.conflicts - before
        assert second <= first
        # Learnt clauses were available, not re-derived from scratch.
        assert s.stats.learned >= learned_before_rerun

    def test_retired_guard_is_permanent(self):
        """add_clause([-act]) is the retirement idiom: the guarded
        clause becomes satisfied forever and the guard unassumable."""
        s = Solver()
        act = s.add_var()
        x = s.add_var()
        s.add_clause([-act, x])
        assert s.solve([act, x]) is True
        s.add_clause([-act])                # retire
        assert s.solve([-x]) is True        # clause gone for good
        assert s.solve([act]) is False      # guard contradicts the unit

    def test_guards_mixed_with_incremental_clauses(self):
        """Interleaving guarded solves with fresh permanent clauses —
        the add-between-solves incremental contract PDR exercises."""
        s = Solver()
        guards = [s.add_var() for _ in range(8)]
        xs = [s.add_var() for _ in range(8)]
        for g, x in zip(guards, xs):
            s.add_clause([-g, x])
        for i, (g, x) in enumerate(zip(guards, xs)):
            assert s.solve(guards[:i + 1]) is True
            assert all(s.model_value(y) for y in xs[:i + 1])
            s.add_clause([-xs[i], xs[(i + 1) % 8]])  # permanent chain
        assert s.solve(guards) is True
        assert all(s.model_value(x) for x in xs)

    def test_model_invalidated_by_unsat_solve(self):
        """A failed solve must not leave the previous model readable:
        PDR extracts cubes right after SAT answers and depends on a
        stale read failing loudly."""
        s = Solver()
        a = s.add_var()
        s.add_clause([a])
        assert s.solve() is True
        assert s.model_value(a) is True
        assert s.solve([-a]) is False
        with pytest.raises(SatError):
            s.model_value(a)
        assert s.solve() is True            # and SAT restores it
        assert s.model_value(a) is True

    def test_model_invalidated_by_budget_exhaustion(self):
        s = Solver()
        x = s.add_var()
        s.add_clause([x])
        assert s.solve() is True
        _php_clauses(s, 7, 6)
        assert s.solve_limited(conflict_budget=2) is None
        with pytest.raises(SatError):
            s.model_value(x)

    def test_budgeted_guarded_probe_leaves_solver_reusable(self):
        """PDR's generalization probes: an indeterminate budgeted solve
        under guards must not corrupt later unbudgeted solves."""
        s = Solver()
        act = s.add_var()
        _php_clauses(s, 7, 6, guard=act)
        assert s.solve_limited([act], conflict_budget=3) is None
        assert s.solve([]) is True
        assert s.solve([act]) is False
        assert s.solve([]) is True


class TestHardInstances:
    @pytest.mark.parametrize("pigeons,holes", [(4, 3), (5, 4), (6, 5)])
    def test_pigeonhole_unsat(self, pigeons, holes):
        s = Solver()
        v = {}
        for p in range(pigeons):
            for h in range(holes):
                v[p, h] = s.add_var()
        for p in range(pigeons):
            s.add_clause([v[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-v[p1, h], -v[p2, h]])
        assert s.solve() is False

    def test_xor_chain_sat(self):
        # x1 ^ x2 ^ ... ^ x10 == 1 as CNF via intermediate variables.
        s = Solver()
        xs = [s.add_var() for _ in range(10)]
        acc = xs[0]
        for x in xs[1:]:
            out = s.add_var()
            # out == acc ^ x
            s.add_clause([-out, acc, x])
            s.add_clause([-out, -acc, -x])
            s.add_clause([out, -acc, x])
            s.add_clause([out, acc, -x])
            acc = out
        s.add_clause([acc])
        assert s.solve() is True
        parity = sum(s.model_value(x) for x in xs) % 2
        assert parity == 1


class TestFuzzAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_3sat(self, data):
        num_vars = data.draw(st.integers(3, 9))
        num_clauses = data.draw(st.integers(2, 40))
        clauses = []
        for _ in range(num_clauses):
            size = data.draw(st.integers(1, 3))
            clause = []
            for _ in range(size):
                v = data.draw(st.integers(1, num_vars))
                clause.append(v if data.draw(st.booleans()) else -v)
            clauses.append(clause)
        solver = Solver(restart_base=8)
        for _ in range(num_vars):
            solver.add_var()
        ok = all(solver.add_clause(list(c)) for c in clauses)
        got = solver.solve() if ok else False
        assert got == brute_force_sat(num_vars, clauses)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_wide_cnf_up_to_12_vars(self, data):
        """Wider clauses and more variables than the 3-SAT fuzzer —
        exercises the blocker fast path (satisfied-clause skips) and
        long-clause watch relocation, with the model checked on SAT."""
        num_vars = data.draw(st.integers(8, 12))
        num_clauses = data.draw(st.integers(5, 60))
        clauses = []
        for _ in range(num_clauses):
            size = data.draw(st.integers(1, 5))
            clause = [data.draw(st.integers(1, num_vars)) *
                      (1 if data.draw(st.booleans()) else -1)
                      for _ in range(size)]
            clauses.append(clause)
        solver = Solver(restart_base=8)
        for _ in range(num_vars):
            solver.add_var()
        ok = all(solver.add_clause(list(c)) for c in clauses)
        got = solver.solve() if ok else False
        assert got == brute_force_sat(num_vars, clauses)
        if got:
            model = solver.model()
            for clause in clauses:
                assert any(model[abs(lit) - 1] == lit for lit in clause)

    def test_seeded_batch_with_model_validation(self):
        rng = random.Random(2024)
        for _ in range(150):
            num_vars = rng.randint(3, 10)
            clauses = [[(v if rng.random() < 0.5 else -v)
                        for v in (rng.randint(1, num_vars)
                                  for _ in range(rng.randint(1, 3)))]
                       for _ in range(rng.randint(3, 42))]
            solver = Solver(restart_base=16)
            for _ in range(num_vars):
                solver.add_var()
            ok = all(solver.add_clause(list(c)) for c in clauses)
            got = solver.solve() if ok else False
            assert got == brute_force_sat(num_vars, clauses)
            if got:
                model = solver.model()
                for clause in clauses:
                    assert any(model[abs(lit) - 1] == lit
                               for lit in clause)


class TestExactBudgetAccounting:
    """``solve_limited``'s budget contract is *exact*: an indeterminate
    solve with budget N counts exactly N conflicts — the property the
    PDR generalization probes rely on for reproducible effort limits."""

    @pytest.mark.parametrize("budget", [1, 2, 5, 17])
    def test_indeterminate_solve_counts_exactly_n(self, budget):
        s = Solver()
        _php_clauses(s, 7, 6)
        before = s.stats.conflicts
        assert s.solve_limited(conflict_budget=budget) is None
        assert s.stats.conflicts - before == budget

    def test_conclusive_solve_stays_within_budget(self):
        s = Solver()
        _php_clauses(s, 4, 3)  # small enough to finish inside 10_000
        before = s.stats.conflicts
        assert s.solve_limited(conflict_budget=10_000) is False
        assert s.stats.conflicts - before <= 10_000

    def test_zero_budget_allows_conflict_free_solves(self):
        s = Solver()
        a, b = s.add_var(), s.add_var()
        s.add_clause([a])
        s.add_clause([-a, b])
        before = s.stats.conflicts
        assert s.solve_limited(conflict_budget=0) is True
        assert s.stats.conflicts == before

    def test_budgets_are_per_call_not_cumulative(self):
        s = Solver()
        _php_clauses(s, 7, 6)
        before = s.stats.conflicts
        assert s.solve_limited(conflict_budget=3) is None
        assert s.solve_limited(conflict_budget=3) is None
        assert s.stats.conflicts - before == 6

    def test_solve_seconds_accumulates(self):
        s = Solver()
        _php_clauses(s, 6, 5)
        assert s.stats.solve_seconds == 0.0
        assert s.solve() is False
        first = s.stats.solve_seconds
        assert first > 0
        assert s.solve([]) is False
        assert s.stats.solve_seconds >= first


class TestWatchIntegrity:
    """``_detach`` treats a missing watch entry as corruption and fails
    loudly instead of leaving the clause half-attached (which would
    surface later as silently wrong verdicts)."""

    @pytest.mark.parametrize("size", [2, 3])
    def test_double_detach_raises(self, size):
        s = Solver()
        xs = [s.add_var() for _ in range(size)]
        s.add_clause(xs)
        cref = s._clauses[-1]
        s._detach(cref)
        with pytest.raises(SatError, match="corruption"):
            s._detach(cref)

    def test_tampered_watch_list_raises(self):
        s = Solver()
        xs = [s.add_var() for _ in range(3)]
        s.add_clause(xs)
        cref = s._clauses[-1]
        # Simulate corruption: drop the clause from one watch list.
        watched = s._ca[cref + 2] ^ 1
        s._watches[watched] = [entry for i, entry
                               in enumerate(s._watches[watched])
                               if not (i % 2 == 0 and entry == cref)]
        with pytest.raises(SatError, match="corruption"):
            s._detach(cref)


class TestIncrementalSequences:
    def test_long_interleaved_sequence_vs_brute_force(self):
        """Clauses trickle in between solves under varying assumptions;
        every verdict must match a from-scratch brute-force decision of
        the clauses (plus assumptions) accumulated so far."""
        rng = random.Random(7)
        num_vars = 9
        s = Solver(restart_base=16)
        for _ in range(num_vars):
            s.add_var()
        clauses: list[list[int]] = []
        ok = True
        for _round in range(40):
            for _ in range(rng.randint(1, 3)):
                clause = [(v if rng.random() < 0.5 else -v)
                          for v in (rng.randint(1, num_vars)
                                    for _ in range(rng.randint(1, 3)))]
                clauses.append(clause)
                ok = s.add_clause(list(clause)) and ok
            assumptions = [(v if rng.random() < 0.5 else -v)
                           for v in rng.sample(range(1, num_vars + 1),
                                               rng.randint(0, 3))]
            got = s.solve_limited(assumptions) if ok else False
            want = brute_force_sat(
                num_vars, clauses + [[a] for a in assumptions])
            assert got == want
            if not ok:
                break


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


class TestDimacs:
    def test_roundtrip(self):
        text = to_dimacs(3, [[1, -2], [2, 3], [-1]])
        num_vars, clauses = parse_dimacs(text)
        assert num_vars == 3
        assert clauses == [[1, -2], [2, 3], [-1]]

    def test_solver_from_dimacs(self):
        solver = solver_from_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
        assert solver.solve() is True
        assert solver.model_value(2)

    def test_comments_and_blank_lines(self):
        num_vars, clauses = parse_dimacs(
            "c comment\n\np cnf 2 1\nc mid\n1 -2 0\n")
        assert num_vars == 2 and clauses == [[1, -2]]

    def test_bad_header_rejected(self):
        with pytest.raises(SatError):
            parse_dimacs("p dnf 1 1\n1 0\n")

    def test_random_cnf_roundtrip_preserves_verdict(self):
        """write -> parse -> solve agrees with solving the original:
        the bridge the external-solver strategy rides on."""
        rng = random.Random(99)
        for _ in range(25):
            num_vars = rng.randint(3, 10)
            clauses = [[(v if rng.random() < 0.5 else -v)
                        for v in (rng.randint(1, num_vars)
                                  for _ in range(rng.randint(1, 4)))]
                       for _ in range(rng.randint(2, 30))]
            text = to_dimacs(num_vars, clauses)
            parsed_vars, parsed_clauses = parse_dimacs(text)
            assert parsed_vars == num_vars
            assert parsed_clauses == clauses
            assert solver_from_dimacs(text).solve() == \
                brute_force_sat(num_vars, clauses)
