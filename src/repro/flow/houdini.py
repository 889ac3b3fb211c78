"""Houdini-style inductive fixpoint over candidate assertion sets.

Given a set of candidate invariants, find the maximal subset whose
*conjunction* is k-inductive (every survivor is then individually proven,
since the conjunction's base and step cases passed).  The algorithm is
the classic Houdini loop adapted to k-induction:

1. **BMC screen** — bounded check of the conjunction from the initial
   state; any candidate observed false in a counterexample is certainly
   not an invariant and is dropped (these are the hallucinated/wrong
   assertions the paper warns about);
2. **step fixpoint** — attempt the inductive step of the conjunction;
   when it fails, evaluate each candidate on the *last frame* of the step
   counterexample and drop the falsified ones; repeat until the step
   passes (survivors proven) or the set empties.

Dropping only ever removes candidates falsified by a concrete model, so
the procedure is sound and reaches the unique maximal inductive subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.cache import ResultCache, run_cached
from repro.mc.portfolio import PortfolioScheduler
from repro.mc.property import SafetyProperty
from repro.mc.result import ProofStats, Status
from repro.trace.trace import Trace


@dataclass
class HoudiniResult:
    """Outcome of one Houdini run."""

    proven: list[SafetyProperty]
    dropped: list[tuple[SafetyProperty, str]]  # (candidate, reason)
    k: int = 0
    rounds: int = 0
    stats: ProofStats = field(default_factory=ProofStats)


def houdini_prove(system: TransitionSystem,
                  candidates: list[SafetyProperty],
                  max_k: int = 3,
                  bmc_bound: int = 10,
                  lemmas: list[tuple[E.Expr, int]] | None = None,
                  max_rounds: int = 25,
                  jobs: int = 1,
                  cache: ResultCache | None = None) -> HoudiniResult:
    """Run the Houdini fixpoint; see the module docstring.

    ``lemmas`` are previously proven invariants assumed throughout (they
    only ever help).  ``max_k`` bounds the induction depth tried for the
    conjunction — each k runs its own drop-to-fixpoint loop.

    ``jobs > 1`` adds a *parallel per-candidate BMC screen* before the
    conjunction loop: each candidate is bounded-checked independently
    across the worker pool, and individually-falsified ones (the
    hallucinated assertions the paper warns about) are dropped in bulk
    instead of one conjunction counterexample at a time.  ``cache``
    memoizes every conjunction query, so the screen of round ``n`` is
    free when round ``n+1`` re-tries the same surviving set.
    """
    stats = ProofStats()
    dropped: list[tuple[SafetyProperty, str]] = []
    active = list(candidates)

    if jobs > 1 and len(active) > 1:
        with PortfolioScheduler(
                jobs=jobs, strategies=("bmc",),
                strategy_options={"bmc": {"bound": bmc_bound}},
                cache=cache) as scheduler:
            outcomes = scheduler.run_batch(system, active,
                                           lemmas=list(lemmas or []))
        survivors = []
        violated = {}
        for outcome in outcomes:
            stats.accumulate(outcome.result.stats)
            if outcome.status is Status.VIOLATED:
                violated[outcome.property_name] = outcome.result.k
        for prop in active:
            if prop.name in violated:
                dropped.append((prop, "falsified from reset at cycle "
                                f"{violated[prop.name]} (parallel screen)"))
            else:
                survivors.append(prop)
        active = survivors

    # Round 0: BMC screen of the conjunction (drop real violations).
    rounds = 0
    while active:
        rounds += 1
        if rounds > max_rounds:
            break
        conj = _conjoin(active)
        result = run_cached("bmc", system, conj, {"bound": bmc_bound},
                            lemmas=lemmas, cache=cache)
        stats.accumulate(result.stats)
        if result.status is not Status.VIOLATED:
            break
        active, newly_dropped = _drop_falsified(
            system, active, result.cex, at_time=result.k,
            reason=f"falsified from reset at cycle {result.k}")
        dropped.extend(newly_dropped)

    if not active:
        return HoudiniResult([], dropped, rounds=rounds, stats=stats)

    # Step fixpoint with increasing k.
    for k in range(1, max_k + 1):
        while active:
            rounds += 1
            if rounds > max_rounds:
                return HoudiniResult([], dropped + [
                    (c, "houdini round budget exhausted") for c in active],
                    k=k, rounds=rounds, stats=stats)
            conj = _conjoin(active)
            result = run_cached(
                "k_induction", system, conj,
                {"max_k": k, "keep_last_step_cex": True},
                lemmas=lemmas, cache=cache)
            stats.accumulate(result.stats)
            if result.status is Status.PROVEN:
                return HoudiniResult(active, dropped, k=k, rounds=rounds,
                                     stats=stats)
            if result.status is Status.VIOLATED:
                # Should have been caught by the BMC screen; drop and go on.
                active, newly_dropped = _drop_falsified(
                    system, active, result.cex, at_time=result.k,
                    reason="violated in deeper base case")
                dropped.extend(newly_dropped)
                continue
            assert result.step_cex is not None
            survivors, newly_dropped = _drop_falsified(
                system, active, result.step_cex,
                at_time=result.step_cex.length - 1,
                reason=f"not inductive at k={k}")
            if not newly_dropped:
                # Nothing to drop at this k: the conjunction needs deeper
                # induction, not a smaller set.
                break
            active = survivors
            dropped.extend(newly_dropped)
        if not active:
            break

    remaining = [(c, f"no inductive subset within k={max_k}")
                 for c in active]
    return HoudiniResult([], dropped + remaining, k=max_k, rounds=rounds,
                         stats=stats)


def _conjoin(props: list[SafetyProperty]) -> SafetyProperty:
    if len(props) == 1:
        return props[0]
    return props[0].conjoined_with(props[1:], name="houdini_conjunction")


def _drop_falsified(system: TransitionSystem,
                    active: list[SafetyProperty],
                    trace: Trace | None,
                    at_time: int,
                    reason: str
                    ) -> tuple[list[SafetyProperty],
                               list[tuple[SafetyProperty, str]]]:
    """Partition candidates by their value on one trace frame."""
    if trace is None:
        return active, []
    env = {s.name: trace.value(s.name, at_time)
           for s in trace.signals if s.kind in ("input", "state")}
    survivors: list[SafetyProperty] = []
    newly_dropped: list[tuple[SafetyProperty, str]] = []
    for prop in active:
        resolved = system.resolve_defines(prop.bad)
        try:
            is_bad = E.evaluate(resolved, env) == 1
        except Exception:
            is_bad = False  # monitors outside this trace: keep candidate
        if is_bad:
            newly_dropped.append((prop, reason))
        else:
            survivors.append(prop)
    if not newly_dropped and survivors:
        # The conjunction failed but no single candidate evaluates bad at
        # the chosen frame (e.g. the failure involves warm-up monitors).
        # Drop the lowest-priority candidate to guarantee progress.
        victim = survivors.pop()
        newly_dropped.append((victim, reason + " (tie-break drop)"))
    return survivors, newly_dropped
