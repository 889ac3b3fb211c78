"""High-level proof engine facade.

:class:`ProofEngine` is the "formal tool" box in the paper's Fig. 1/Fig. 2
diagrams: it owns a design, applies cone-of-influence reduction per
property, runs BMC or k-induction, manages the proven-lemma pool, and
reports uniform :class:`~repro.mc.result.CheckResult` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.ir import expr as E
from repro.ir.passes import cone_of_influence
from repro.ir.system import TransitionSystem
from repro.mc.cache import ResultCache, run_cached
from repro.mc.portfolio import (DEFAULT_PORTFOLIO, PortfolioOutcome,
                                PortfolioScheduler, VerifyTask,
                                depth_options)
from repro.mc.property import SafetyProperty
from repro.mc.result import CheckResult, Status


@dataclass
class EngineConfig:
    """Engine-wide defaults (overridable per call)."""

    max_k: int = 10
    bmc_bound: int = 20
    use_coi: bool = True
    simple_path: bool = False


class ProofEngine:
    """The formal tool: proves properties, accumulates proven lemmas."""

    def __init__(self, system: TransitionSystem,
                 config: EngineConfig | None = None,
                 cache: ResultCache | None = None):
        system.validate()
        self.system = system
        self.config = config or EngineConfig()
        self.cache = cache
        # (name, good expr, valid_from) — proven global assumptions.
        self.lemmas: list[tuple[str, E.Expr, int]] = []

    # ------------------------------------------------------------------
    # Lemma pool
    # ------------------------------------------------------------------

    def add_lemma(self, name: str, good: E.Expr,
                  valid_from: int = 0) -> None:
        """Register an *already proven* invariant as a global assumption.

        ``valid_from`` exempts monitor warm-up cycles (a lemma built from
        ``$past`` chains says nothing before its chains fill).
        """
        if good.width != 1:
            raise ValueError("lemmas must be 1-bit expressions")
        self.lemmas.append((name, good, valid_from))

    def lemma_pairs(self) -> list[tuple[E.Expr, int]]:
        return [(g, vf) for _, g, vf in self.lemmas]

    def clear_lemmas(self) -> None:
        self.lemmas.clear()

    def add_invariant_lemmas(self, result: CheckResult,
                             prefix: str = "pdr_inv") -> int:
        """Re-assume a PDR invariant certificate as proven lemmas.

        Each conjunct of a PROVEN result's ``invariant`` holds in every
        reachable state (the conjunction is 1-step inductive and the
        conjuncts are its consequences), so they qualify as global
        assumptions for any other engine — this is the cross-feed that
        lets k-induction close proofs with PDR-discovered
        strengthenings.  Returns the number of lemmas added.
        """
        if result.status is not Status.PROVEN or not result.invariant:
            return 0
        added = 0
        for good in result.invariant:
            self.add_lemma(f"{prefix}_{added}", good, valid_from=0)
            added += 1
        return added

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def check(self, prop: SafetyProperty, strategy: str,
              use_lemmas: bool = True,
              extra_lemmas: list[tuple[E.Expr, int]] | None = None,
              **options) -> CheckResult:
        """Run one check through the strategy registry (and the cache).

        ``strategy`` is a spec string (``"bmc"``,
        ``"k_induction(simple_path=True)"``, ...); every specialized
        entry point below funnels through here, so caching and
        cone-of-influence scoping behave identically everywhere.
        """
        system = self.scoped_system(prop, extra_lemmas)
        lemmas = list(self.lemma_pairs()) if use_lemmas else []
        lemmas += list(extra_lemmas or [])
        return run_cached(strategy, system, prop, options,
                          lemmas=lemmas, cache=self.cache)

    def check_bmc(self, prop: SafetyProperty,
                  bound: int | None = None,
                  use_lemmas: bool = True,
                  conflict_budget: int | None = None) -> CheckResult:
        """Bounded search for a real counterexample."""
        return self.check(prop, "bmc", use_lemmas=use_lemmas,
                          bound=bound or self.config.bmc_bound,
                          conflict_budget=conflict_budget)

    def probe_bugs(self, prop: SafetyProperty,
                   bound: int | None = None,
                   conflict_budget: int = 4000) -> CheckResult:
        """Cheap single-shot bug triage (see :func:`repro.mc.bmc.bmc_probe`)."""
        return self.check(prop, "bmc_probe",
                          bound=bound or self.config.bmc_bound,
                          conflict_budget=conflict_budget)

    def prove(self, prop: SafetyProperty,
              max_k: int | None = None,
              use_lemmas: bool = True,
              extra_lemmas: list[tuple[E.Expr, int]] | None = None,
              simple_path: bool | None = None) -> CheckResult:
        """k-induction proof attempt (the paper's core proof method)."""
        return self.check(
            prop, "k_induction", use_lemmas=use_lemmas,
            extra_lemmas=extra_lemmas,
            max_k=max_k if max_k is not None else self.config.max_k,
            simple_path=self.config.simple_path
            if simple_path is None else simple_path)

    def prove_or_refute(self, prop: SafetyProperty,
                        max_k: int | None = None) -> CheckResult:
        """Induction first; on UNKNOWN, deepen BMC to look for a real bug."""
        result = self.prove(prop, max_k=max_k)
        if result.status is not Status.UNKNOWN:
            return result
        refutation = self.check_bmc(prop)
        if refutation.status is Status.VIOLATED:
            return refutation
        result.detail += (
            f"; no counterexample within {self.config.bmc_bound} cycles")
        return result

    # ------------------------------------------------------------------
    # Batch / portfolio dispatch
    # ------------------------------------------------------------------

    def _batch_tasks(self, props: Sequence[SafetyProperty],
                     use_lemmas: bool = True,
                     per_prop_strategies: Mapping[str, Sequence[str]] |
                     None = None) -> list[VerifyTask]:
        lemmas = self.lemma_pairs() if use_lemmas else []
        overrides = per_prop_strategies or {}
        return [VerifyTask(self.scoped_system(p), p, list(lemmas),
                           strategies=tuple(overrides[p.name])
                           if p.name in overrides else None)
                for p in props]

    def _scheduler(self, jobs: int,
                   strategies: Sequence[str] | None,
                   strategy_options: Mapping[str, Mapping] | None
                   ) -> PortfolioScheduler:
        if strategies is None:
            strategies = DEFAULT_PORTFOLIO
        if strategy_options is None:
            strategy_options = depth_options(
                strategies, max_k=self.config.max_k,
                bound=self.config.bmc_bound,
                simple_path=self.config.simple_path)
        return PortfolioScheduler(jobs=jobs, strategies=strategies,
                                  strategy_options=strategy_options,
                                  cache=self.cache)

    def check_portfolio(self, props: Sequence[SafetyProperty] |
                        SafetyProperty,
                        jobs: int = 1,
                        strategies: Sequence[str] | None = None,
                        strategy_options: Mapping[str, Mapping] |
                        None = None,
                        use_lemmas: bool = True,
                        per_prop_strategies: Mapping[str, Sequence[str]] |
                        None = None
                        ) -> Iterator[PortfolioOutcome]:
        """Race complementary strategies over a batch of properties.

        Each property is cone-of-influence scoped independently, the
        whole batch fans out over ``jobs`` worker processes, and
        outcomes stream back in completion order; the worker pool is
        released when the stream ends or is abandoned.
        ``per_prop_strategies`` overrides the race for named properties
        (spec strings with inline options, e.g. per-property depths).
        """
        if isinstance(props, SafetyProperty):
            props = [props]
        scheduler = self._scheduler(jobs, strategies, strategy_options)
        return _closing_stream(scheduler, self._batch_tasks(
            props, use_lemmas, per_prop_strategies=per_prop_strategies))

    def prove_all(self, props: Sequence[SafetyProperty],
                  jobs: int = 1,
                  strategies: Sequence[str] | None = None,
                  strategy_options: Mapping[str, Mapping] | None = None,
                  use_lemmas: bool = True) -> list[CheckResult]:
        """Batch verification; results aligned with ``props`` order."""
        by_name: dict[str, CheckResult] = {}
        for outcome in self.check_portfolio(
                props, jobs=jobs, strategies=strategies,
                strategy_options=strategy_options, use_lemmas=use_lemmas):
            by_name[outcome.property_name] = outcome.result
        return [by_name[p.name] for p in props]

    # ------------------------------------------------------------------

    def scoped_system(self, prop: SafetyProperty,
                      extra_lemmas: list[tuple[E.Expr, int]] | None = None
                      ) -> TransitionSystem:
        """Cone-of-influence-reduce the design for this query.

        The reduction must keep everything the property, the active lemmas,
        and the environment constraints mention; lemma expressions are
        roots too because they are asserted at every frame.  Public
        because cache keys fingerprint the scoped system: any layer that
        builds its own :class:`VerifyTask`s (the campaign scheduler)
        must scope through here or its keys silently fork.
        """
        if not self.config.use_coi:
            return self.system
        roots = [self.system.resolve_defines(prop.bad)]
        for _, good, _vf in self.lemmas:
            roots.append(self.system.resolve_defines(good))
        for good, _vf in (extra_lemmas or []):
            roots.append(self.system.resolve_defines(good))
        roots.extend(self.system.constraints)
        return cone_of_influence(self.system, roots)


def _closing_stream(scheduler: PortfolioScheduler,
                    tasks: list[VerifyTask]) -> Iterator[PortfolioOutcome]:
    with scheduler:
        yield from scheduler.stream(tasks)
