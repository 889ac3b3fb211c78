"""Portfolio scheduler: racing, cancellation, streaming, batch APIs."""

import multiprocessing
import os
import time
from dataclasses import dataclass

import pytest

import repro.mc.portfolio as portfolio
import repro.mc.strategy as strategy_mod
from repro.campaign import CampaignScheduler, ProofStore
from repro.campaign.scheduler import LocalDispatcher
from repro.designs import get_design, select_designs
from repro.designs.registry import design_names
from repro.flow import VerificationSession
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc import (PortfolioScheduler, ProofEngine, ResultCache,
                      Status, VerifyTask)
from repro.mc.cache import query_key
from repro.mc.property import SafetyProperty
from repro.mc.strategy import canonical_options, resolve_strategy

#: A refuter that cannot finish in test time: it only ever stops by
#: being cancelled.
ENDLESS_BMC = "bmc(bound=10000)"


@pytest.fixture
def diverging_system() -> TransitionSystem:
    """count2 lags count1 once it wraps: equality is violated at cycle 4."""
    s = TransitionSystem("diverge")
    c1 = s.add_state("count1", 3, init=E.const(0, 3))
    c2 = s.add_state("count2", 3, init=E.const(0, 3))
    one = E.const(1, 3)
    s.set_next("count1", E.add(c1, one))
    s.set_next("count2", E.ite(E.eq(c1, E.const(3, 3)), c2,
                               E.add(c2, one)))
    return s


def _equal_prop(width: int) -> SafetyProperty:
    return SafetyProperty.from_invariant(
        "equal", E.eq(E.var("count1", width), E.var("count2", width)))


class TestSchedulerConstruction:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            PortfolioScheduler(jobs=0)

    def test_rejects_empty_portfolio(self):
        with pytest.raises(ValueError):
            PortfolioScheduler(strategies=())

    def test_rejects_bad_spec_eagerly(self):
        from repro.mc import StrategyError
        with pytest.raises(StrategyError):
            PortfolioScheduler(strategies=("not_a_strategy",))


class TestSequentialRacing:
    def test_prover_wins_and_refuter_is_skipped(self, sync_counters_system):
        scheduler = PortfolioScheduler(
            jobs=1, strategies=("k_induction(max_k=2)", "bmc(bound=8)"))
        [outcome] = scheduler.run_batch(sync_counters_system,
                                        [_equal_prop(8)])
        assert outcome.status is Status.PROVEN
        assert outcome.strategy == "k_induction(max_k=2)"
        assert outcome.attempts == 1
        assert outcome.cancelled == 1  # bmc never ran

    def test_refuter_catches_violation(self, diverging_system):
        scheduler = PortfolioScheduler(
            jobs=1, strategies=("k_induction(max_k=1)", "bmc(bound=8)"))
        [outcome] = scheduler.run_batch(diverging_system,
                                        [_equal_prop(3)])
        assert outcome.status is Status.VIOLATED
        assert outcome.result.cex is not None

    def test_inconclusive_prefers_first_strategy(self, diverging_system):
        # Neither strategy is conclusive: max_k too small to refute via
        # the base case (valid only 3 cycles), bound too small to reach
        # the divergence.
        prop = _equal_prop(3)
        scheduler = PortfolioScheduler(
            jobs=1, strategies=("k_induction(max_k=1)", "bmc(bound=2)"))
        [outcome] = scheduler.run_batch(diverging_system, [prop])
        assert not outcome.status.conclusive
        assert outcome.strategy == "k_induction(max_k=1)"
        assert outcome.attempts == 2

    def test_empty_batch(self):
        assert PortfolioScheduler().run([]) == []


class TestParallelRacing:
    def test_parallel_verdicts_match_sequential(self, sync_counters_system,
                                                diverging_system):
        good = SafetyProperty.from_invariant(
            "equal", E.eq(E.var("count1", 8), E.var("count2", 8)))
        bad = SafetyProperty.from_invariant(
            "diverges", E.eq(E.var("count1", 3), E.var("count2", 3)))
        tasks = [VerifyTask(sync_counters_system, good),
                 VerifyTask(diverging_system, bad)]
        strategies = ("k_induction(max_k=2)", "bmc(bound=8)")
        sequential = {o.property_name: o.status for o in
                      PortfolioScheduler(jobs=1,
                                         strategies=strategies).run(tasks)}
        parallel = {o.property_name: o.status for o in
                    PortfolioScheduler(jobs=2,
                                       strategies=strategies).run(tasks)}
        assert parallel == sequential
        assert parallel["equal"] is Status.PROVEN
        assert parallel["diverges"] is Status.VIOLATED

    def test_parallel_streams_one_outcome_per_property(self,
                                                       sync_counters_system):
        props = [
            SafetyProperty.from_invariant(
                "eq", E.eq(E.var("count1", 8), E.var("count2", 8))),
            SafetyProperty.from_invariant(
                "le", E.ule(E.var("count1", 8), E.var("count1", 8))),
        ]
        scheduler = PortfolioScheduler(
            jobs=2, strategies=("k_induction(max_k=2)", "bmc(bound=4)"))
        outcomes = list(scheduler.stream(
            [VerifyTask(sync_counters_system, p) for p in props]))
        assert sorted(o.property_name for o in outcomes) == ["eq", "le"]

    def test_parallel_uses_cache_on_second_run(self, sync_counters_system):
        cache = ResultCache()
        prop = _equal_prop(8)
        strategies = ("k_induction(max_k=2)", "bmc(bound=4)")
        PortfolioScheduler(jobs=2, strategies=strategies,
                           cache=cache).run_batch(sync_counters_system,
                                                  [prop])
        hits_before = cache.stats.hits
        [outcome] = PortfolioScheduler(
            jobs=2, strategies=strategies,
            cache=cache).run_batch(sync_counters_system, [prop])
        assert outcome.from_cache
        assert cache.stats.hits > hits_before


class TestEngineBatchApi:
    def test_prove_all_alignment(self, sync_counters_system):
        engine = ProofEngine(sync_counters_system)
        props = [
            SafetyProperty.from_invariant(
                "eq", E.eq(E.var("count1", 8), E.var("count2", 8))),
            SafetyProperty.from_invariant(
                "self_le", E.ule(E.var("count2", 8), E.var("count2", 8))),
        ]
        results = engine.prove_all(props, jobs=1)
        assert [r.property_name for r in results] == ["eq", "self_le"]
        assert all(r.status is Status.PROVEN for r in results)

    def test_check_portfolio_respects_engine_lemmas(self,
                                                    sync_counters_system):
        engine = ProofEngine(sync_counters_system)
        # equal_msb alone is not inductive; the equality lemma closes it.
        msb = SafetyProperty.from_invariant(
            "msb", E.eq(E.bit(E.var("count1", 8), 7),
                        E.bit(E.var("count2", 8), 7)))
        unaided = engine.prove_all([msb], jobs=1)[0]
        assert unaided.status is Status.UNKNOWN
        engine.add_lemma("eq", E.eq(E.var("count1", 8),
                                    E.var("count2", 8)))
        aided = engine.prove_all([msb], jobs=1)[0]
        assert aided.status is Status.PROVEN


class TestSessionVerifyAll:
    def test_counter_bank_batch(self):
        session = VerificationSession(get_design("sync_counters"))
        batch = session.verify_all(jobs=1)
        assert batch.design == "sync_counters"
        assert len(batch.outcomes) == 2
        assert batch.result_for("counters_equal").status is Status.PROVEN
        # equal_count needs a helper: inconclusive under the portfolio.
        assert not batch.result_for("equal_count").status.conclusive
        assert not batch.any_violated

    def test_seeded_bug_is_found_in_parallel(self):
        session = VerificationSession(get_design("sync_counters_bug"))
        batch = session.verify_all(jobs=2)
        assert batch.any_violated
        assert batch.result_for("counters_equal").cex is not None

    def test_batch_repeat_is_cache_served(self):
        session = VerificationSession(get_design("sync_counters"))
        session.verify_all(jobs=1)
        batch = session.verify_all(jobs=1)
        assert any(o.from_cache for o in batch.outcomes)


@dataclass(frozen=True)
class _CrashStrategy:
    """Kills the pool worker that runs it."""

    name: str = "crash"
    can_prove: bool = False
    can_refute: bool = True

    def run(self, system, prop, lemmas=None):
        os._exit(1)


def _key(system, prop, spec: str) -> str:
    strategy, options = resolve_strategy(spec)
    return query_key(system, prop, strategy.name,
                     canonical_options(strategy, options), [])


class TestRealCancellation:
    def test_running_loser_is_cancelled_mid_solve(self):
        session = VerificationSession(get_design("sync_counters"))
        started = time.perf_counter()
        batch = session.verify_all(properties=["counters_equal"], jobs=2,
                                   strategies=["k_induction", ENDLESS_BMC])
        assert time.perf_counter() - started < 10
        [outcome] = batch.outcomes
        assert outcome.status is Status.PROVEN
        assert outcome.strategy.startswith("k_induction")
        [row] = [r for r in outcome.attempt_log
                 if r["strategy"] == ENDLESS_BMC]
        assert row["origin"] == "cancelled"
        assert row["status"] == ""
        assert row["wall_seconds"] > 0
        assert row["effort"]["max_depth"] < 10000

    def test_cancelled_attempt_is_never_cached(self, tmp_path,
                                               sync_counters_system):
        store = ProofStore.open(tmp_path)
        cache = ResultCache(backing=store)
        prop = _equal_prop(8)
        strategies = ("k_induction", ENDLESS_BMC)
        [outcome] = PortfolioScheduler(
            jobs=2, strategies=strategies,
            cache=cache).run_batch(sync_counters_system, [prop])
        assert outcome.status is Status.PROVEN
        assert outcome.attempt_log[1]["origin"] == "cancelled"
        winner = _key(sync_counters_system, prop, "k_induction")
        loser = _key(sync_counters_system, prop, ENDLESS_BMC)
        assert store.load(winner) is not None
        assert store.load(loser) is None        # disk tier
        assert cache.get(loser) is None         # memory tier
        store.close()

    def test_jobs_do_not_change_verdicts(self):
        # The designs the portfolio_race benchmark workload races.
        names = [n for n in design_names()
                 if n not in ("ecc_pipeline", "fifo_ctrl")]
        for name in names:
            design = get_design(name)
            verdicts = [
                {o.property_name: o.status for o in
                 VerificationSession(design).verify_all(jobs=jobs).outcomes}
                for jobs in (1, 2)]
            assert verdicts[0] == verdicts[1], name

    def test_pools_do_not_leak(self):
        VerificationSession(get_design("sync_counters_bug")).verify_all(
            jobs=2)
        assert multiprocessing.active_children() == []
        pool = CampaignScheduler(select_designs(["sync_counters_bug"]),
                                 ProofStore.in_memory(),
                                 max_k=3).build_jobs()
        LocalDispatcher(jobs=2).dispatch(pool)
        assert multiprocessing.active_children() == []

    def test_one_pool_serves_every_stream(self, monkeypatch,
                                          sync_counters_system,
                                          diverging_system):
        starts = []

        class CountingPool(portfolio.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                starts.append(self)

        monkeypatch.setattr(portfolio, "ProcessPoolExecutor", CountingPool)
        strategies = ("k_induction(max_k=2)", "bmc(bound=8)")
        with PortfolioScheduler(jobs=2,
                                strategies=strategies) as scheduler:
            [proven] = scheduler.run_batch(sync_counters_system,
                                           [_equal_prop(8)])
            [violated] = scheduler.run_batch(diverging_system,
                                             [_equal_prop(3)])
        assert proven.status is Status.PROVEN
        assert violated.status is Status.VIOLATED
        assert len(starts) == 1
        assert multiprocessing.active_children() == []

    def test_pool_recovers_from_a_crashed_worker(self, monkeypatch,
                                                 sync_counters_system):
        # Registered before the pool forks, so its workers know it.
        monkeypatch.setitem(strategy_mod._REGISTRY, "crash",
                            (_CrashStrategy(), {}))
        prop = _equal_prop(8)
        with PortfolioScheduler(jobs=2,
                                strategies=("crash", "bmc(bound=4)")
                                ) as scheduler:
            [crashed] = scheduler.run_batch(sync_counters_system, [prop])
            [proven] = scheduler.run([VerifyTask(
                sync_counters_system, prop,
                strategies=("k_induction(max_k=2)", "bmc(bound=4)"))])
        assert crashed.strategy == "crash"
        assert "failed in worker" in crashed.result.detail
        assert proven.status is Status.PROVEN
        assert multiprocessing.active_children() == []
