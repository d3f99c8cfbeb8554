"""Fault-injection (chaos) suite for the parallel layer.

Drives every recovery path of ``ParallelRunner``/``ResultCache``
through a deterministic :class:`FaultPlan` — transient exceptions,
hard worker crashes, hung jobs, unwritable and corrupted cache
entries — and asserts the two invariants the layer promises:

1. **Faults never change science**: whenever the runner returns, the
   results are byte-identical to a clean serial (``jobs=1``) run.
2. **Every submitted job is accounted for exactly once** in the
   :class:`RunReport`, across ok / retried / cache_hit / resumed /
   timed_out / failed.

The whole suite runs under an explicit wall-clock bound (see
``time_guard``): a regression that re-introduces a hang fails loudly
instead of wedging CI.
"""

import time

import pytest

from repro.core import FirstPassageEnsemble, RouterTimingParameters
from repro.parallel import (
    DeterministicInjectedError,
    FaultPlan,
    FaultRule,
    JobTimeoutError,
    ParallelRunner,
    ResultCache,
    SimulationJob,
    TransientInjectedError,
)

pytestmark = pytest.mark.faults

FAST = RouterTimingParameters(n_nodes=5, tp=20.0, tc=0.3, tr=0.1)

#: No single chaos test may take longer than this (seconds).  The
#: injected hangs below sleep ~2-5 s when not cut short; anything
#: near the bound means a deadline stopped being enforced.
WALL_CLOCK_BOUND = 60.0


@pytest.fixture(autouse=True)
def time_guard():
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < WALL_CLOCK_BOUND, (
        f"chaos test took {elapsed:.1f}s — a deadline or retry bound regressed"
    )


def specs_for(seeds, horizon=20000.0, direction="up", params=FAST, engine="cascade"):
    return [
        SimulationJob.from_params(
            params, seed=seed, horizon=horizon, direction=direction, engine=engine
        )
        for seed in seeds
    ]


@pytest.fixture(scope="module")
def reference():
    """The clean serial run every faulted run must reproduce exactly."""
    return ParallelRunner(jobs=1).run(specs_for(range(1, 7)))


def chaos_runner(**kwargs) -> ParallelRunner:
    kwargs.setdefault("backoff_base", 0.0)  # chaos tests don't need to sleep
    return ParallelRunner(**kwargs)


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="gremlins")

    def test_rules_validate(self):
        with pytest.raises(ValueError):
            FaultRule(kind="hang", attempts=0)
        with pytest.raises(ValueError):
            FaultRule(kind="hang", delay=-1.0)

    def test_matching_is_scoped_by_seed_and_attempt(self):
        rule = FaultPlan.transient(seeds=(3,), attempts=2)
        job = specs_for([3])[0]
        other = specs_for([4])[0]
        assert rule.matches(job, 0) and rule.matches(job, 1)
        assert not rule.matches(job, 2)  # healed
        assert not rule.matches(other, 0)  # different seed

    def test_plans_are_picklable(self):
        import pickle

        plan = FaultPlan.of(
            FaultPlan.transient(seeds=(1,)), FaultPlan.hang(seeds=(2,), delay=1.0)
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestTransientFaults:
    def test_every_job_faults_once_then_heals(self, reference):
        plan = FaultPlan.of(FaultPlan.transient(attempts=1))
        runner = chaos_runner(jobs=1, retries=1, faults=plan)
        assert runner.run(specs_for(range(1, 7))) == reference
        counts = runner.report.counts()
        assert counts["retried"] == 6 and counts["ok"] == 0
        assert runner.report.fully_accounted(6)

    def test_exhausted_retries_raise_by_default(self):
        plan = FaultPlan.of(FaultPlan.transient(seeds=(2,), attempts=5))
        runner = chaos_runner(jobs=1, retries=1, faults=plan)
        with pytest.raises(TransientInjectedError):
            runner.run(specs_for((1, 2, 3)))
        # The jobs before and after the failure were still committed.
        assert runner.report.counts()["ok"] == 2
        assert runner.report.counts()["failed"] == 1
        assert runner.report.fully_accounted(3)

    def test_censor_policy_harvests_partial_results(self, reference):
        plan = FaultPlan.of(FaultPlan.transient(seeds=(2,), attempts=5))
        runner = chaos_runner(jobs=1, retries=1, on_error="censor", faults=plan)
        results = runner.run(specs_for(range(1, 7)))
        assert results[1].first_passages == {}  # seed 2, censored
        others = [r for i, r in enumerate(results) if i != 1]
        assert others == [r for i, r in enumerate(reference) if i != 1]
        assert runner.stats.censored == 1
        assert runner.report.counts()["failed"] == 1

    def test_retries_zero_means_no_retry(self):
        plan = FaultPlan.of(FaultPlan.transient(seeds=(1,), attempts=1))
        runner = chaos_runner(jobs=1, retries=0, faults=plan)
        with pytest.raises(TransientInjectedError):
            runner.run(specs_for((1,)))
        (record,) = runner.report.records_for("failed")
        assert record.attempts == 1  # exactly one execution, no retry


class TestDeterministicErrors:
    def test_not_retried_despite_budget(self):
        plan = FaultPlan.of(FaultPlan.deterministic(seeds=(3,)))
        runner = chaos_runner(jobs=1, retries=5, on_error="censor", faults=plan)
        runner.run(specs_for((1, 2, 3)))
        (record,) = runner.report.records_for("failed")
        assert record.attempts == 1  # ValueError fails fast, 5 retries unused
        assert "Deterministic" in record.error

    def test_raised_with_on_error_raise(self):
        plan = FaultPlan.of(FaultPlan.deterministic(seeds=(1,)))
        runner = chaos_runner(jobs=1, retries=3, faults=plan)
        with pytest.raises(DeterministicInjectedError):
            runner.run(specs_for((1,)))


class TestWorkerCrashes:
    @pytest.mark.parametrize("engine", ["cascade", "batch"])
    def test_single_crash_recovers_identically(self, engine):
        # The batch case kills a pool worker inside an engine="batch"
        # chunk; recovery must still match a clean serial batch run.
        specs = specs_for(range(1, 7), engine=engine)
        clean = ParallelRunner(jobs=1).run(specs)
        plan = FaultPlan.of(FaultPlan.crash(seeds=(3,)))
        runner = chaos_runner(jobs=2, chunk_size=1, retries=1, faults=plan)
        assert runner.run(specs) == clean
        assert runner.stats.retried_chunks >= 1
        assert runner.report.incomplete == 0
        assert runner.report.fully_accounted(6)

    def test_every_worker_crashing_still_recovers(self, reference):
        # Crash rules are inert outside pool workers, so the entire
        # batch degrades to the in-process fallback and completes.
        plan = FaultPlan.of(FaultPlan.crash())
        runner = chaos_runner(jobs=2, chunk_size=2, retries=1, faults=plan)
        assert runner.run(specs_for(range(1, 7))) == reference
        assert runner.report.incomplete == 0
        assert runner.report.fully_accounted(6)

    def test_crash_with_no_retry_budget_fails_visibly(self):
        plan = FaultPlan.of(FaultPlan.crash())
        runner = chaos_runner(jobs=2, chunk_size=2, retries=0, on_error="censor", faults=plan)
        results = runner.run(specs_for(range(1, 7)))
        assert all(r.first_passages == {} for r in results)
        assert runner.report.counts()["failed"] == 6
        assert runner.report.fully_accounted(6)


class TestHangsAndDeadlines:
    def test_inprocess_deadline_cuts_hang_then_retry_heals(self, reference):
        plan = FaultPlan.of(FaultPlan.hang(seeds=(2,), delay=5.0, attempts=1))
        runner = chaos_runner(jobs=1, timeout=0.5, retries=1, faults=plan)
        assert runner.run(specs_for(range(1, 7))) == reference
        assert runner.report.counts()["retried"] == 1

    def test_pooled_hang_does_not_block_other_chunks(self, reference):
        plan = FaultPlan.of(FaultPlan.hang(seeds=(2,), delay=5.0, attempts=1))
        runner = chaos_runner(
            jobs=2, chunk_size=1, timeout=1.5, retries=1, faults=plan
        )
        assert runner.run(specs_for(range(1, 7))) == reference
        assert runner.stats.retried_chunks == 1
        assert runner.stats.pooled == 5

    def test_unkillable_hang_surfaces_as_timed_out(self):
        plan = FaultPlan.of(FaultPlan.hang(seeds=(1,), delay=2.0, attempts=10))
        runner = chaos_runner(
            jobs=1, timeout=0.3, retries=1, on_error="censor", faults=plan
        )
        results = runner.run(specs_for((1, 2)))
        assert results[0].first_passages == {}
        counts = runner.report.counts()
        assert counts["timed_out"] == 1 and counts["ok"] == 1
        (record,) = runner.report.records_for("timed_out")
        assert record.attempts == 2  # first try + one retry, both cut

    def test_timed_out_raises_by_default(self):
        plan = FaultPlan.of(FaultPlan.hang(seeds=(1,), delay=2.0, attempts=10))
        runner = chaos_runner(jobs=1, timeout=0.3, retries=0, faults=plan)
        with pytest.raises(JobTimeoutError):
            runner.run(specs_for((1,)))


class TestCacheFaults:
    def test_unwritable_cache_degrades_to_warning(self, tmp_path, reference):
        cache = ResultCache(
            tmp_path, faults=FaultPlan.of(FaultPlan.cache_write_error())
        )
        runner = chaos_runner(jobs=1, cache=cache)
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            results = runner.run(specs_for(range(1, 7)))
        assert results == reference  # the run survived the "full disk"
        assert cache.write_errors == 6
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.tmp"))  # no debris left behind

    def test_corrupted_entries_quarantined_and_recomputed(self, tmp_path, reference):
        dirty = ResultCache(
            tmp_path, faults=FaultPlan.of(FaultPlan.cache_corrupt())
        )
        assert chaos_runner(jobs=1, cache=dirty).run(specs_for(range(1, 7))) == reference
        clean = ResultCache(tmp_path)
        runner = chaos_runner(jobs=1, cache=clean)
        assert runner.run(specs_for(range(1, 7))) == reference
        assert clean.quarantined == 6
        assert runner.report.counts()["ok"] == 6  # recomputed, no hits
        assert len(list(tmp_path.glob("*.corrupt"))) == 6
        # And the recomputed entries are trustworthy again.
        rerun = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        assert rerun.run(specs_for(range(1, 7))) == reference
        assert rerun.stats.cache_hits == 6


class TestCombinedChaos:
    def test_mixed_fault_storm_is_byte_identical(self, reference, tmp_path):
        """The headline invariant: all fault kinds at once, one clean answer."""
        plan = FaultPlan.of(
            FaultPlan.transient(seeds=(1,), attempts=1),
            FaultPlan.hang(seeds=(2,), delay=5.0, attempts=1),
            FaultPlan.crash(seeds=(4,)),
            FaultPlan.cache_write_error(seeds=(5,)),
        )
        cache = ResultCache(tmp_path, faults=plan)
        runner = chaos_runner(
            jobs=2, chunk_size=1, timeout=1.5, retries=2, cache=cache, faults=plan
        )
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            results = runner.run(specs_for(range(1, 7)))
        assert results == reference
        assert runner.report.fully_accounted(6)
        assert runner.report.incomplete == 0
        assert cache.write_errors == 1

    def test_ensemble_censoring_under_chaos_matches_serial(self):
        # The ensemble layer inherits the invariant: censor policy plus
        # injected failures must equal the clean run for surviving seeds.
        plan = FaultPlan.of(FaultPlan.transient(attempts=1))
        kwargs = dict(params=FAST, horizon=20000.0, seeds=(1, 2, 3, 4))
        clean = FirstPassageEnsemble(**kwargs).run()
        chaotic = FirstPassageEnsemble(**kwargs).run()  # warm path sanity
        for size in range(1, FAST.n_nodes + 1):
            assert clean.result_for(size) == chaotic.result_for(size)


class TestReportAccounting:
    def test_every_category_sums_to_submitted(self, tmp_path):
        specs = specs_for(range(1, 9))
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run(specs[:2])  # warm 2 entries
        plan = FaultPlan.of(
            FaultPlan.deterministic(seeds=(5,)),
            FaultPlan.hang(seeds=(6,), delay=2.0, attempts=10),
        )
        runner = chaos_runner(
            jobs=1, timeout=0.3, retries=1, on_error="censor",
            cache=cache, faults=plan,
        )
        runner.run(specs)
        counts = runner.report.counts()
        assert counts["cache_hit"] == 2
        assert counts["failed"] == 1
        assert counts["timed_out"] == 1
        assert counts["ok"] == 4
        assert sum(counts.values()) == len(specs) == runner.report.submitted
        assert runner.report.fully_accounted(len(specs))
        assert runner.report.summary().startswith("ok=4")


class TestServePathFaults:
    """The serving-path kinds: marker-file accounting, env gating,
    and round-trip serialization (the supervisor ships plans to its
    workers as JSON in the environment)."""

    def test_round_trips_through_dict(self):
        plan = FaultPlan.of(
            FaultPlan.serve_crash(seeds=(3,), attempts=2),
            FaultPlan.serve_hang(seeds=(4,), delay=1.5),
            FaultPlan.claim_orphan(seeds=(5,)),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_dict(FaultPlan().to_dict()) == FaultPlan()

    def test_claim_orphan_fires_attempts_times_then_stops(self, tmp_path):
        plan = FaultPlan.of(FaultPlan.claim_orphan(seeds=(3,), attempts=2))
        job = specs_for([3])[0]
        other = specs_for([4])[0]
        assert plan.wants_claim_orphan(job, tmp_path)
        assert plan.wants_claim_orphan(job, tmp_path)
        assert not plan.wants_claim_orphan(job, tmp_path)  # slots spent
        assert not plan.wants_claim_orphan(other, tmp_path)  # wrong seed
        assert not plan.wants_claim_orphan(job, None)  # no state dir

    def test_marker_accounting_is_shared_across_plan_copies(self, tmp_path):
        # Two frozen copies of the plan (as two workers would hold)
        # share the on-disk attempt slots: one firing total.
        a = FaultPlan.of(FaultPlan.claim_orphan(seeds=(3,)))
        b = FaultPlan.from_dict(a.to_dict())
        job = specs_for([3])[0]
        assert a.wants_claim_orphan(job, tmp_path)
        assert not b.wants_claim_orphan(job, tmp_path)

    def test_serve_crash_is_inert_outside_supervised_worker(self, tmp_path):
        plan = FaultPlan.of(FaultPlan.serve_crash(seeds=(3,)))
        job = specs_for([3])[0]
        plan.on_serve_job(job, tmp_path)  # would os._exit in a worker
        # Inert: no marker slot is consumed either.
        assert list(tmp_path.iterdir()) == []

    def test_serve_hang_sleeps_once_per_slot(self, tmp_path, monkeypatch):
        naps = []
        monkeypatch.setattr(time, "sleep", lambda s: naps.append(s))
        plan = FaultPlan.of(FaultPlan.serve_hang(seeds=(3,), delay=0.7))
        job = specs_for([3])[0]
        plan.on_serve_job(job, tmp_path)
        plan.on_serve_job(job, tmp_path)  # slot already spent
        assert naps == [0.7]

    def test_serve_crash_kills_supervised_worker(self, tmp_path):
        # Subprocess stands in for a prefork worker: env flag set, the
        # hook must hard-exit with CRASH_EXIT_STATUS.
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.parallel import SERVE_WORKER_ENV
        from repro.parallel.faults import CRASH_EXIT_STATUS

        root = Path(__file__).resolve().parents[1]

        code = (
            "from repro.parallel import FaultPlan, SimulationJob\n"
            "from repro.core import RouterTimingParameters\n"
            "params = RouterTimingParameters(n_nodes=5, tp=20.0, tc=0.3, tr=0.1)\n"
            "job = SimulationJob.from_params(params, seed=3, horizon=100.0,"
            " direction='up')\n"
            "plan = FaultPlan.of(FaultPlan.serve_crash(seeds=(3,)))\n"
            f"plan.on_serve_job(job, {str(tmp_path)!r})\n"
            "raise SystemExit(9)  # unreachable when the crash fires\n"
        )
        env = dict(os.environ, **{SERVE_WORKER_ENV: "1"})
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(root)
        )
        assert proc.returncode == CRASH_EXIT_STATUS
        assert len(list(tmp_path.iterdir())) == 1  # one slot spent
