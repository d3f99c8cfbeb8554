"""Tests for the ParallelRunner: serial/parallel equivalence, cache
integration, chunking, and graceful degradation.

The load-bearing guarantee is that ``jobs`` never changes science:
``ParallelRunner(jobs=4)`` must return byte-identical results —
including censoring — to ``jobs=1``, and the ensemble/sweep layers on
top must inherit that property.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FirstPassageEnsemble,
    RouterTimingParameters,
    sweep_nodes,
    sweep_tr,
)
from repro.parallel import ParallelRunner, ResultCache, SimulationJob
from repro.parallel import runner as runner_module

FAST = RouterTimingParameters(n_nodes=5, tp=20.0, tc=0.3, tr=0.1)


def specs_for(seeds, horizon=20000.0, direction="up", params=FAST):
    return [
        SimulationJob.from_params(
            params, seed=seed, horizon=horizon, direction=direction
        )
        for seed in seeds
    ]


class TestEquivalence:
    def test_parallel_identical_to_serial(self):
        specs = specs_for(range(1, 9))
        serial = ParallelRunner(jobs=1).run(specs)
        pooled = ParallelRunner(jobs=4).run(specs)
        assert serial == pooled  # dataclass equality: exact floats

    def test_order_is_preserved(self):
        specs = specs_for([5, 1, 3, 2, 4])
        runner = ParallelRunner(jobs=4, chunk_size=1)
        results = runner.run(specs)
        reference = {
            seed: ParallelRunner(jobs=1).run(specs_for([seed]))[0]
            for seed in (1, 2, 3, 4, 5)
        }
        assert results == [reference[s] for s in (5, 1, 3, 2, 4)]

    @given(
        n=st.integers(3, 6),
        tr=st.floats(0.05, 2.0),
        seeds=st.lists(st.integers(1, 500), min_size=2, max_size=5, unique=True),
    )
    @settings(max_examples=5, deadline=None)
    def test_property_serial_parallel_equivalence(self, n, tr, seeds):
        params = RouterTimingParameters(n_nodes=n, tp=20.0, tc=0.3, tr=tr)
        specs = specs_for(seeds, horizon=2000.0, params=params)
        assert ParallelRunner(jobs=1).run(specs) == ParallelRunner(jobs=4).run(specs)

    def test_ensemble_results_identical_with_jobs(self):
        kwargs = dict(params=FAST, horizon=20000.0, seeds=(1, 2, 3, 4), direction="up")
        serial = FirstPassageEnsemble(**kwargs, jobs=1).run()
        pooled = FirstPassageEnsemble(**kwargs, jobs=4).run()
        for size in range(1, FAST.n_nodes + 1):
            assert serial.result_for(size) == pooled.result_for(size)

    def test_ensemble_censoring_identical_with_jobs(self):
        calm = FAST.with_tr(5.0)  # nothing synchronizes in this horizon
        kwargs = dict(params=calm, horizon=100.0, seeds=(1, 2, 3), direction="up")
        serial = FirstPassageEnsemble(**kwargs, jobs=1).run().terminal_result()
        pooled = FirstPassageEnsemble(**kwargs, jobs=3).run().terminal_result()
        assert serial == pooled
        assert pooled.censored == 3

    def test_sweeps_identical_with_jobs(self):
        tr_serial = sweep_tr(FAST, [0.1, 2.0], horizon=5000.0, seeds=(1, 2))
        tr_pooled = sweep_tr(FAST, [0.1, 2.0], horizon=5000.0, seeds=(1, 2), jobs=4)
        assert tr_serial == tr_pooled
        n_serial = sweep_nodes(FAST, [2, 4, 6], horizon=2000.0)
        n_pooled = sweep_nodes(FAST, [2, 4, 6], horizon=2000.0, jobs=3)
        assert n_serial == n_pooled


class TestCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = specs_for((1, 2, 3))
        runner = ParallelRunner(jobs=1, cache=cache)
        first = runner.run(specs)
        assert runner.stats.executed == 3
        second = runner.run(specs)
        assert second == first
        assert runner.stats.cache_hits == 3
        assert runner.stats.executed == 0

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = specs_for((1, 2, 3, 4))
        serial = ParallelRunner(jobs=1, cache=cache).run(specs)
        pooled_runner = ParallelRunner(jobs=4, cache=cache)
        pooled = pooled_runner.run(specs)
        assert pooled == serial
        assert pooled_runner.stats.cache_hits == 4

    def test_partial_hits_fill_the_gaps(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run(specs_for((1, 3)))
        runner = ParallelRunner(jobs=1, cache=cache)
        results = runner.run(specs_for((1, 2, 3)))
        assert runner.stats.cache_hits == 2
        assert runner.stats.executed == 1
        assert results == ParallelRunner(jobs=1).run(specs_for((1, 2, 3)))


class TestDegradation:
    def test_pool_failure_falls_back_in_process(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process support here")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", broken_pool)
        specs = specs_for((1, 2, 3))
        runner = ParallelRunner(jobs=4)
        results = runner.run(specs)
        assert runner.stats.fallback == 3
        assert results == ParallelRunner(jobs=1).run(specs)

    def test_pool_broken_mid_submit_reruns_the_rest_in_process(self, monkeypatch):
        # A worker can die while later chunks are still being queued;
        # the pool then refuses them, and they must be recovered like
        # any lost chunk rather than escape from run().
        from concurrent.futures import ThreadPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        class BreaksAfterOneSubmit(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                if getattr(self, "submitted", 0):
                    raise BrokenProcessPool("a child process terminated abruptly")
                self.submitted = 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", BreaksAfterOneSubmit)
        specs = specs_for((1, 2, 3, 4))
        runner = ParallelRunner(jobs=2, chunk_size=1, retries=1, backoff_base=0.0)
        assert runner.run(specs) == ParallelRunner(jobs=1).run(specs)
        assert runner.stats.pooled == 1
        counts = runner.report.counts()
        assert (counts["ok"], counts["retried"], runner.report.incomplete) == (1, 3, 0)

    def test_single_pending_job_stays_in_process(self, monkeypatch):
        # jobs>1 with one pending job must not pay pool startup.
        def exploding_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool should not be created for one job")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", exploding_pool)
        (result,) = ParallelRunner(jobs=8).run(specs_for((1,)))
        assert result == ParallelRunner(jobs=1).run(specs_for((1,)))[0]

    def test_fallback_enforces_deadline_too(self, monkeypatch):
        # The PR-1 hole: the in-process fallback retried with no time
        # limit, so one hung job wedged the whole run.  The fallback
        # must now carry the same per-job deadline as the pool path.
        def broken_pool(*args, **kwargs):
            raise OSError("no process support here")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", broken_pool)
        specs = specs_for((1, 2, 3))
        runner = ParallelRunner(jobs=4, timeout=30.0, backoff_base=0.0)
        results = runner.run(specs)
        assert runner.stats.fallback == 3
        assert results == ParallelRunner(jobs=1).run(specs)
        # Sanity that the deadline machinery was actually armed: the
        # runner classifies jobs, and none were near the limit here.
        assert runner.report.counts()["ok"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)
        with pytest.raises(ValueError):
            ParallelRunner(jobs=2, chunk_size=0)
        with pytest.raises(ValueError):
            ParallelRunner(jobs=2, timeout=0.0)
        with pytest.raises(ValueError):
            ParallelRunner(jobs=2, retries=-1)
        with pytest.raises(ValueError):
            ParallelRunner(backoff_base=-0.1)
        with pytest.raises(ValueError):
            ParallelRunner(on_error="explode")

    def test_empty_batch(self):
        assert ParallelRunner(jobs=4).run([]) == []


class TestRunReport:
    def test_happy_path_every_job_is_ok(self):
        specs = specs_for(range(1, 6))
        runner = ParallelRunner(jobs=1)
        runner.run(specs)
        counts = runner.report.counts()
        assert counts["ok"] == 5
        assert sum(counts.values()) == 5
        assert runner.report.fully_accounted(5)
        assert runner.report.incomplete == 0
        assert runner.report.executed_fresh == 5
        assert runner.report.summary().startswith("ok=5")

    def test_pooled_run_accounts_identically(self):
        specs = specs_for(range(1, 6))
        runner = ParallelRunner(jobs=3, chunk_size=2)
        runner.run(specs)
        assert runner.report.counts()["ok"] == 5
        assert runner.report.fully_accounted(5)

    def test_cache_hits_and_fresh_runs_partition(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run(specs_for((1, 2)))
        runner = ParallelRunner(jobs=1, cache=cache)
        runner.run(specs_for((1, 2, 3, 4)))
        counts = runner.report.counts()
        assert counts["cache_hit"] == 2 and counts["ok"] == 2
        assert runner.report.fully_accounted(4)
        records = runner.report.records_for("cache_hit")
        assert sorted(r.index for r in records) == [0, 1]

    def test_report_resets_between_runs(self):
        runner = ParallelRunner(jobs=1)
        runner.run(specs_for((1, 2)))
        runner.run(specs_for((3,)))
        assert runner.report.submitted == 1
        assert runner.report.fully_accounted(1)

    def test_outcome_names_are_validated(self):
        from repro.parallel import JobRecord

        with pytest.raises(ValueError):
            JobRecord(index=0, key="k", outcome="exploded")


class TestChunking:
    def test_chunk_sizes_cover_batch_exactly(self):
        runner = ParallelRunner(jobs=3, chunk_size=2)
        pending = list(enumerate(specs_for(range(1, 8), horizon=100.0)))
        chunks = runner._chunks(pending)
        assert [len(c) for c in chunks] == [2, 2, 2, 1]
        assert [i for chunk in chunks for i, _ in chunk] == list(range(7))

    def test_default_chunking_spreads_over_workers(self):
        runner = ParallelRunner(jobs=4)
        pending = list(enumerate(specs_for(range(1, 33), horizon=100.0)))
        chunks = runner._chunks(pending)
        assert len(chunks) >= 4  # at least one chunk per worker
        assert sum(len(c) for c in chunks) == 32
