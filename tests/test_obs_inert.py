"""The observability inertness contract, enforced.

The tentpole guarantee of ``repro.obs``: every experiment output is
byte-identical with observability on or off.  These tests run the real
figure drivers and the parallel runner both ways and compare the
serialized outputs exactly — plus the RunReport-vs-metrics
reconciliation that cross-checks the two accounting systems.
"""

import json

import pytest

from repro import obs as obs_runtime
from repro.core import RouterTimingParameters
from repro.parallel import ParallelRunner, ResultCache, SimulationJob

FAST = RouterTimingParameters(n_nodes=5, tp=20.0, tc=0.3, tr=0.1)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with the disabled default runtime."""
    obs_runtime.reset()
    yield
    obs_runtime.reset()


def specs_for(seeds, direction="up", engine="cascade", horizon=20000.0):
    return [
        SimulationJob.from_params(
            FAST, seed=seed, horizon=horizon, direction=direction, engine=engine
        )
        for seed in seeds
    ]


def serialize(results):
    """Canonical bytes of a result list (what 'byte-identical' means)."""
    return json.dumps(
        [result.to_dict() for result in results], sort_keys=True
    ).encode()


class TestRunnerByteIdentity:
    def test_serial_results_identical_obs_on_off(self):
        specs = specs_for(range(1, 6))
        off = ParallelRunner(jobs=1).run(specs)
        obs_runtime.configure(enabled=True)
        on = ParallelRunner(jobs=1).run(specs)
        assert serialize(on) == serialize(off)

    def test_pooled_results_identical_obs_on_off(self):
        specs = specs_for(range(1, 7))
        off = ParallelRunner(jobs=2, chunk_size=2).run(specs)
        obs_runtime.configure(enabled=True)
        on = ParallelRunner(jobs=2, chunk_size=2).run(specs)
        assert serialize(on) == serialize(off)
        # And the pooled trace really is multi-process.
        records = obs_runtime.obs().tracer.records
        assert len({r.pid for r in records}) >= 2

    def test_profile_mode_results_identical(self):
        specs = specs_for(range(1, 4))
        off = ParallelRunner(jobs=1).run(specs)
        obs_runtime.configure(enabled=True, profile=True)
        on = ParallelRunner(jobs=2, chunk_size=1).run(specs)
        assert serialize(on) == serialize(off)

    def test_cached_results_identical_obs_on_off(self, tmp_path):
        specs = specs_for(range(1, 4))
        cache = ResultCache(tmp_path / "cache")
        first = ParallelRunner(jobs=1, cache=cache).run(specs)
        obs_runtime.configure(enabled=True)
        second = ParallelRunner(jobs=1, cache=cache).run(specs)
        assert serialize(second) == serialize(first)


class TestFigureByteIdentity:
    def test_fig10_output_identical_obs_on_off(self):
        from repro.experiments import fig10

        kwargs = dict(horizon=20000.0, seeds=(1, 2, 3))
        off = fig10.run(**kwargs)
        obs_runtime.configure(enabled=True)
        on = fig10.run(**kwargs)
        assert on.format_text() == off.format_text()
        assert on.series == off.series
        assert on.metrics == off.metrics

    def test_fig12_output_identical_obs_on_off(self):
        from repro.experiments import fig12

        kwargs = dict(steps=10, sim_checks=True, sim_horizon=20000.0, seeds=(1,))
        off = fig12.run(**kwargs)
        obs_runtime.configure(enabled=True)
        on = fig12.run(**kwargs)
        assert on.format_text() == off.format_text()
        assert on.series == off.series


class TestReportMetricsReconciliation:
    def test_counts_mirror_exactly(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for(range(1, 6))
        # Warm the cache with two of the five jobs.
        ParallelRunner(jobs=1, cache=cache).run(specs[:2])
        obs_runtime.configure(enabled=True)
        runner = ParallelRunner(jobs=1, cache=cache)
        runner.run(specs)
        metrics = obs_runtime.obs().metrics
        for outcome, count in runner.report.counts().items():
            assert metrics.value(f"runner.jobs.{outcome}") == count, outcome
        assert metrics.value("runner.jobs.cache_hit") == 2.0
        assert metrics.value("runner.jobs.ok") == 3.0
        assert metrics.value("cache.hits") == 2.0
        assert metrics.value("cache.misses") == 3.0
        assert metrics.value("cache.puts") == 3.0

    def test_counts_mirrored_even_when_run_raises(self):
        bad = SimulationJob.from_params(FAST, seed=1, horizon=20000.0)
        obs_runtime.configure(enabled=True)
        runner = ParallelRunner(jobs=1, retries=0, backoff_base=0.0)

        import repro.parallel.runner as runner_mod

        original = runner_mod.run_job

        def explode(job, faults=None, attempt=0):
            raise RuntimeError("boom")

        runner_mod.run_job = explode
        try:
            with pytest.raises(RuntimeError):
                runner.run([bad])
        finally:
            runner_mod.run_job = original
        assert obs_runtime.obs().metrics.value("runner.jobs.failed") == 1.0

    def test_disabled_runtime_records_nothing(self):
        runner = ParallelRunner(jobs=1)
        runner.run(specs_for([1]))
        handle = obs_runtime.obs()
        assert len(handle.tracer) == 0
        assert len(handle.metrics) == 0


class TestCheckpointStaleness:
    def test_journal_entries_carry_timestamps(self, tmp_path):
        from repro.parallel import CheckpointJournal

        journal = CheckpointJournal(tmp_path / "run.jsonl")
        specs = specs_for([1])
        journal.record(zip(specs, ParallelRunner(jobs=1).run(specs)))
        journal.close()
        entry = json.loads(journal.path.read_text().splitlines()[0])
        assert isinstance(entry["ts"], float)
        fresh = CheckpointJournal(journal.path)
        staleness = fresh.staleness()
        assert staleness is not None and 0.0 <= staleness < 60.0

    def test_staleness_none_for_legacy_journals(self, tmp_path):
        from repro.parallel import MODEL_VERSION, CheckpointJournal

        spec = specs_for([1])[0]
        result = ParallelRunner(jobs=1).run([spec])[0]
        legacy = {
            "key": spec.cache_key(),
            "model_version": MODEL_VERSION,
            "job": spec.to_dict(),
            "result": result.to_dict(),
        }
        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps(legacy) + "\n")
        journal = CheckpointJournal(path)
        assert journal.lookup(spec) is not None
        assert journal.staleness() is None

    def test_resume_emits_info_event(self, tmp_path, monkeypatch):
        from repro.parallel import CheckpointJournal

        monkeypatch.chdir(tmp_path)
        specs = specs_for([1, 2])
        # The journal a run killed after its first job leaves behind.
        journal = CheckpointJournal.for_specs(specs)
        journal.record(zip(specs[:1], ParallelRunner(jobs=1).run(specs[:1])))
        journal.close()
        obs_runtime.configure(enabled=True)
        runner = ParallelRunner(jobs=1, checkpoint=True)
        runner.run(specs)
        assert runner.stats.resumed == 1
        events = obs_runtime.obs().events.events
        assert any(e.name == "checkpoint.resume" for e in events)
        resume = next(e for e in events if e.name == "checkpoint.resume")
        assert resume.fields["entries"] == 1
        assert resume.fields["staleness_seconds"] >= 0.0
