"""Checkpoint/resume: journals, kill-and-resume, and science invariance.

The protocol under test (see ``repro.parallel.checkpoint``): every
completed job is appended to a JSONL journal as it finishes (one
durable commit per ``record`` call, however many jobs it carries); a
killed run leaves the journal behind; re-running the same batch
against the same journal serves completed jobs back (outcome
``resumed``) and executes only the remainder; a cleanly completed run
deletes its journal.  Throughout, resumed results must be
byte-identical to an uninterrupted serial run.
"""

import json

import pytest

from repro.core import (
    FirstPassageEnsemble,
    RouterTimingParameters,
    find_transition_n,
    sweep_tr,
)
from repro.parallel import (
    CheckpointJournal,
    DeterministicInjectedError,
    FaultPlan,
    ParallelRunner,
    ResultCache,
    SimulationJob,
    resolve_checkpoint,
)
from repro.parallel import checkpoint as checkpoint_module

FAST = RouterTimingParameters(n_nodes=5, tp=20.0, tc=0.3, tr=0.1)


def specs_for(seeds, horizon=20000.0, direction="up", params=FAST):
    return [
        SimulationJob.from_params(
            params, seed=seed, horizon=horizon, direction=direction
        )
        for seed in seeds
    ]


@pytest.fixture(scope="module")
def reference():
    return ParallelRunner(jobs=1).run(specs_for(range(1, 7)))


class TestJournalBasics:
    def test_run_id_is_content_addressed_and_order_free(self, tmp_path):
        specs = specs_for((1, 2, 3))
        a = CheckpointJournal.for_specs(specs, root=tmp_path)
        b = CheckpointJournal.for_specs(list(reversed(specs)), root=tmp_path)
        c = CheckpointJournal.for_specs(specs_for((1, 2, 4)), root=tmp_path)
        assert a.path == b.path
        assert a.path != c.path

    def test_record_and_lookup_round_trip(self, tmp_path, reference):
        specs = specs_for((1, 2))
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record([(specs[0], reference[0])])
        journal.record([(specs[0], reference[0])])  # idempotent per key
        journal.close()
        reread = CheckpointJournal(tmp_path / "run.jsonl")
        assert reread.lookup(specs[0]) == reference[0]
        assert reread.lookup(specs[1]) is None
        assert len(reread) == 1

    def test_torn_final_line_is_skipped(self, tmp_path, reference):
        specs = specs_for((1, 2))
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record([(specs[0], reference[0])])
        journal.record([(specs[1], reference[1])])
        journal.close()
        # Simulate a kill mid-append: the final record is truncated.
        text = journal.path.read_text()
        journal.path.write_text(text[: len(text) - 40])
        reread = CheckpointJournal(tmp_path / "run.jsonl")
        assert reread.lookup(specs[0]) == reference[0]
        assert reread.lookup(specs[1]) is None
        assert reread.skipped_lines == 1

    def test_model_version_mismatch_is_skipped(self, tmp_path, reference):
        specs = specs_for((1,))
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record([(specs[0], reference[0])])
        journal.close()
        entry = json.loads(journal.path.read_text())
        entry["model_version"] = "fj93-model-0-ancient"
        journal.path.write_text(json.dumps(entry) + "\n")
        reread = CheckpointJournal(tmp_path / "run.jsonl")
        assert reread.lookup(specs[0]) is None
        assert reread.skipped_lines == 1

    def test_complete_deletes_the_journal(self, tmp_path, reference):
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record([(specs_for((1,))[0], reference[0])])
        assert journal.exists()
        journal.complete()
        assert not journal.exists()

    def test_resolve_checkpoint_forms(self, tmp_path):
        specs = specs_for((1,))
        assert resolve_checkpoint(None, specs) is None
        assert resolve_checkpoint(False, specs) is None
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        assert resolve_checkpoint(journal, specs) is journal
        from_path = resolve_checkpoint(tmp_path / "k.jsonl", specs)
        assert from_path.path == tmp_path / "k.jsonl"
        derived = resolve_checkpoint(True, specs)
        assert derived.path.name.endswith(".jsonl")


class TestGroupCommit:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = checkpoint_module.os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(checkpoint_module.os, "fsync", counting_fsync)
        return calls

    def test_one_record_call_is_one_fsync(self, tmp_path, reference, fsyncs):
        specs = specs_for(range(1, 7))
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record(list(zip(specs, reference)))
        assert len(fsyncs) == 1
        assert journal.recorded == len(specs)
        journal.close()
        assert len(journal.path.read_text().splitlines()) == len(specs)
        reread = CheckpointJournal(tmp_path / "run.jsonl")
        assert [reread.lookup(spec) for spec in specs] == reference

    def test_journaled_and_repeated_keys_are_skipped(
        self, tmp_path, reference, fsyncs
    ):
        specs = specs_for(range(1, 5))
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record([(specs[0], reference[0]), (specs[1], reference[1])])
        journal.record(
            [
                (specs[0], reference[0]),  # already journaled
                (specs[2], reference[2]),
                (specs[2], reference[2]),  # repeated within the call
                (specs[3], reference[3]),
            ]
        )
        assert journal.recorded == 4 and len(fsyncs) == 2
        # A call with nothing new writes nothing and syncs nothing.
        journal.record([(specs[1], reference[1])])
        journal.record([])
        assert journal.recorded == 4 and len(fsyncs) == 2
        journal.close()
        lines = journal.path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == [
            spec.cache_key() for spec in specs
        ]

    def test_torn_commit_keeps_every_complete_line(self, tmp_path, reference):
        specs = specs_for(range(1, 4))
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.record(list(zip(specs, reference)))
        journal.close()
        # A kill mid-commit: the last line of the one write is torn.
        text = journal.path.read_text()
        journal.path.write_text(text[: len(text) - 40])
        reread = CheckpointJournal(tmp_path / "run.jsonl")
        assert reread.lookup(specs[0]) == reference[0]
        assert reread.lookup(specs[1]) == reference[1]
        assert reread.lookup(specs[2]) is None
        assert reread.skipped_lines == 1


class TestRunnerResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path, reference):
        """A run killed mid-batch resumes without re-executing finished work."""
        specs = specs_for(range(1, 7))
        path = tmp_path / "run.jsonl"
        # "Kill" the first run mid-batch: seed 4 hits a deterministic
        # injected error and on_error="raise" aborts the batch after
        # every other job committed.
        doomed = ParallelRunner(
            jobs=1,
            checkpoint=CheckpointJournal(path),
            faults=FaultPlan.of(FaultPlan.deterministic(seeds=(4,))),
            backoff_base=0.0,
        )
        with pytest.raises(DeterministicInjectedError):
            doomed.run(specs)
        doomed.checkpoint.close()
        assert path.is_file()  # the interruption marker survives

        # The resumed run executes ONLY the job that never finished.
        resumed = ParallelRunner(jobs=1, checkpoint=CheckpointJournal(path))
        results = resumed.run(specs)
        assert results == reference
        counts = resumed.report.counts()
        assert counts["resumed"] == 5
        assert counts["ok"] == 1
        assert resumed.stats.executed == 1
        assert resumed.report.fully_accounted(len(specs))

    def test_resume_never_reorders_results(self, tmp_path, reference):
        specs = specs_for(range(1, 7))
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(path)
        # Pre-journal an arbitrary subset, out of order.
        for i in (4, 1, 3):
            journal.record([(specs[i], reference[i])])
        journal.close()
        runner = ParallelRunner(jobs=1, checkpoint=CheckpointJournal(path))
        assert runner.run(specs) == reference
        assert runner.stats.resumed == 3
        assert runner.stats.executed == 3

    def test_cache_hits_are_journaled_for_later_resumes(self, tmp_path, reference):
        specs = specs_for((1, 2))
        cache = ResultCache(tmp_path / "cache")
        ParallelRunner(jobs=1, cache=cache).run(specs)  # warm the cache
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        runner = ParallelRunner(jobs=1, cache=cache, checkpoint=journal)
        assert runner.run(specs) == reference[:2]
        journal.close()
        # Even though nothing executed, the journal can now resume the
        # batch without the cache.
        reread = CheckpointJournal(tmp_path / "run.jsonl")
        assert len(reread) == 2
        alone = ParallelRunner(jobs=1, checkpoint=reread)
        assert alone.run(specs) == reference[:2]
        assert alone.stats.resumed == 2

    def test_pooled_run_journals_as_it_goes(self, tmp_path, reference):
        specs = specs_for(range(1, 7))
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        runner = ParallelRunner(jobs=2, chunk_size=2, checkpoint=journal)
        assert runner.run(specs) == reference
        journal.close()
        assert len(CheckpointJournal(tmp_path / "run.jsonl")) == len(specs)


class TestEnsembleCheckpoint:
    def test_clean_run_completes_and_deletes_journal(self, tmp_path):
        path = tmp_path / "ensemble.jsonl"
        ensemble = FirstPassageEnsemble(
            params=FAST, horizon=20000.0, seeds=(1, 2, 3), checkpoint=path
        ).run()
        assert not path.exists()  # clean finish: no resume marker
        assert ensemble.report.counts()["ok"] == 3

    def test_interrupted_ensemble_resumes(self, tmp_path):
        path = tmp_path / "ensemble.jsonl"
        clean = FirstPassageEnsemble(
            params=FAST, horizon=20000.0, seeds=(1, 2, 3, 4)
        ).run()
        # Pre-journal two seeds as an interrupted run would have.
        journal = CheckpointJournal(path)
        runner = ParallelRunner(jobs=1, checkpoint=journal)
        runner.run(specs_for((1, 3)))
        journal.close()
        resumed = FirstPassageEnsemble(
            params=FAST, horizon=20000.0, seeds=(1, 2, 3, 4), checkpoint=path
        ).run()
        assert resumed.report.counts()["resumed"] == 2
        assert resumed.report.counts()["ok"] == 2
        for size in range(1, FAST.n_nodes + 1):
            assert resumed.result_for(size) == clean.result_for(size)
        assert not path.exists()  # completed now, marker dropped

    def test_censored_batch_keeps_journal_for_retry(self, tmp_path):
        # The keep-the-marker rule the ensemble/sweep layers implement:
        # any incomplete (censored/failed) batch leaves its journal on
        # disk so a later retry resumes the completed seeds.
        path = tmp_path / "batch.jsonl"
        runner = ParallelRunner(
            jobs=1, checkpoint=CheckpointJournal(path), on_error="censor",
            retries=0, backoff_base=0.0,
            faults=FaultPlan.of(FaultPlan.transient(seeds=(2,), attempts=99)),
        )
        runner.run(specs_for((1, 2, 3)))
        runner.checkpoint.close()
        assert runner.report.incomplete == 1  # what ensemble.run checks
        assert path.is_file()  # incomplete: the marker must survive
        assert len(CheckpointJournal(path)) == 2
        # The retry (fault healed) resumes those 2 and completes.
        retry = ParallelRunner(jobs=1, checkpoint=CheckpointJournal(path))
        retry.run(specs_for((1, 2, 3)))
        assert retry.stats.resumed == 2 and retry.stats.executed == 1


class TestSweepCheckpoint:
    def test_sweep_tr_resumes_byte_identically(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        kwargs = dict(
            base=FAST, tr_values=(0.05, 0.1, 0.2), horizon=20000.0, seeds=(1, 2)
        )
        clean = sweep_tr(**kwargs)
        # Fabricate the interrupted state: journal half the grid.
        grid_specs = [
            SimulationJob.from_params(
                FAST.with_tr(tr), seed=seed, horizon=20000.0, direction="up"
            )
            for tr in (0.05, 0.1, 0.2)
            for seed in (1, 2)
        ]
        journal = CheckpointJournal(path)
        half = ParallelRunner(jobs=1, checkpoint=journal)
        half.run(grid_specs[:3])
        journal.close()
        resumed = sweep_tr(**kwargs, checkpoint=path)
        assert resumed == clean
        assert not path.exists()  # clean completion deletes the journal

    def test_find_transition_n_checkpoint_true(self, tmp_path, monkeypatch):
        # checkpoint=True derives the journal under results/checkpoints
        # relative to the cwd; run from tmp_path to keep the repo clean.
        monkeypatch.chdir(tmp_path)
        plain = find_transition_n(FAST, horizon=5000.0, n_low=2, n_high=12)
        journaled = find_transition_n(
            FAST, horizon=5000.0, n_low=2, n_high=12, checkpoint=True
        )
        assert journaled == plain
        checkpoints = tmp_path / "results" / "checkpoints"
        # The search completed, so its journal was deleted again.
        assert not checkpoints.exists() or not list(checkpoints.glob("*.jsonl"))

    def test_find_transition_n_resumes_probes(self, tmp_path):
        path = tmp_path / "search.jsonl"
        plain = find_transition_n(FAST, horizon=5000.0, n_low=2, n_high=12)
        cache = ResultCache(tmp_path / "cache")
        # First search populates the cache; the journaled re-search then
        # serves every probe from the journal/cache without simulating.
        first = find_transition_n(
            FAST, horizon=5000.0, n_low=2, n_high=12,
            cache=cache, checkpoint=path,
        )
        again = find_transition_n(
            FAST, horizon=5000.0, n_low=2, n_high=12,
            cache=cache, checkpoint=path,
        )
        assert first == again == plain
        assert cache.hits > 0
