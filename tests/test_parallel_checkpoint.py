"""Checkpoint/resume: journals, kill-and-resume, and science invariance.

The protocol under test (see ``repro.parallel.checkpoint``): with
``ParallelRunner(checkpoint=True)`` every completed job is appended to
the batch's content-addressed JSONL journal under
``results/checkpoints/`` as it finishes (one durable commit per
``record`` call, however many jobs it carries); a killed, failed or
censored run leaves the journal behind; re-running the same batch
serves completed jobs back (outcome ``resumed``) and executes only the
remainder; a cleanly completed run deletes its journal.  Throughout,
resumed results must be byte-identical to an uninterrupted serial run.

Interrupted state is fabricated the way a killed run leaves it: the
full batch's :meth:`CheckpointJournal.for_specs` journal holding a
subset of its jobs, under a per-test working directory.
"""

import json
from pathlib import Path

import pytest

from repro.core import FirstPassageEnsemble, RouterTimingParameters, sweep_tr
from repro.parallel import (
    CheckpointJournal,
    DeterministicInjectedError,
    FaultPlan,
    ParallelRunner,
    ResultCache,
    SimulationJob,
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


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Journals land under ``results/checkpoints/`` of a fresh cwd."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def journals() -> list:
    """Every journal left under the working directory."""
    return sorted(Path("results", "checkpoints").glob("*.jsonl"))


def interrupted(specs, done):
    """The journal a killed run of ``specs`` leaves: ``done`` is the
    ``(spec, result)`` pairs that finished before the kill."""
    journal = CheckpointJournal.for_specs(specs)
    journal.record(done)
    journal.close()
    return journal.path


def failing(seed, on_error="raise"):
    """Runner kwargs under which ``seed`` fails on every attempt."""
    return dict(
        faults=FaultPlan.of(FaultPlan.deterministic(seeds=(seed,))),
        on_error=on_error,
        backoff_base=0.0,
    )


class TestJournalBasics:
    def test_run_id_is_content_addressed_and_order_free(self):
        specs = specs_for((1, 2, 3))
        a = CheckpointJournal.for_specs(specs)
        b = CheckpointJournal.for_specs(list(reversed(specs)))
        c = CheckpointJournal.for_specs(specs_for((1, 2, 4)))
        assert a.path == b.path
        assert a.path != c.path
        assert a.path.parent == Path("results", "checkpoints")

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
        assert journal.path.is_file()
        journal.complete()
        assert not journal.path.exists()


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


class TestRunnerLifecycle:
    """The runner is the one owner of the journal: a clean batch
    deletes it, a censored or raised one keeps it for the next run."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_clean_batch_deletes_its_journal(self, workdir, reference, jobs):
        specs = specs_for(range(1, 7))
        runner = ParallelRunner(jobs=jobs, checkpoint=True)
        assert runner.run(specs) == reference
        assert runner.report.counts()["ok"] == len(specs)
        # Written as the batch ran, then deleted by the clean finish.
        assert (workdir / "results" / "checkpoints").is_dir()
        assert journals() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_censored_batch_keeps_its_journal(self, workdir, reference, jobs):
        specs = specs_for(range(1, 7))
        runner = ParallelRunner(
            jobs=jobs, chunk_size=1, checkpoint=True, **failing(4, "censor")
        )
        results = runner.run(specs)
        assert runner.report.incomplete == 1
        assert results[:3] == reference[:3] and results[4:] == reference[4:]
        assert journals() == [CheckpointJournal.for_specs(specs).path]
        assert len(CheckpointJournal.for_specs(specs)) == 5

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raised_batch_keeps_its_journal(self, workdir, reference, jobs):
        specs = specs_for(range(1, 7))
        runner = ParallelRunner(
            jobs=jobs, chunk_size=1, checkpoint=True, **failing(4)
        )
        with pytest.raises(DeterministicInjectedError):
            runner.run(specs)
        assert journals() == [CheckpointJournal.for_specs(specs).path]
        assert len(CheckpointJournal.for_specs(specs)) == 5
        # The healed rerun of the same batch resumes and then cleans up.
        again = ParallelRunner(jobs=jobs, checkpoint=True)
        assert again.run(specs) == reference
        counts = again.report.counts()
        assert (counts["resumed"], counts["ok"]) == (5, 1)
        assert journals() == []

    def test_without_checkpoint_nothing_is_journaled(self, workdir):
        ParallelRunner(jobs=1, **failing(2, "censor")).run(specs_for((1, 2)))
        assert not (workdir / "results").exists()


class TestRunnerResume:
    def test_kill_and_resume_is_byte_identical(self, workdir, reference):
        """A run killed mid-batch resumes without re-executing finished work."""
        specs = specs_for(range(1, 7))
        # "Kill" the first run mid-batch: seed 4 hits a deterministic
        # injected error and on_error="raise" aborts the batch after
        # every other job committed.
        doomed = ParallelRunner(jobs=1, checkpoint=True, **failing(4))
        with pytest.raises(DeterministicInjectedError):
            doomed.run(specs)
        path = CheckpointJournal.for_specs(specs).path
        assert path.is_file()  # the interruption marker survives

        # The resumed run executes ONLY the job that never finished.
        resumed = ParallelRunner(jobs=1, checkpoint=True)
        results = resumed.run(specs)
        assert results == reference
        counts = resumed.report.counts()
        assert counts["resumed"] == 5
        assert counts["ok"] == 1
        assert resumed.stats.executed == 1
        assert resumed.report.fully_accounted(len(specs))
        assert not path.exists()

    def test_resume_never_reorders_results(self, workdir, reference):
        specs = specs_for(range(1, 7))
        # Pre-journal an arbitrary subset, out of order.
        interrupted(specs, [(specs[i], reference[i]) for i in (4, 1, 3)])
        runner = ParallelRunner(jobs=1, checkpoint=True)
        assert runner.run(specs) == reference
        assert runner.stats.resumed == 3
        assert runner.stats.executed == 3

    def test_cache_hits_are_journaled_for_later_resumes(self, workdir, reference):
        specs = specs_for((1, 2, 3))
        cache = ResultCache(workdir / "cache")
        ParallelRunner(jobs=1, cache=cache).run(specs[:2])  # warm 2 of 3
        # Seed 3 fails, so the batch keeps its journal — which now
        # holds the two hits even though nothing executed.
        runner = ParallelRunner(
            jobs=1, cache=cache, checkpoint=True, **failing(3, "censor")
        )
        runner.run(specs)
        assert len(CheckpointJournal.for_specs(specs)) == 2
        # The journal resumes the batch without the cache.
        alone = ParallelRunner(jobs=1, checkpoint=True)
        assert alone.run(specs) == reference[:3]
        assert alone.stats.resumed == 2 and alone.stats.executed == 1

    def test_warm_run_journals_its_hits_in_one_commit(self, workdir, monkeypatch):
        specs = specs_for(range(1, 13))
        cache = ResultCache(workdir / "cache")
        expected = ParallelRunner(jobs=1, cache=cache).run(specs)  # warm
        commits, fsyncs = [], []
        real_record = CheckpointJournal.record
        real_fsync = checkpoint_module.os.fsync

        def counting_record(journal, pairs):
            pairs = list(pairs)
            commits.append(len(pairs))
            return real_record(journal, pairs)

        def counting_fsync(fd):
            fsyncs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(CheckpointJournal, "record", counting_record)
        monkeypatch.setattr(checkpoint_module.os, "fsync", counting_fsync)
        runner = ParallelRunner(jobs=1, cache=cache, checkpoint=True)
        assert runner.run(specs) == expected
        assert commits == [len(specs)] and len(fsyncs) == 1
        assert runner.report.counts()["cache_hit"] == len(specs)
        assert journals() == []  # a clean batch, all hits

    def test_hits_are_journaled_before_pending_jobs_execute(self, workdir, reference):
        specs = specs_for(range(1, 7))
        cache = ResultCache(workdir / "cache")
        ParallelRunner(jobs=1, cache=cache).run(specs[:3])
        doomed = ParallelRunner(jobs=1, cache=cache, checkpoint=True, **failing(4))
        with pytest.raises(DeterministicInjectedError):
            doomed.run(specs)
        # The hits' commit landed before seed 4 raised; the jobs after
        # it committed one by one.
        resumed = ParallelRunner(jobs=1, checkpoint=True)
        assert resumed.run(specs) == reference
        assert resumed.report.counts()["resumed"] == 5
        assert resumed.stats.executed == 1

    @pytest.mark.parametrize("outcome", ["censored", "raised"])
    def test_runner_releases_the_journal_handle_and_keeps_the_file(
        self, workdir, reference, monkeypatch, outcome
    ):
        opened = []
        real_for_specs = CheckpointJournal.for_specs.__func__

        def tracking_for_specs(cls, specs):
            journal = real_for_specs(cls, specs)
            opened.append(journal)
            return journal

        monkeypatch.setattr(
            CheckpointJournal, "for_specs", classmethod(tracking_for_specs)
        )
        specs = specs_for((1, 2))
        runner = ParallelRunner(
            jobs=1, checkpoint=True,
            **failing(2, "censor" if outcome == "censored" else "raise"),
        )
        if outcome == "censored":
            runner.run(specs)
        else:
            with pytest.raises(DeterministicInjectedError):
                runner.run(specs)
        (journal,) = opened
        assert journal._handle is None  # no append handle left open
        assert journal.path.is_file()  # incomplete: the marker stays
        # A later run of the same batch appends to it and completes.
        again = ParallelRunner(jobs=1, checkpoint=True)
        assert again.run(specs) == reference[:2]
        assert again.stats.resumed == 1
        assert opened[-1]._handle is None
        assert not journal.path.exists()

    def test_pooled_run_journals_as_it_goes(self, workdir, reference):
        specs = specs_for(range(1, 7))
        runner = ParallelRunner(
            jobs=2, chunk_size=2, checkpoint=True, **failing(6, "censor")
        )
        assert runner.run(specs)[:5] == reference[:5]
        journal = CheckpointJournal.for_specs(specs)
        assert [journal.lookup(spec) for spec in specs] == reference[:5] + [None]


class TestEnsembleCheckpoint:
    def test_clean_run_completes_and_deletes_journal(self, workdir):
        ensemble = FirstPassageEnsemble(
            params=FAST, horizon=20000.0, seeds=(1, 2, 3), checkpoint=True
        ).run()
        assert journals() == []  # clean finish: no resume marker
        assert ensemble.report.counts()["ok"] == 3

    def test_interrupted_ensemble_resumes(self, workdir, reference):
        clean = FirstPassageEnsemble(
            params=FAST, horizon=20000.0, seeds=(1, 2, 3, 4)
        ).run()
        # Pre-journal two seeds as an interrupted run would have.
        specs = specs_for((1, 2, 3, 4))
        interrupted(specs, [(specs[0], reference[0]), (specs[2], reference[2])])
        resumed = FirstPassageEnsemble(
            params=FAST, horizon=20000.0, seeds=(1, 2, 3, 4), checkpoint=True
        ).run()
        assert resumed.report.counts()["resumed"] == 2
        assert resumed.report.counts()["ok"] == 2
        for size in range(1, FAST.n_nodes + 1):
            assert resumed.result_for(size) == clean.result_for(size)
        assert journals() == []  # completed now, marker dropped

    def test_censored_batch_keeps_journal_for_retry(self, workdir):
        # Any incomplete (censored/failed) batch leaves its journal on
        # disk so a later retry resumes the completed seeds.
        specs = specs_for((1, 2, 3))
        runner = ParallelRunner(
            jobs=1, checkpoint=True, on_error="censor",
            retries=0, backoff_base=0.0,
            faults=FaultPlan.of(FaultPlan.transient(seeds=(2,), attempts=99)),
        )
        runner.run(specs)
        assert runner.report.incomplete == 1
        path = CheckpointJournal.for_specs(specs).path
        assert path.is_file()  # incomplete: the marker must survive
        assert len(CheckpointJournal(path)) == 2
        # The retry (fault healed) resumes those 2 and completes.
        retry = FirstPassageEnsemble(
            params=FAST, horizon=20000.0, seeds=(1, 2, 3), checkpoint=True
        ).run()
        assert retry.report.counts()["resumed"] == 2
        assert retry.report.counts()["ok"] == 1
        assert not path.exists()


class TestSweepCheckpoint:
    def test_sweep_tr_resumes_byte_identically(self, workdir):
        kwargs = dict(
            base=FAST, tr_values=(0.05, 0.1, 0.2), horizon=20000.0, seeds=(1, 2)
        )
        clean = sweep_tr(**kwargs)
        # Fabricate the interrupted state: the grid's journal holding
        # half of its points.
        grid_specs = [
            SimulationJob.from_params(
                FAST.with_tr(tr), seed=seed, horizon=20000.0, direction="up"
            )
            for tr in (0.05, 0.1, 0.2)
            for seed in (1, 2)
        ]
        half = grid_specs[:3]
        interrupted(grid_specs, zip(half, ParallelRunner(jobs=1).run(half)))
        resumed = sweep_tr(**kwargs, checkpoint=True)
        assert resumed == clean
        assert journals() == []  # clean completion deletes the journal
