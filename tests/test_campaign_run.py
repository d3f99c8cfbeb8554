"""Orchestrator tests: exactly-once retirement, resume, kill-safety.

The contract under test: across any number of interrupted attempts,
every job of a shard is retired exactly once — cache hits and journal
replays are honored, only missing hashes execute — and the finished
study is byte-identical to an uninterrupted one.  The SIGKILL test at
the bottom proves it end to end through the CLI with a real ``kill
-9`` mid-campaign.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    LocalDispatcher,
    build_report,
    campaign_status,
    format_status,
    report_json,
    run_campaign,
    shard_journal,
)
from repro.parallel import CheckpointJournal, ResultCache
from repro.parallel.job import run_job

REPO_ROOT = Path(__file__).resolve().parents[1]


def spec(**overrides):
    base = dict(
        name="run-study",
        n_nodes=6,
        tp=20.0,
        tc=0.3,
        tr=(0.05, 0.1),
        seed_count=5,
        horizon=20000.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class ExplodingDispatcher(LocalDispatcher):
    """Executes normally for ``good_chunks`` run() calls, then raises."""

    def __init__(self, good_chunks):
        super().__init__()
        self.good_chunks = good_chunks
        self.calls = 0

    def run(self, specs):
        self.calls += 1
        if self.calls > self.good_chunks:
            raise RuntimeError("injected mid-campaign failure")
        return super().run(specs)


class TestRunCampaign:
    def test_fresh_run_executes_everything_once(self, tmp_path):
        s = spec()
        cache = ResultCache(tmp_path / "cache")
        summary = run_campaign(
            s, cache=cache, checkpoint_root=tmp_path / "ckpt"
        )
        assert summary.total == s.total_jobs
        assert summary.executed == s.total_jobs
        assert summary.cached == 0 and summary.resumed == 0
        assert summary.complete is True
        assert len(cache) == s.total_jobs
        # Clean finish deletes the journal — survival means interrupted.
        assert not shard_journal(s, 0, 1, tmp_path / "ckpt").exists()

    def test_rerun_is_a_pure_cache_read(self, tmp_path):
        s = spec()
        cache = ResultCache(tmp_path / "cache")
        run_campaign(s, cache=cache, checkpoint_root=tmp_path / "ckpt")
        again = run_campaign(s, cache=cache, checkpoint_root=tmp_path / "ckpt")
        assert again.executed == 0
        assert again.cached == s.total_jobs
        assert again.complete is True

    def test_journal_entries_replay_into_the_cache(self, tmp_path):
        s = spec()
        jobs = list(s.jobs())
        # An earlier interrupted run journaled three completions whose
        # cache writes were lost (the cache is best-effort).
        journal = shard_journal(s, 0, 1, tmp_path / "ckpt")
        for job in jobs[:3]:
            journal.record([(job, run_job(job))])
        journal.close()
        cache = ResultCache(tmp_path / "cache")
        summary = run_campaign(
            s, cache=cache, checkpoint_root=tmp_path / "ckpt"
        )
        assert summary.resumed == 3
        assert summary.executed == s.total_jobs - 3
        assert summary.complete is True
        assert len(cache) == s.total_jobs

    def test_interrupted_run_keeps_journal_and_resumes_missing_only(
        self, tmp_path
    ):
        s = spec()
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(RuntimeError, match="injected"):
            run_campaign(
                s,
                dispatcher=ExplodingDispatcher(good_chunks=2),
                cache=cache,
                checkpoint_root=tmp_path / "ckpt",
                chunk_size=2,
            )
        committed = len(cache)
        assert committed == 4  # two good chunks of two
        assert shard_journal(s, 0, 1, tmp_path / "ckpt").exists()
        summary = run_campaign(
            s, cache=cache, checkpoint_root=tmp_path / "ckpt"
        )
        assert summary.cached + summary.resumed == committed
        assert summary.executed == s.total_jobs - committed
        assert summary.complete is True
        assert not shard_journal(s, 0, 1, tmp_path / "ckpt").exists()

    def test_sharded_runs_compose_to_the_full_study(self, tmp_path):
        s = spec()
        shared = ResultCache(tmp_path / "cache")
        for k in range(2):
            summary = run_campaign(
                s,
                shard=k,
                num_shards=2,
                cache=shared,
                checkpoint_root=tmp_path / "ckpt",
            )
            assert summary.complete is True
        assert len(shared) == s.total_jobs
        # Byte-identical to a single-shard run in a fresh cache.
        solo = ResultCache(tmp_path / "solo")
        run_campaign(s, cache=solo, checkpoint_root=tmp_path / "ckpt2")
        assert report_json(build_report(s, shared)) == report_json(
            build_report(s, solo)
        )

    def test_one_journal_commit_per_chunk(self, tmp_path, monkeypatch):
        commits = []
        real_record = CheckpointJournal.record

        def counting_record(journal, pairs):
            pairs = list(pairs)
            commits.append(len(pairs))
            return real_record(journal, pairs)

        monkeypatch.setattr(CheckpointJournal, "record", counting_record)
        s = spec()  # 10 jobs
        cache = ResultCache(tmp_path / "cache")
        summary = run_campaign(
            s, cache=cache, checkpoint_root=tmp_path / "ckpt", chunk_size=4
        )
        assert summary.executed == s.total_jobs
        assert commits == [4, 4, 2]
        # A chunk with nothing fresh (all cache hits) commits nothing.
        commits.clear()
        again = run_campaign(
            s, cache=cache, checkpoint_root=tmp_path / "ckpt", chunk_size=4
        )
        assert again.cached == s.total_jobs and commits == []

    def test_one_cache_commit_per_chunk(self, tmp_path):
        s = spec()  # 10 jobs
        cache = ResultCache(tmp_path / "cache")
        run_campaign(s, cache=cache, checkpoint_root=tmp_path / "ckpt", chunk_size=4)
        packs = sorted((tmp_path / "cache" / "packs").glob("*.pack"))
        assert sorted(len(p.read_text().splitlines()) for p in packs) == [2, 4, 4]
        assert not list((tmp_path / "cache").glob("*.json"))
        assert len(cache) == s.total_jobs
        status = campaign_status(s, cache=ResultCache(tmp_path / "cache"))
        assert status["complete"] is True and status["done"] == s.total_jobs

    def test_chunked_report_is_byte_identical_to_one_job_per_commit(
        self, tmp_path
    ):
        s = spec()
        reports = []
        for chunk_size in (1, 3, 256):
            root = tmp_path / f"chunk-{chunk_size}"
            cache = ResultCache(root / "cache")
            summary = run_campaign(
                s, cache=cache, checkpoint_root=root / "ckpt", chunk_size=chunk_size
            )
            assert summary.executed == s.total_jobs
            # A fresh reader sees the same entries as the writer.
            for reader in (cache, ResultCache(root / "cache")):
                reports.append(report_json(build_report(s, reader)))
        assert len(set(reports)) == 1
        assert not list((tmp_path / "chunk-1" / "cache").glob("packs/*"))

    def test_journal_replays_and_fresh_results_share_one_commit(self, tmp_path):
        s = spec()
        jobs = list(s.jobs())
        journal = shard_journal(s, 0, 1, tmp_path / "ckpt")
        journal.record([(job, run_job(job)) for job in jobs[:3]])
        journal.close()
        cache = ResultCache(tmp_path / "cache")
        summary = run_campaign(
            s, cache=cache, checkpoint_root=tmp_path / "ckpt", chunk_size=5
        )
        assert (summary.resumed, summary.executed) == (3, s.total_jobs - 3)
        packs = list((tmp_path / "cache" / "packs").glob("*.pack"))
        assert len(packs) == 2 and len(cache) == s.total_jobs

    def test_chunk_size_validated(self, tmp_path):
        with pytest.raises(ValueError):
            run_campaign(
                spec(), cache=ResultCache(tmp_path / "c"), chunk_size=0
            )

    def test_summary_line_is_machine_readable(self, tmp_path):
        s = spec()
        summary = run_campaign(
            s, cache=ResultCache(tmp_path / "c"), checkpoint_root=tmp_path / "j"
        )
        line = summary.summary_line()
        assert line == (
            f"campaign {s.campaign_id()} name={s.name} shard=0/1 "
            f"total={s.total_jobs} executed={s.total_jobs} cached=0 "
            f"resumed=0 complete=true"
        )


class TestCampaignStatus:
    def test_status_transitions(self, tmp_path):
        s = spec()
        cache = ResultCache(tmp_path / "cache")
        ckpt = tmp_path / "ckpt"
        before = campaign_status(s, num_shards=2, cache=cache, checkpoint_root=ckpt)
        assert before["done"] == 0 and before["complete"] is False
        assert all(not row["complete"] for row in before["shards"])

        run_campaign(s, shard=0, num_shards=2, cache=cache, checkpoint_root=ckpt)
        partial = campaign_status(s, num_shards=2, cache=cache, checkpoint_root=ckpt)
        assert partial["complete"] is False
        assert partial["shards"][0]["complete"] is True
        assert partial["shards"][1]["done"] == 0

        run_campaign(s, shard=1, num_shards=2, cache=cache, checkpoint_root=ckpt)
        after = campaign_status(s, num_shards=2, cache=cache, checkpoint_root=ckpt)
        assert after["complete"] is True
        assert after["done"] == s.total_jobs

    def test_interrupted_shard_is_flagged(self, tmp_path):
        s = spec()
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(RuntimeError):
            run_campaign(
                s,
                dispatcher=ExplodingDispatcher(good_chunks=1),
                cache=cache,
                checkpoint_root=tmp_path / "ckpt",
                chunk_size=2,
            )
        status = campaign_status(
            s, cache=cache, checkpoint_root=tmp_path / "ckpt"
        )
        row = status["shards"][0]
        assert row["interrupted"] is True and row["complete"] is False
        assert "partial" in format_status(status)

    def test_journal_only_completions_are_visible(self, tmp_path):
        s = spec()
        jobs = list(s.jobs())
        journal = shard_journal(s, 0, 1, tmp_path / "ckpt")
        journal.record([(jobs[0], run_job(jobs[0]))])
        journal.close()
        status = campaign_status(
            s,
            cache=ResultCache(tmp_path / "cache"),
            checkpoint_root=tmp_path / "ckpt",
        )
        assert status["shards"][0]["journaled"] == 1


SUMMARY_RE = re.compile(
    r"campaign (?P<id>[0-9a-f]{16}) name=(?P<name>\S+) "
    r"shard=(?P<shard>\d+)/(?P<num>\d+) total=(?P<total>\d+) "
    r"executed=(?P<executed>\d+) cached=(?P<cached>\d+) "
    r"resumed=(?P<resumed>\d+) complete=(?P<complete>true|false)"
)


class TestKillAndResume:
    """The satellite acceptance test: SIGKILL mid-campaign, resume,
    only missing hashes execute, final report byte-identical."""

    # Tr=5.0 points censor at this horizon, so each costs a full
    # event-by-event horizon (~tens of ms) — enough runway to land a
    # SIGKILL mid-campaign with chunk_size=1 commits.
    def kill_spec(self):
        return spec(
            name="kill-study",
            tr=(0.1, 5.0),
            seed_count=15,
            horizon=40000.0,
        )

    def campaign_cmd(self, action, *opts):
        return [
            sys.executable, "-m", "repro", "campaign", action,
            "study.json", "--chunk-size", "1", *opts,
        ]

    def run_cli(self, cwd, action, *opts):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            self.campaign_cmd(action, *opts),
            cwd=str(cwd),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def parse_summary(self, stdout):
        for line in reversed(stdout.splitlines()):
            match = SUMMARY_RE.match(line.strip())
            if match:
                return {
                    key: int(value) if value.isdigit() else value
                    for key, value in match.groupdict().items()
                }
        raise AssertionError(f"no summary line in output:\n{stdout}")

    def test_sigkill_then_resume_executes_only_missing_hashes(self, tmp_path):
        s = self.kill_spec()
        workdir = tmp_path / "killed"
        workdir.mkdir()
        s.save(workdir / "study.json")
        cache_dir = workdir / "results" / "cache"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            self.campaign_cmd("run"),
            cwd=str(workdir),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            # Wait for a few per-job commits to land, then kill -9.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                done = (
                    len(list(cache_dir.glob("*.json")))
                    if cache_dir.is_dir()
                    else 0
                )
                if done >= 3 or proc.poll() is not None:
                    break
                time.sleep(0.002)
            assert proc.poll() is None, (
                "campaign finished before the kill; grid too small "
                f"(rc={proc.returncode})"
            )
        finally:
            proc.kill()
        proc.wait(timeout=30)
        assert proc.returncode != 0

        committed = len(list(cache_dir.glob("*.json")))
        assert 0 < committed < s.total_jobs
        journals = list((workdir / "results" / "checkpoints").glob("*.jsonl"))
        assert journals, "an interrupted shard must leave its journal"

        resume = self.run_cli(workdir, "run")
        assert resume.returncode == 0, resume.stderr
        summary = self.parse_summary(resume.stdout)
        assert summary["complete"] == "true"
        assert summary["total"] == s.total_jobs
        # Exactly the missing hashes execute; every committed result
        # is honored from the cache or replayed from the journal.
        assert summary["cached"] + summary["resumed"] == committed
        assert summary["executed"] == s.total_jobs - committed
        # The clean finish removed the interrupted-shard marker.
        assert not list((workdir / "results" / "checkpoints").glob("*.jsonl"))

        report = self.run_cli(workdir, "report", "-o", "report.json")
        assert report.returncode == 0, report.stderr

        # Byte-identity against an uninterrupted run of the same spec.
        clean = tmp_path / "clean"
        clean.mkdir()
        s.save(clean / "study.json")
        fresh = self.run_cli(clean, "run")
        assert fresh.returncode == 0, fresh.stderr
        assert self.parse_summary(fresh.stdout)["executed"] == s.total_jobs
        fresh_report = self.run_cli(clean, "report", "-o", "report.json")
        assert fresh_report.returncode == 0, fresh_report.stderr
        assert (workdir / "report.json").read_bytes() == (
            clean / "report.json"
        ).read_bytes()
