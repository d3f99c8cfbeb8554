"""Tests for the shared BENCH_*.json envelope (repro.benchio).

Both benchmarks — obs and predict — must frame their snapshots
identically: one schema version, the model version, and the host
context, with benchmark payload fields alongside.  The predict bench
runs in CI's predict-smoke job, not here; its committed artifact is
checked below.
"""

import json
import re
from pathlib import Path

import pytest

from repro.benchio import (
    BENCH_SCHEMA,
    bench_envelope,
    host_info,
    write_bench_json,
)
from repro.parallel.job import MODEL_VERSION

FRAME_FIELDS = ("bench_schema", "benchmark", "model_version", "host")

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Prose that quotes benchmark artifacts.  CHANGES.md and ROADMAP.md
#: are history (they name artifacts that have since been retired) and
#: are not scanned.
CITING_DOCS = (
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
)


class TestEnvelope:
    def test_frame_fields_and_payload_merge(self):
        snapshot = bench_envelope("demo", {"speedup": 2.0})
        assert snapshot["bench_schema"] == BENCH_SCHEMA
        assert snapshot["benchmark"] == "demo"
        assert snapshot["model_version"] == MODEL_VERSION
        assert set(snapshot["host"]) == {"cpu_count", "platform", "python"}
        assert snapshot["speedup"] == 2.0

    def test_payload_may_not_shadow_frame_fields(self):
        for f in FRAME_FIELDS:
            with pytest.raises(ValueError, match=f):
                bench_envelope("demo", {f: "clash"})

    def test_host_info_shape(self):
        info = host_info()
        assert isinstance(info["cpu_count"], int) and info["cpu_count"] >= 1
        assert isinstance(info["platform"], str)
        assert isinstance(info["python"], str)

    def test_write_bench_json_round_trips(self, tmp_path):
        snapshot = bench_envelope("demo", {"n": 3})
        path = write_bench_json(tmp_path / "BENCH_demo.json", snapshot)
        assert json.loads(path.read_text()) == snapshot
        assert path.read_text().endswith("\n")


class TestAllBenchmarksUseTheEnvelope:
    """Each bench's snapshot carries the shared frame (tiny workloads)."""

    def assert_framed(self, snapshot, benchmark):
        for f in FRAME_FIELDS:
            assert f in snapshot, f"missing frame field {f}"
        assert snapshot["benchmark"] == benchmark
        assert snapshot["bench_schema"] == BENCH_SCHEMA
        assert snapshot["model_version"] == MODEL_VERSION

    def test_obs_bench(self, tmp_path):
        from repro.obs.bench import run_obs_benchmark

        snapshot = run_obs_benchmark(
            horizon=2000.0,
            seeds=(1, 2),
            repeats=1,
            output=tmp_path / "BENCH_obs.json",
        )
        self.assert_framed(snapshot, "fig10_ensemble_obs_overhead")
        assert snapshot["results_identical_with_obs"]


class TestCommittedArtifacts:
    @pytest.mark.parametrize("doc", CITING_DOCS)
    def test_prose_cites_only_artifacts_that_exist(self, doc):
        cited = set(re.findall(r"BENCH_\w+\.json", (REPO_ROOT / doc).read_text()))
        missing = sorted(n for n in cited if not (REPO_ROOT / n).exists())
        assert not missing, f"{doc} cites missing artifact(s): {missing}"

    def test_every_committed_artifact_carries_the_envelope(self):
        paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert paths
        for path in paths:
            snapshot = json.loads(path.read_text())
            for f in FRAME_FIELDS:
                assert f in snapshot, f"{path.name} lacks frame field {f}"
            assert snapshot["bench_schema"] == BENCH_SCHEMA, path.name
