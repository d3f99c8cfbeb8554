"""CLI-level tests for the 'campaign' and 'claims' targets.

Exit-code contract: 0 success/complete, 1 ran-but-incomplete (status
of an unfinished study, report with missing entries, failed run),
2 usage errors (bad spec path, malformed shard, unknown action).
"""

import json

import pytest

from repro.campaign import CampaignSpec
from repro.experiments.cli import main
from repro.parallel import ClaimRegistry


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """CLI artifacts (cache, checkpoints) land in a throwaway cwd."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_spec(tmp_path, **overrides):
    base = dict(
        name="cli-study",
        n_nodes=6,
        tp=20.0,
        tc=0.3,
        tr=(0.05, 0.1),
        seed_count=3,
        horizon=20000.0,
    )
    base.update(overrides)
    return CampaignSpec(**base).save(tmp_path / "study.json")


class TestCampaignUsage:
    def test_needs_a_spec_path(self, capsys):
        # argparse fills the required SPEC first, so a lone action word
        # must still be read as the action and SPEC reported missing.
        for argv in (["campaign", "run"], ["campaign"], ["campaign", "status"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "the following arguments are required: SPEC" in err
            assert "cannot load" not in err

    def test_action_defaults_to_run(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["campaign", str(path)]) == 0
        assert "executed=6" in capsys.readouterr().out

    def test_unknown_action(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["campaign", "frobnicate", str(path)]) == 2

    def test_missing_spec_file(self, capsys):
        assert main(["campaign", "run", "nope.json"]) == 2
        assert "cannot load campaign spec" in capsys.readouterr().err

    def test_invalid_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert main(["campaign", "run", str(bad)]) == 2

    def test_malformed_shard(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["campaign", "run", str(path), "--shard", "2/2"]) == 2
        assert "shard" in capsys.readouterr().err


class TestCampaignLifecycle:
    def test_shard_manifest_prints_counts(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["campaign", "shard", str(path), "--shard", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "total=6 shards=2" in out
        assert "shard 1/2" in out and "<- selected" in out

    def test_run_status_report_round_trip(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        # Status of a virgin campaign: incomplete -> exit 1.
        assert main(["campaign", "status", str(path)]) == 1
        assert "complete=false" in capsys.readouterr().out

        assert main(["campaign", "run", str(path)]) == 0
        captured = capsys.readouterr()
        summary = captured.out.strip().splitlines()[-1]
        assert "executed=6" in summary and "complete=true" in summary

        assert main(["campaign", "status", str(path)]) == 0
        assert "complete=true" in capsys.readouterr().out

        assert main(["campaign", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mean" in out and "complete=true" in out

    def test_report_plot_renders_ascii_curves(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["campaign", "run", str(path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", str(path), "--plot"]) == 0
        out = capsys.readouterr().out
        assert "mean sync time vs Tr (s)" in out
        assert "censored fraction vs Tr (s)" in out

    def test_rerun_serves_from_cache(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["campaign", "run", str(path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(path)]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert "executed=0" in summary and "cached=6" in summary

    def test_report_output_file_and_incomplete_warning(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        # Report before running: every entry missing -> exit 1.
        assert main(["campaign", "report", str(path), "-o", "r.json"]) == 1
        captured = capsys.readouterr()
        assert "provisional" in captured.err
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["complete"] is False and report["missing"] == 6

        assert main(["campaign", "run", str(path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", str(path), "-o", "r.json"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["complete"] is True

    def test_sharded_runs_compose(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["campaign", "run", str(path), "--shard", "0/2"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(path), "--shard", "0/2"]) == 1
        assert main(["campaign", "run", str(path), "--shard", "1/2"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(path)]) == 0

    def test_serve_dispatch_rejects_bad_endpoints(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        code = main(
            [
                "campaign", "run", str(path),
                "--dispatch", "serve", "--endpoints", "not-an-endpoint",
            ]
        )
        assert code == 2
        assert "endpoint" in capsys.readouterr().err


class TestClaimsTarget:
    def test_list_empty_registry(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "0 record(s)" in out

    def test_list_shows_records(self, capsys, tmp_path):
        registry = ClaimRegistry(tmp_path / "cache" / "claims")
        registry.plant_orphan("deadbeef" * 8)
        claim = registry.acquire("feedface" * 8)
        code = main(["claims", "list", "--cache-root", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "stale" in out and "live" in out
        claim.release()

    def test_gc_prunes_and_reports(self, capsys, tmp_path):
        registry = ClaimRegistry(tmp_path / "cache" / "claims")
        registry.plant_orphan("deadbeef" * 8)
        code = main(
            [
                "claims", "gc",
                "--cache-root", str(tmp_path / "cache"),
                "--max-age", "0",
            ]
        )
        assert code == 0
        assert "removed 1 stale claim(s)" in capsys.readouterr().out
        assert not list((tmp_path / "cache" / "claims").glob("*.claim"))

    def test_unknown_action(self, capsys):
        assert main(["claims", "shampoo"]) == 2

    def test_cache_verify_surfaces_claims_debris(self, capsys, tmp_path):
        registry = ClaimRegistry(tmp_path / "cache" / "claims")
        registry.plant_orphan("deadbeef" * 8)
        assert main(["cache", "verify", "--cache-root", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "claims/" in out and "claims gc" in out
