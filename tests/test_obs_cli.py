"""CLI-level tests for the observability flags and the 'obs' target."""

import json

import pytest

from repro import obs as obs_runtime
from repro.experiments.cli import main


@pytest.fixture(autouse=True)
def clean_obs():
    obs_runtime.reset()
    yield
    obs_runtime.reset()


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """CLI artifacts (cache, traces) land in a throwaway directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_fig10(capsys, *extra):
    code = main(["fig10", "--fast", "--no-cache", *extra])
    captured = capsys.readouterr()
    assert code == 0
    return captured


class TestStdoutByteIdentity:
    def test_trace_and_metrics_leave_stdout_untouched(self, capsys):
        plain = run_fig10(capsys)
        observed = run_fig10(
            capsys, "--trace", "results/trace.jsonl", "--metrics"
        )
        assert observed.out == plain.out
        assert "trace written to results/trace.jsonl" in observed.err
        assert "metrics:" in observed.err
        assert "runner.jobs.ok" in observed.err

    def test_profile_reports_to_stderr_only(self, capsys):
        plain = run_fig10(capsys)
        profiled = run_fig10(capsys, "--profile")
        assert profiled.out == plain.out
        assert "tottime (s)" in profiled.err


class TestTraceFile:
    def test_trace_jsonl_is_written_and_valid(self, capsys, tmp_path):
        run_fig10(capsys, "--trace", "results/trace.jsonl")
        lines = (tmp_path / "results/trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        kinds = {record["type"] for record in records}
        assert "span" in kinds
        assert "metric" in kinds
        span_names = {
            record["name"] for record in records if record["type"] == "span"
        }
        assert "figure.run" in span_names
        assert "ensemble.run" in span_names
        assert "job.run" in span_names


class TestObsTarget:
    def test_summary_reads_a_trace(self, capsys):
        run_fig10(capsys, "--trace", "results/trace.jsonl")
        assert main(["obs", "summary", "results/trace.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "figure.run" in out

    def test_summary_default_path(self, capsys):
        run_fig10(capsys, "--trace", "results/trace.jsonl")
        assert main(["obs"]) == 0  # summary of results/trace.jsonl
        assert "spans:" in capsys.readouterr().out

    def test_export_trace_round_trips_json(self, capsys, tmp_path):
        run_fig10(capsys, "--trace", "results/trace.jsonl")
        assert main(
            ["obs", "export-trace", "results/trace.jsonl", "-o", "out.json"]
        ) == 0
        assert "chrome trace written to out.json" in capsys.readouterr().out
        chrome = json.loads((tmp_path / "out.json").read_text())
        assert chrome["traceEvents"], "no events exported"
        for event in chrome["traceEvents"]:
            assert event["ph"] in {"X", "i", "C"}
            assert "ts" in event and "pid" in event
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_top_without_profile_guides(self, capsys):
        run_fig10(capsys, "--trace", "results/trace.jsonl")
        assert main(["obs", "top", "results/trace.jsonl"]) == 0
        assert "--profile" in capsys.readouterr().out

    def test_top_with_profile_shows_table(self, capsys):
        run_fig10(
            capsys, "--trace", "results/trace.jsonl", "--profile"
        )
        assert main(["obs", "top", "results/trace.jsonl"]) == 0
        assert "tottime (s)" in capsys.readouterr().out

    def test_missing_trace_errors_cleanly(self, capsys):
        assert main(["obs", "summary", "nope.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_unknown_action_errors(self, capsys):
        assert main(["obs", "frobnicate"]) == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["fig10", "verify", "extra"], "unrecognized arguments: verify extra"),
            (["list", "--seed", "5"], "unrecognized arguments: --seed 5"),
            # '--topology' is not a cache flag, so 'ring' is read as the action
            (["cache", "--topology", "ring"], "invalid choice: 'ring'"),
            (["fig10", "--workers", "2"], "unrecognized arguments: --workers 2"),
        ],
        ids=["fig10-action-path", "list-seed", "cache-topology", "fig10-workers"],
    )
    def test_path_only_valid_for_obs(self, capsys, argv, error):
        """A target rejects positionals and flags its handler does not read."""
        assert main(argv) == 2
        assert error in capsys.readouterr().err

    def test_quiet_verbose_conflict(self, capsys):
        assert main(["fig10", "--quiet", "--verbose"]) == 2
        assert "argument --verbose: not allowed with argument --quiet" in (
            capsys.readouterr().err
        )

    def test_cache_actions_still_work(self, capsys):
        assert main(["cache", "verify"]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestBenchObs:
    def test_bench_obs_writes_snapshot(self, capsys, tmp_path, monkeypatch):
        import repro.obs.bench as bench_mod

        real_benchmark = bench_mod.run_obs_benchmark

        def tiny_benchmark(horizon=None, seeds=(1,), repeats=1, output=None):
            return real_benchmark(
                horizon=5000.0, seeds=(1, 2), repeats=1, output=output
            )

        monkeypatch.setattr(bench_mod, "run_obs_benchmark", tiny_benchmark)
        code = main(["bench", "--obs"])
        out = capsys.readouterr().out
        assert "obs overhead" in out
        assert "snapshot written to BENCH_obs.json" in out
        snapshot = json.loads((tmp_path / "BENCH_obs.json").read_text())
        assert snapshot["results_identical_with_obs"] is True
        assert "overhead_percent" in snapshot
        assert code in (0, 1)  # tiny workload may miss the 5% budget

    def test_verbose_installs_console_sink(self, capsys, monkeypatch, tmp_path):
        # A real resume: the first --resume run dies on one seed after
        # the others are journaled; the --verbose rerun narrates the
        # resume on stderr and prints exactly the uninterrupted figure.
        import repro.parallel.runner as runner_mod

        command = ["fig10", "--fast", "--no-cache", "--resume"]
        uninterrupted = run_fig10(capsys).out
        real_run_job = runner_mod.run_job

        def dies_on_seed_4(spec, faults=None, attempt=0):
            if spec.seed == 4:
                raise ValueError("killed mid-run")
            return real_run_job(spec, faults=faults, attempt=attempt)

        monkeypatch.setattr(runner_mod, "run_job", dies_on_seed_4)
        assert main(command) == 2
        assert "killed mid-run" in capsys.readouterr().err
        checkpoints = tmp_path / "results" / "checkpoints"
        (journal,) = checkpoints.glob("*.jsonl")
        assert len(journal.read_text().splitlines()) == 2  # seeds 1 and 5

        monkeypatch.setattr(runner_mod, "run_job", real_run_job)
        assert main([*command, "--verbose"]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == uninterrupted
        assert f"resuming run {journal.stem}: 2 completed job(s)" in resumed.err
        assert not list(checkpoints.glob("*.jsonl"))
