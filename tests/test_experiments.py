"""Tests for the experiments package: results, registry, CLI."""

import pytest

from repro.experiments import FigureResult, figure_ids, run_figure
from repro.experiments.cli import build_parser, main


class TestFigureResult:
    def test_series_and_metrics_round_trip(self):
        result = FigureResult(figure_id="figXX", title="test")
        result.add_series("s", [(1, 2.0), (2, 3.0)])
        result.metrics["m"] = 0.5
        text = result.format_text()
        assert "figXX" in text
        assert "m: 0.5" in text
        assert "series 's'" in text

    def test_duplicate_series_rejected(self):
        result = FigureResult(figure_id="figXX", title="test")
        result.add_series("s", [])
        with pytest.raises(ValueError):
            result.add_series("s", [])

    def test_format_thins_long_series(self):
        result = FigureResult(figure_id="figXX", title="test")
        result.add_series("s", [(i, i) for i in range(1000)])
        text = result.format_text(max_points=10)
        data_lines = [l for l in text.splitlines() if l.startswith("    ")]
        assert len(data_lines) <= 12

    def test_format_handles_special_floats(self):
        result = FigureResult(figure_id="figXX", title="test")
        result.metrics["nan"] = float("nan")
        result.metrics["zero"] = 0.0
        result.metrics["big"] = 1.23e9
        text = result.format_text()
        assert "nan" in text
        assert "zero: 0" in text


class TestRegistry:
    def test_all_eighteen_figures_registered(self):
        # fig01-fig15 reproduce the paper; fig16-fig18 are the
        # topology extension (DESIGN.md §13).
        ids = figure_ids()
        assert len(ids) == 18
        assert ids[0] == "fig01"
        assert ids[-1] == "fig18"

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig99")

    def test_fast_flag_adds_note(self):
        result = run_figure("fig09", fast=True)
        assert any("fast" in note for note in result.notes)

    def test_overrides_take_precedence(self):
        result = run_figure("fig15", fast=True, n_min=8, n_max=12)
        ns = [n for n, _ in result.series["fraction_unsynchronized_by_n"]]
        assert ns == list(range(8, 13))

    def test_cheap_figures_run(self):
        # The analytic figures are fast enough to run outright in tests.
        for figure_id in ("fig09", "fig12", "fig13", "fig14", "fig15"):
            result = run_figure(figure_id, fast=True)
            assert result.figure_id == figure_id
            assert result.series

    def test_jobs_ignored_for_non_parallel_figures(self):
        # fig09 is analytic; jobs/cache must not reach its driver.
        result = run_figure("fig09", fast=True, jobs=4)
        assert result.figure_id == "fig09"

    def test_jobs_and_cache_reach_parallel_figures(self, tmp_path):
        from repro.parallel import ResultCache

        cache = ResultCache(tmp_path)
        result = run_figure(
            "fig10", fast=True, jobs=2, cache=cache,
            horizon=2e4, seeds=(1, 2),
        )
        assert result.figure_id == "fig10"
        assert len(cache) == 2  # one entry per seed


class TestTopologyFigures:
    def test_fig16_end_to_end_through_runner_and_cache(self, tmp_path):
        from repro.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(fast=True, jobs=2, cache=cache, seeds=(1,))
        first = run_figure("fig16", **kwargs)
        assert first.figure_id == "fig16"
        assert len(cache) > 0
        entries = len(cache)
        again = run_figure("fig16", **kwargs)
        assert len(cache) == entries  # fully cache-served
        assert again.metrics == first.metrics
        # Sparse couplings synchronize, but slower than the clique.
        assert first.metrics["synced_fraction[ring]"] == 1.0
        assert first.metrics["slowdown_vs_clique_at_n_max[ring]"] > 1.0

    def test_fig17_onset_tracks_connectivity(self):
        result = run_figure("fig17", fast=True, jobs=2)
        assert result.metrics["onset_fraction_low_p"] == 0.0
        assert result.metrics["onset_fraction_high_p"] == 1.0
        degrees = [d for d, _ in result.series["synced_fraction_by_mean_degree"]]
        assert min(degrees) <= result.metrics["onset_mean_degree"] <= max(degrees)

    def test_fig18_dv_agrees_with_abstract_model(self):
        # The acceptance point: live RIP traffic on one LAN reproduces
        # the abstract model's sync time at N=5 within the seed spread.
        result = run_figure("fig18", fast=True, jobs=2)
        assert result.metrics["points_in_abstract_spread"] >= 1
        assert 0.5 <= result.metrics["dv_over_abstract_mean[n=5]"] <= 2.0

    def test_topology_override_reaches_fig10_only(self, tmp_path):
        from repro.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        result = run_figure(
            "fig10", fast=True, jobs=2, cache=cache,
            horizon=2e4, seeds=(1, 2), topology="ring",
        )
        assert any("topology='ring'" in note for note in result.notes)
        # Analytic figures silently ignore the override.
        assert run_figure("fig09", fast=True, topology="ring").series

    def test_invalid_topology_rejected_before_running(self):
        with pytest.raises(ValueError):
            run_figure("fig10", topology="moebius")


class TestCli:
    def test_list_prints_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig18" in out

    def test_single_figure_runs(self, capsys):
        assert main(["fig09", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Markov chain" in out

    def test_unknown_target_errors(self, capsys):
        assert main(["fig99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["campaign", "--help"]) == 0
        assert "SPEC" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig04"])
        assert args.target == "fig04"
        assert args.fast is False
        assert args.max_points == 25
        assert args.jobs is None
        assert args.no_cache is False

    def test_parser_parallel_flags(self):
        args = build_parser().parse_args(["fig10", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True

    def test_figure_honours_cache_root(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        root = tmp_path / "topo-cache"
        assert main(["fig16", "--fast", "--jobs", "1", "--cache-root", str(root)]) == 0
        assert list(root.glob("*.json"))
        assert not (tmp_path / "results" / "cache").exists()

    def test_invalid_jobs_errors(self, capsys):
        assert main(["fig09", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err
        assert main(["fig09", "--jobs", "x"]) == 2
        assert "argument --jobs: invalid int value: 'x'" in capsys.readouterr().err

    def test_parser_topology_flag(self):
        args = build_parser().parse_args(["fig10", "--topology", "ring"])
        assert args.topology == "ring"
        assert build_parser().parse_args(["fig10"]).topology is None

    def test_invalid_topology_errors(self, capsys):
        assert main(["fig10", "--topology", "moebius"]) == 2
        assert "topology" in capsys.readouterr().err
        # A valid spec the engine cannot model fails when the figure runs.
        assert main(["fig10", "--fast", "--engine", "des", "--topology", "ring"]) == 2
        assert "topology 'ring'" in capsys.readouterr().err

    def test_bench_target_prints_table(self, capsys, monkeypatch, tmp_path):
        import repro.parallel as parallel

        real_run_benchmark = parallel.run_benchmark

        def tiny_bench(jobs=None, output=None, **kwargs):
            return real_run_benchmark(
                jobs=jobs or 1,
                horizon=2e4,
                seeds=(1, 2),
                cache_root=tmp_path / "cache",
                output=tmp_path / "BENCH_parallel.json",
            )

        monkeypatch.setattr(parallel, "run_benchmark", tiny_bench)
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert (tmp_path / "BENCH_parallel.json").exists()


class TestServingCli:
    def test_parser_serving_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8793
        assert args.queue_depth == 64
        assert args.deadline is None
        args = build_parser().parse_args(
            ["loadgen", "--clients", "8", "--duration", "3", "--real-time"]
        )
        assert args.clients == 8
        assert args.duration == 3.0
        assert args.real_time is True

    def test_bench_obs_and_serve_mutually_exclusive(self, capsys):
        assert main(["bench", "--obs", "--serve"]) == 2
        assert "argument --serve: not allowed with argument --obs" in (
            capsys.readouterr().err
        )

    def test_loadgen_against_a_live_server(self, capsys, tmp_path):
        from repro.serve import BackgroundServer, ServeConfig

        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        with BackgroundServer(config) as bg:
            code = main(
                [
                    "loadgen",
                    "--port",
                    str(bg.port),
                    "--clients",
                    "2",
                    "--period",
                    "0.5",
                    "--load-jitter",
                    "0.25",
                    "--duration",
                    "1",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "payloads identical per job: yes" in out

    def test_loadgen_unreachable_server_errors(self, capsys, tmp_path):
        # A port from the dynamic range with nothing listening.
        assert main(["loadgen", "--port", "1", "--duration", "1"]) == 2
        assert "cannot reach server" in capsys.readouterr().err
