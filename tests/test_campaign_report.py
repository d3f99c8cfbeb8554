"""Tests for campaign reports: cache-only assembly and byte stability.

The report is the campaign's product; the invariants pinned here are
(a) it reads the cache and nothing else, (b) censored and missing
seeds are accounted distinctly, and (c) the canonical serialization
is byte-stable — the surface the cross-dispatcher acceptance tests
compare.
"""

import pytest

from repro.campaign import (
    CampaignSpec,
    LocalDispatcher,
    build_report,
    format_report,
    plot_report,
    report_json,
    run_campaign,
    write_report,
)
from repro.parallel import ResultCache


def spec(**overrides):
    # Tr axis mixes a synchronization-prone value (0.1 < Tc/2) with a
    # strongly random one (5.0) that censors at this horizon, so the
    # report always carries both observed and censored seeds.
    base = dict(
        name="report-study",
        n_nodes=6,
        tp=20.0,
        tc=0.3,
        tr=(0.1, 5.0),
        seed_count=3,
        horizon=20000.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


@pytest.fixture
def completed(tmp_path):
    """One fully executed campaign and its cache."""
    s = spec()
    cache = ResultCache(tmp_path / "cache")
    run_campaign(
        s,
        dispatcher=LocalDispatcher(),
        cache=cache,
        checkpoint_root=tmp_path / "ckpt",
    )
    return s, cache


class TestBuildReport:
    def test_rows_follow_canonical_point_order(self, completed):
        s, cache = completed
        report = build_report(s, cache)
        assert [row["tr"] for row in report["rows"]] == [0.1, 5.0]
        assert report["complete"] is True
        assert report["missing"] == 0
        assert report["total_jobs"] == s.total_jobs
        assert report["campaign_id"] == s.campaign_id()
        assert report["spec"] == s.to_dict()

    def test_observed_and_censored_split(self, completed):
        s, cache = completed
        rows = build_report(s, cache)["rows"]
        synced, random = rows
        assert synced["observed"] == 3 and synced["censored"] == 0
        assert random["observed"] == 0 and random["censored"] == 3
        assert all(t is not None for t in synced["terminal_times"])
        assert random["terminal_times"] == [None, None, None]
        assert random["mean"] is None and random["median"] is None

    def test_summary_statistics_over_observed_times(self, completed):
        s, cache = completed
        row = build_report(s, cache)["rows"][0]
        times = sorted(row["terminal_times"])
        assert row["min"] == times[0] and row["max"] == times[-1]
        assert row["median"] == times[1]
        assert row["mean"] == pytest.approx(sum(times) / 3)

    def test_arrays_align_with_rows(self, completed):
        s, cache = completed
        report = build_report(s, cache)
        arrays = report["arrays"]
        for key in ("n_nodes", "tp", "tc", "tr", "mean", "median", "censored"):
            assert arrays[key] == [row[key] for row in report["rows"]]

    def test_missing_entries_counted_and_flagged(self, tmp_path):
        s = spec()
        report = build_report(s, ResultCache(tmp_path / "empty"))
        assert report["complete"] is False
        assert report["missing"] == s.total_jobs
        assert all(row["mean"] is None for row in report["rows"])

    def test_partial_cache_mixes_missing_and_observed(self, tmp_path):
        s = spec()
        cache = ResultCache(tmp_path / "cache")
        # Commit one job at a time, so each entry is a file of its own.
        run_campaign(
            s,
            dispatcher=LocalDispatcher(),
            cache=cache,
            checkpoint_root=tmp_path / "ckpt",
            chunk_size=1,
        )
        # Drop one entry: the report must degrade that one seed to
        # missing, not fail or miscount.
        victim = next(iter(s.jobs()))
        cache.path_for(victim).unlink()
        report = build_report(s, cache)
        assert report["missing"] == 1
        assert report["complete"] is False
        assert report["rows"][0]["missing"] == 1
        assert report["rows"][0]["observed"] == 2


class TestSerialization:
    def test_report_json_is_byte_stable(self, completed):
        s, cache = completed
        first = report_json(build_report(s, cache))
        again = report_json(build_report(s, cache))
        assert first == again
        assert first.endswith("\n")

    def test_write_report_round_trips(self, completed, tmp_path):
        import json

        s, cache = completed
        report = build_report(s, cache)
        target = write_report(report, tmp_path / "out" / "report.json")
        assert json.loads(target.read_text()) == report

    def test_format_report_table_shape(self, completed):
        s, cache = completed
        text = format_report(build_report(s, cache))
        lines = text.splitlines()
        assert lines[0].startswith(f"campaign {s.campaign_id()}")
        assert "complete=true" in lines[0]
        assert len(lines) == 2 + s.point_count  # header + axis line + rows
        assert "-" in lines[-1]  # the censored row renders dashes


def synthetic_report(rows, direction="up"):
    """A minimal report dict for plot tests (plot_report reads only
    rows, spec.direction, campaign_id, name, complete)."""
    return {
        "campaign_id": "c" * 16,
        "name": "synthetic",
        "complete": True,
        "spec": {"direction": direction},
        "rows": rows,
    }


def synthetic_row(n, tr, mean, censored=0, seeds=4, tp=20.0, tc=0.3):
    return {
        "n_nodes": n, "tp": tp, "tc": tc, "tr": tr,
        "seeds": seeds, "censored": censored, "mean": mean,
    }


class TestPlotReport:
    def test_tr_study_draws_fig12_and_fig14_shapes(self, completed):
        s, cache = completed
        text = plot_report(build_report(s, cache))
        assert text.startswith(f"campaign {s.campaign_id()}")
        # Tr varies: one (N, Tp, Tc) group, two curves in the
        # figures' own coordinates.
        assert "mean sync time vs Tr (s)" in text
        assert "censored fraction vs Tr (s)" in text
        assert "log10 mean sync time (s)" in text
        assert "N=6 Tp=20 Tc=0.3" in text

    def test_n_study_plots_against_n(self):
        rows = [
            synthetic_row(n, 0.1, mean=1000.0 / n) for n in (4, 8, 16)
        ]
        text = plot_report(synthetic_report(rows))
        assert "vs N" in text
        assert "Tp=20 Tc=0.3 Tr=0.1" in text

    def test_down_study_names_the_breakup_event(self):
        rows = [synthetic_row(4, tr, mean=50.0) for tr in (0.1, 0.5)]
        text = plot_report(synthetic_report(rows, direction="down"))
        assert "mean break-up time vs Tr (s)" in text

    def test_group_flood_is_truncated_not_drawn(self):
        rows = [
            synthetic_row(n, tr, mean=100.0 * n)
            for n in (2, 3, 4, 5, 6, 7)
            for tr in (0.1, 0.5)
        ]
        text = plot_report(synthetic_report(rows))
        assert "2 more group(s) not drawn" in text

    def test_unplottable_series_degrades_to_a_note(self):
        # All means censored away: the log plot has no points.
        rows = [
            synthetic_row(4, tr, mean=None, censored=4) for tr in (0.1, 0.5)
        ]
        text = plot_report(synthetic_report(rows))
        assert "not plottable" in text
        # The censored-fraction curve still draws.
        assert "censored fraction vs Tr (s)" in text
