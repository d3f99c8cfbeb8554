"""Tests for the seeded load generator and the loopback report."""

import os

import pytest

from repro.parallel import SimulationJob
from repro.serve import (
    BackgroundServer,
    LoadPlan,
    ServeClient,
    ServeConfig,
    build_schedule,
    default_specs,
    format_report,
    run_load,
)


class TestLoadPlan:
    def test_defaults_validate(self):
        plan = LoadPlan()
        assert plan.clients == 4 and len(plan.specs) == 4

    def test_specs_are_validated_up_front(self):
        with pytest.raises((ValueError, TypeError)):
            LoadPlan(specs=({"junk": 1},))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clients": 0},
            {"period": 0},
            {"jitter": -0.1},
            {"jitter": 2.0, "period": 1.0},
            {"duration": 0},
            {"specs": ()},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadPlan(**kwargs)


class TestBuildSchedule:
    def test_same_plan_same_schedule(self):
        plan = LoadPlan(clients=3, duration=20.0, seed=9)
        assert build_schedule(plan) == build_schedule(plan)

    def test_different_seed_different_schedule(self):
        base = LoadPlan(clients=3, duration=20.0, seed=9)
        other = LoadPlan(clients=3, duration=20.0, seed=10)
        assert build_schedule(base) != build_schedule(other)

    def test_intervals_respect_the_papers_jitter_rule(self):
        plan = LoadPlan(clients=2, period=1.0, jitter=0.25, duration=50.0)
        ticks = build_schedule(plan)
        per_client = {}
        for tick in ticks:
            per_client.setdefault(tick.client, []).append(tick.time)
        for times in per_client.values():
            assert times[0] < plan.period  # unsynchronized start
            for earlier, later in zip(times, times[1:]):
                gap = later - earlier
                # uniform on [Tp - Tr, Tp + Tr]
                assert plan.period - plan.jitter <= gap <= plan.period + plan.jitter

    def test_schedule_is_time_ordered_and_rotates_specs(self):
        plan = LoadPlan(clients=3, duration=10.0)
        ticks = build_schedule(plan)
        assert all(
            a.time <= b.time for a, b in zip(ticks, ticks[1:])
        )
        for tick in ticks:
            assert tick.spec_index == (tick.client + tick.seq) % len(plan.specs)


class TestRunLoad:
    def test_virtual_load_reports_and_is_byte_stable(self, tmp_path):
        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        plan = LoadPlan(
            clients=3,
            period=0.2,
            jitter=0.1,
            duration=1.0,
            seed=5,
            specs=default_specs(count=2, horizon=1500.0),
        )
        with BackgroundServer(config) as bg:
            first = run_load(plan, bg.host, bg.port)
            second = run_load(plan, bg.host, bg.port)

        assert first["requests"] > 0
        assert set(first["by_status"]) == {"200"}
        assert first["identical_payloads_per_key"]
        assert first["latency_seconds"]["count"] == first["requests"]
        # Seeded plan + warm server -> the same payload bytes per job,
        # run over run (the determinism acceptance criterion).
        assert second["payload_sha256"] == first["payload_sha256"]
        # Every distinct job hashed exactly once in the report.
        keys = {
            SimulationJob.from_dict(spec).cache_key()
            for spec in plan.specs
        }
        assert set(first["payload_sha256"]) <= keys
        # The second pass is answered entirely from cache.
        assert second["server"]["jobs_executed"] == 0
        assert second["server"]["cache_hits"] > 0

    def test_format_report_mentions_the_load_shape(self, tmp_path):
        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        plan = LoadPlan(
            clients=2,
            period=0.5,
            jitter=0.25,
            duration=1.0,
            specs=default_specs(count=1, horizon=1500.0),
        )
        with BackgroundServer(config) as bg:
            report = run_load(plan, bg.host, bg.port)
        text = format_report(report)
        assert "2 client(s)" in text
        assert "payloads identical per job: yes" in text


class TestFleetDeltas:
    """``/metrics`` answers from whichever worker took the connection,
    so the before/after deltas are only one worker's when both probes
    reached the same pid."""

    @staticmethod
    def run_stubbed(monkeypatch, pids):
        import repro.serve.loadgen as loadgen

        snapshots = iter(
            {"pid": pid, "serve": {"serve.jobs.cache_hits": {"value": hits}}}
            for pid, hits in zip(pids, (3.0, 7.0))
        )

        class StubProbe:
            def __init__(self, host, port, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def metrics(self):
                return next(snapshots)

        monkeypatch.setattr(loadgen, "ServeClient", StubProbe)
        monkeypatch.setattr(loadgen, "_run_virtual", lambda *args: ([], 0))
        plan = LoadPlan(clients=1, duration=1.0, specs=default_specs(count=1))
        return run_load(plan, "127.0.0.1", 1)

    def test_one_worker_reports_its_pid_and_deltas(self, monkeypatch):
        report = self.run_stubbed(monkeypatch, (4242, 4242))
        assert report["server"]["pid"] == 4242
        assert report["server"]["cache_hits"] == 4.0
        assert "server (worker pid 4242): executed 0 job(s), 4 cache hit(s)" in (
            format_report(report)
        )

    def test_probes_on_different_workers_report_no_deltas(self, monkeypatch):
        report = self.run_stubbed(monkeypatch, (4242, 4343))
        assert report["server"] is None
        assert "server: no deltas" in format_report(report)
        assert "reached different workers" in format_report(report)

    def test_metrics_names_the_answering_worker(self, tmp_path):
        config = ServeConfig(port=0, cache_root=str(tmp_path / "cache"))
        with BackgroundServer(config) as bg:
            with ServeClient(bg.host, bg.port) as probe:
                body = probe.metrics()
        # BackgroundServer runs in this process; "serve" stays as is.
        assert body["pid"] == os.getpid()
        assert "serve" in body and "obs" in body
