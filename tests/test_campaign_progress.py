"""Unit tests for campaign progress: the decayed rate, ETA, and events.

Everything runs on an injected fake clock, so the EMA folding, the
event throttle, and the ETA arithmetic are checked exactly — no
sleeps, no wall-clock flakiness.
"""

import math

import pytest

from repro.campaign import CampaignProgress, format_eta
from repro.campaign.progress import EVENT_INTERVAL, RATE_TAU


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def progress(total=100, **overrides):
    clock = FakeClock()
    kwargs = dict(total=total, label="t shard 0/1", clock=clock)
    kwargs.update(overrides)
    return CampaignProgress(**kwargs), clock


class TestFormatEta:
    @pytest.mark.parametrize(
        "seconds,text",
        [
            (None, "?"),
            (float("inf"), "?"),
            (float("nan"), "?"),
            (-3.0, "0s"),
            (12.0, "12s"),
            (200.0, "3m20s"),
            (3840.0, "1h04m"),
        ],
    )
    def test_rendering(self, seconds, text):
        assert format_eta(seconds) == text


class TestRateAndEta:
    def test_first_advance_sets_the_instantaneous_rate(self):
        p, clock = progress()
        p.start()
        clock.tick(2.0)
        p.advance(executed=10)
        assert p.rate == pytest.approx(5.0)
        assert p.eta == pytest.approx(90 / 5.0)

    def test_rate_decays_on_elapsed_time_not_update_count(self):
        p, clock = progress(total=1000)
        p.start()
        clock.tick(1.0)
        p.advance(executed=10)  # 10 jobs/s
        clock.tick(1.0)
        p.advance(executed=2)  # instantaneous 2 jobs/s
        alpha = 1.0 - math.exp(-1.0 / RATE_TAU)
        assert p.rate == pytest.approx((1 - alpha) * 10.0 + alpha * 2.0)

    def test_long_gap_forgets_the_old_rate(self):
        p, clock = progress(total=1000)
        p.start()
        clock.tick(1.0)
        p.advance(executed=100)  # 100 jobs/s burst
        clock.tick(100 * RATE_TAU)  # far beyond the memory
        p.advance(executed=1)
        assert p.rate == pytest.approx(1.0 / (100 * RATE_TAU), rel=1e-6)

    def test_zero_retired_is_a_no_op(self):
        p, clock = progress()
        p.start()
        clock.tick(5.0)
        p.advance()
        assert p.done == 0 and p.rate is None
        assert p.eta is None

    def test_eta_zero_when_done_without_a_rate(self):
        p, _clock = progress(total=0)
        p.start()
        assert p.eta == 0.0

    def test_counts_split_by_kind_but_all_retire(self):
        p, clock = progress(total=10)
        p.start()
        clock.tick(1.0)
        p.advance(executed=2, cached=4)
        assert (p.executed, p.cached, p.done) == (2, 4, 6)
        assert p.remaining == 4
        snap = p.snapshot()
        assert snap["done"] == 6 and snap["total"] == 10

    def test_elapsed_follows_the_injected_clock(self):
        p, clock = progress()
        p.start()
        clock.tick(3.0)
        p.advance(executed=1)
        assert p.elapsed == pytest.approx(3.0)


class TestConsoleAndThrottle:
    def test_events_throttled_to_the_interval(self):
        lines = []
        p, clock = progress(total=100, console=lines.append)
        p.start()
        for _ in range(5):
            clock.tick(EVENT_INTERVAL / 10)
            p.advance(executed=1)
        # First advance emits; the rest land inside the throttle window.
        assert len(lines) == 1
        clock.tick(EVENT_INTERVAL)
        p.advance(executed=1)
        assert len(lines) == 2

    def test_finish_forces_a_final_line(self):
        lines = []
        p, clock = progress(total=2, console=lines.append)
        p.start()
        clock.tick(0.5)
        p.advance(executed=2)
        p.finish()  # inside the throttle window, but forced
        assert len(lines) == 2
        assert "2/2 (100%)" in lines[-1]

    def test_render_shape(self):
        p, clock = progress(total=4)
        p.start()
        clock.tick(1.0)
        p.advance(executed=1)
        line = p.render()
        assert line.startswith("t shard 0/1 1/4 (25%)")
        assert "jobs/s eta" in line
