"""Tests for timer policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DistinctPeriodTimer,
    FixedTimer,
    RecommendedJitterTimer,
    UniformJitterTimer,
)
from repro.rng import RandomSource


@pytest.fixture
def rng():
    return RandomSource(seed=11)


class TestUniformJitterTimer:
    def test_intervals_within_band(self, rng):
        timer = UniformJitterTimer(tp=121.0, tr=0.1)
        for _ in range(1000):
            interval = timer.interval(rng, 0)
            assert 120.9 <= interval <= 121.1

    def test_mean_interval(self):
        assert UniformJitterTimer(121.0, 0.1).mean_interval == 121.0

    def test_zero_tr_is_deterministic(self, rng):
        timer = UniformJitterTimer(30.0, 0.0)
        assert timer.interval(rng, 0) == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformJitterTimer(0.0, 0.0)
        with pytest.raises(ValueError):
            UniformJitterTimer(10.0, 11.0)
        with pytest.raises(ValueError):
            UniformJitterTimer(10.0, -1.0)

    @given(tp=st.floats(1.0, 1000.0), frac=st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_band_property(self, tp, frac):
        tr = tp * frac
        timer = UniformJitterTimer(tp, tr)
        rng = RandomSource(seed=3)
        interval = timer.interval(rng, 0)
        assert tp - tr <= interval <= tp + tr


class TestFixedTimer:
    def test_always_exact(self, rng):
        timer = FixedTimer(90.0)
        assert all(timer.interval(rng, 0) == 90.0 for _ in range(10))


class TestRecommendedJitterTimer:
    def test_band_is_half_to_three_halves(self, rng):
        timer = RecommendedJitterTimer(30.0)
        values = [timer.interval(rng, 0) for _ in range(2000)]
        assert all(15.0 <= v <= 45.0 for v in values)
        # The band is actually exercised, not just a point.
        assert max(values) - min(values) > 20.0

    def test_mean(self):
        assert RecommendedJitterTimer(30.0).mean_interval == 30.0


class TestDistinctPeriodTimer:
    def test_per_node_periods(self, rng):
        timer = DistinctPeriodTimer([10.0, 20.0, 30.0])
        assert timer.interval(rng, 0) == 10.0
        assert timer.interval(rng, 1) == 20.0
        assert timer.interval(rng, 2) == 30.0

    def test_node_ids_wrap(self, rng):
        timer = DistinctPeriodTimer([10.0, 20.0])
        assert timer.interval(rng, 2) == 10.0

    def test_evenly_spread(self, rng):
        timer = DistinctPeriodTimer.evenly_spread(100.0, 5, spread=0.1)
        periods = [timer.interval(rng, k) for k in range(5)]
        assert periods[0] == pytest.approx(90.0)
        assert periods[-1] == pytest.approx(110.0)
        assert len(set(periods)) == 5

    def test_evenly_spread_single_node(self, rng):
        timer = DistinctPeriodTimer.evenly_spread(100.0, 1)
        assert timer.interval(rng, 0) == 100.0

    def test_mean_interval(self):
        assert DistinctPeriodTimer([10.0, 30.0]).mean_interval == 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DistinctPeriodTimer([])
        with pytest.raises(ValueError):
            DistinctPeriodTimer([10.0, -1.0])
