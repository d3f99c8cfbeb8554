"""Tests for the first-passage runners and sweep helpers.

These use small N and short horizons so the suite stays fast; the
full-scale behaviour is exercised by the benchmarks.
"""

import pytest

from repro.core import (
    RouterTimingParameters,
    SweepResult,
    sweep_nodes,
    sweep_tr,
    time_to_break_up,
    time_to_synchronize,
)

# Deliberately synchronization-prone: Tc > 2 Tr means clusters never
# break up, and the small Tp keeps offsets dense, so small systems
# synchronize within short horizons and the suite stays fast.
BASE = RouterTimingParameters(n_nodes=6, tp=20.0, tc=0.3, tr=0.1)


class TestFirstPassageRunners:
    def test_time_to_synchronize_small_system(self):
        # Small Tp -> dense offsets -> fast clustering.
        time = time_to_synchronize(BASE, horizon=20000.0, seed=1)
        assert time is not None
        assert 0 < time <= 20000.0

    def test_time_to_synchronize_none_when_horizon_too_short(self):
        strongly_random = BASE.with_tr(5.0)
        time = time_to_synchronize(strongly_random, horizon=100.0, seed=1)
        assert time is None

    def test_time_to_break_up_with_strong_randomization(self):
        strongly_random = BASE.with_tr(2.0)  # Tr ~ 6.7 Tc
        time = time_to_break_up(strongly_random, horizon=50000.0, seed=1)
        assert time is not None

    def test_time_to_break_up_none_with_weak_randomization(self):
        # Tr < Tc/2: the head of a cluster can never escape, so a
        # synchronized start stays synchronized forever.
        weakly_random = BASE.with_tr(0.1)
        time = time_to_break_up(weakly_random, horizon=5000.0, seed=1)
        assert time is None


class TestSweeps:
    def test_sweep_tr_shapes(self):
        results = sweep_tr(BASE, [0.1, 2.0], horizon=5000.0, seeds=(1, 2))
        assert len(results) == 4
        assert {r.parameter for r in results} == {0.1, 2.0}
        assert {r.seed for r in results} == {1, 2}
        for r in results:
            assert isinstance(r, SweepResult)
            assert r.horizon == 5000.0

    def test_sweep_result_rounds(self):
        result = SweepResult(parameter=0.1, seed=1, time=202.2, horizon=1e4)
        assert result.occurred
        assert result.rounds(20.11) == pytest.approx(202.2 / 20.11)
        missing = SweepResult(parameter=0.1, seed=1, time=None, horizon=1e4)
        assert not missing.occurred
        assert missing.rounds(20.11) is None

    def test_sweep_direction_validation(self):
        with pytest.raises(ValueError):
            sweep_tr(BASE, [0.1], horizon=10.0, direction="sideways")
        with pytest.raises(ValueError):
            sweep_nodes(BASE, [2], horizon=10.0, direction="sideways")

    def test_sweep_engine_validation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            sweep_tr(BASE, [0.1], horizon=10.0, engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            sweep_nodes(BASE, [2], horizon=10.0, engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            time_to_synchronize(BASE, horizon=10.0, engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            time_to_break_up(BASE, horizon=10.0, engine="warp")

    def test_sweep_engines_agree(self):
        cascade = sweep_tr(BASE, [0.1, 2.0], horizon=5000.0, seeds=(1,))
        des = sweep_tr(BASE, [0.1, 2.0], horizon=5000.0, seeds=(1,), engine="des")
        assert cascade == des

    def test_sweep_nodes_runs(self):
        results = sweep_nodes(BASE, [2, 6], horizon=2000.0)
        assert [int(r.parameter) for r in results] == [2, 6]
