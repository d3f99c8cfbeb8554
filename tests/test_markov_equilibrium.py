"""Tests for equilibrium analysis and phase-transition quantification."""

import pytest

from repro.core import RouterTimingParameters
from repro.markov import (
    classify_randomization,
    estimate_f2_diffusion,
    fraction_unsynchronized_sweep,
    fraction_unsynchronized_vs_nodes,
    stationary_fraction_below,
    synchronization_times,
    transition_sharpness,
)

PAPER = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)
TC = 0.11


class TestClassification:
    def test_low_randomization(self):
        region = classify_randomization(PAPER.with_tr(0.5 * TC), f2=19.0)
        assert region.region == "low"

    def test_high_randomization(self):
        region = classify_randomization(PAPER.with_tr(4.0 * TC), f2=19.0)
        assert region.region == "high"

    def test_moderate_randomization(self):
        region = classify_randomization(PAPER.with_tr(2.0 * TC), f2=19.0)
        assert region.region == "moderate"

    def test_ten_tc_rule(self):
        # "choosing Tr at least ten times greater than Tc ensures that
        # clusters of routing messages will be quickly broken up"
        region = classify_randomization(PAPER.with_tr(10 * TC), f2=19.0)
        assert region.region == "high"
        assert region.rounds_to_break_up < 1000

    def test_half_tp_rule(self):
        # "choosing Tr as Tp/2 should eliminate any synchronization"
        region = classify_randomization(PAPER.with_tr(PAPER.tp / 2), f2=19.0)
        assert region.region == "high"


class TestFig14Sweep:
    def test_transition_is_sharp_in_tr(self):
        tr_values = [m * TC for m in [1.0 + 0.05 * k for k in range(31)]]  # 1.0..2.5 Tc
        curve = fraction_unsynchronized_sweep(PAPER, tr_values)
        fractions = [f for _, f in curve]
        assert fractions[0] < 0.01  # predominately synchronized at Tr = Tc
        assert fractions[-1] > 0.99  # predominately unsynchronized at 2.5 Tc
        width = transition_sharpness(curve)
        assert width < 0.5 * TC  # transition spans well under half a Tc

    def test_monotone_nondecreasing(self):
        tr_values = [m * TC for m in (1.0, 1.5, 2.0, 2.2, 2.5)]
        curve = fraction_unsynchronized_sweep(PAPER, tr_values, f2=19.0)
        fractions = [f for _, f in curve]
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))


class TestFig15Sweep:
    def test_transition_is_sharp_in_n(self):
        params = PAPER.with_tr(0.3)
        curve = fraction_unsynchronized_vs_nodes(params, range(5, 31))
        fractions = dict(curve)
        assert fractions[5] > 0.99  # small nets stay unsynchronized
        assert fractions[30] < 0.01  # large nets synchronize
        # The fall from >0.9 to <0.1 happens within a few routers.
        falling = [n for n, f in curve if 0.1 < f < 0.9]
        assert len(falling) <= 3

    def test_adding_one_router_can_flip_the_network(self):
        params = PAPER.with_tr(0.3)
        curve = dict(fraction_unsynchronized_vs_nodes(params, range(5, 31)))
        biggest_single_step = max(
            curve[n] - curve[n + 1] for n in range(5, 30)
        )
        assert biggest_single_step > 0.4


class TestStationaryFraction:
    def test_agrees_with_passage_time_estimator_in_extremes(self):
        # stationary_fraction_below solves the chain with numpy.
        pytest.importorskip("numpy")
        low = synchronization_times(PAPER.with_tr(0.5 * TC), f2=19.0)
        assert stationary_fraction_below(low, 2) < 0.05
        high = synchronization_times(PAPER.with_tr(4.0 * TC), f2=19.0)
        assert stationary_fraction_below(high, 2) > 0.9

    def test_threshold_validation(self):
        times = synchronization_times(PAPER, f2=19.0)
        with pytest.raises(ValueError):
            stationary_fraction_below(times, 0)
        with pytest.raises(ValueError):
            stationary_fraction_below(times, 21)


class TestTransitionSharpness:
    def test_step_curve_has_zero_width(self):
        curve = [(0.0, 0.0), (1.0, 0.0), (1.0001, 1.0), (2.0, 1.0)]
        assert transition_sharpness(curve) == pytest.approx(0.0001)

    def test_decreasing_curve_supported(self):
        curve = [(0.0, 1.0), (1.0, 1.0), (1.5, 0.0), (2.0, 0.0)]
        assert transition_sharpness(curve) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            transition_sharpness([(0.0, 0.5)])
        with pytest.raises(ValueError):
            transition_sharpness([(0.0, 0.4), (1.0, 0.6)])  # never spans band
        with pytest.raises(ValueError):
            transition_sharpness([(0.0, 0.0), (1.0, 1.0)], low=0.9, high=0.1)


class TestDiffusionEstimate:
    def test_order_of_magnitude_for_paper_parameters(self):
        # The paper fits f(2) = 19 rounds; the diffusion estimate must
        # land within an order of magnitude.
        f2 = estimate_f2_diffusion(PAPER)
        assert 2.0 <= f2 <= 190.0

    def test_infinite_without_randomness(self):
        import math

        assert math.isinf(estimate_f2_diffusion(PAPER.with_tr(0.0)))

    def test_instant_when_offsets_start_dense(self):
        dense = RouterTimingParameters(n_nodes=40, tp=121.0, tc=0.11, tr=0.1)
        assert estimate_f2_diffusion(dense) == 1.0

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            estimate_f2_diffusion(PAPER.with_nodes(1))
