"""Direct unit tests for repro.analysis.coherence.

The Kuramoto order parameter is the secondary synchronization
diagnostic (the paper's own measure is cluster size); these pin its
analytic anchor cases so the figure drivers can lean on it.
"""

import math

import pytest

from repro.analysis.coherence import offsets_to_phases, order_parameter


class TestOffsetsToPhases:
    def test_maps_linearly_onto_the_circle(self):
        phases = offsets_to_phases([0.0, 30.0, 60.0, 90.0], period=120.0)
        assert phases == pytest.approx(
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        )

    def test_offsets_wrap_modulo_the_period(self):
        assert offsets_to_phases([121.0], period=121.0) == pytest.approx([0.0])
        assert offsets_to_phases([130.0], period=120.0) == pytest.approx(
            offsets_to_phases([10.0], period=120.0)
        )

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            offsets_to_phases([1.0], period=0.0)


class TestOrderParameter:
    def test_identical_phases_give_one(self):
        assert order_parameter([0.7] * 10) == pytest.approx(1.0)

    def test_uniformly_spread_phases_give_zero(self):
        n = 8
        phases = [2 * math.pi * k / n for k in range(n)]
        assert order_parameter(phases) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_pair_cancels(self):
        assert order_parameter([0.0, math.pi]) == pytest.approx(0.0, abs=1e-12)

    def test_two_equal_clusters_at_right_angles(self):
        # Half at phase 0, half at pi/2: R = |(1 + i)/2| = 1/sqrt(2).
        phases = [0.0] * 5 + [math.pi / 2] * 5
        assert order_parameter(phases) == pytest.approx(1 / math.sqrt(2))

    def test_is_bounded_and_rotation_invariant(self):
        phases = [0.1, 0.9, 2.4, 4.0, 5.5]
        r = order_parameter(phases)
        assert 0.0 <= r <= 1.0
        shifted = [(p + 1.234) % (2 * math.pi) for p in phases]
        assert order_parameter(shifted) == pytest.approx(r)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            order_parameter([])
