"""Tests for the coherence helpers through the ``repro.analysis`` package."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import offsets_to_phases, order_parameter


class TestCoherence:
    def test_identical_phases_give_r_one(self):
        assert order_parameter([1.3] * 10) == pytest.approx(1.0)

    def test_uniform_phases_give_r_zero(self):
        phases = [2 * math.pi * i / 8 for i in range(8)]
        assert order_parameter(phases) == pytest.approx(0.0, abs=1e-9)

    def test_offsets_to_phases_wraps_period(self):
        phases = offsets_to_phases([0.0, 60.5, 121.0], 121.0)
        assert phases[0] == pytest.approx(0.0)
        assert phases[1] == pytest.approx(math.pi)
        assert phases[2] == pytest.approx(0.0)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            order_parameter([])
        with pytest.raises(ValueError):
            offsets_to_phases([1.0], 0.0)

    @given(st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_r_in_unit_interval(self, phases):
        assert 0.0 <= order_parameter(phases) <= 1.0 + 1e-12
