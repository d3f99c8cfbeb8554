"""Tests for the phase-boundary finder."""

import pytest

from repro.core import RouterTimingParameters
from repro.markov import critical_tr, fraction_unsynchronized_at

PAPER = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)


class TestCriticalTr:
    def test_matches_fig14_transition_center(self):
        tr_star = critical_tr(PAPER)
        assert 1.8 * PAPER.tc <= tr_star <= 2.3 * PAPER.tc

    def test_crossing_property(self):
        tr_star = critical_tr(PAPER)
        below = fraction_unsynchronized_at(PAPER.with_tr(tr_star * 0.9))
        above = fraction_unsynchronized_at(PAPER.with_tr(tr_star * 1.1))
        assert below < 0.5 < above

    def test_larger_networks_need_more_jitter(self):
        small = critical_tr(PAPER.with_nodes(10))
        large = critical_tr(PAPER.with_nodes(30))
        assert large > small

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            critical_tr(PAPER, tr_low=0.5, tr_high=0.1)
        # A bracket entirely in the synchronized region cannot span.
        with pytest.raises(ValueError):
            critical_tr(PAPER, tr_low=0.06, tr_high=0.08)

    def test_zero_tc_rejected(self):
        with pytest.raises(ValueError):
            critical_tr(RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.0, tr=0.0))
