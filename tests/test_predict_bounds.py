"""Tests for the honesty layer: bounds, validity region, verification.

The per-cell bound formula (holdout bias + 4 SEM + floor), the phase
test the validity region is cut on, and the fresh-seed audit that the
``bench --predict`` / CI acceptance gates key on.
"""

import math

import pytest

from repro.core.parameters import RouterTimingParameters
from repro.predict import (
    BOUND_FLOOR,
    BOUND_SEM_MULTIPLIER,
    cell_bound,
    in_phase,
    verify_table,
)
from repro.predict.surrogate import markov_expected_rounds

from tests._predict_helpers import build_tiny_table


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return build_tiny_table(tmp_path_factory.mktemp("predict-bounds"))


class TestCellBound:
    def test_perfect_agreement_still_reports_the_floor(self):
        assert cell_bound(100.0, [100.0, 100.0]) == pytest.approx(BOUND_FLOOR)

    def test_bias_and_sem_terms_add_up(self):
        holdout = [90.0, 110.0]  # mean 100, stdev ~14.14
        bound = cell_bound(120.0, holdout)
        mean = 100.0
        sem = math.sqrt(200.0) / math.sqrt(2)
        expected = 0.2 + BOUND_SEM_MULTIPLIER * sem / mean + BOUND_FLOOR
        assert bound == pytest.approx(expected)

    def test_single_holdout_borrows_fit_spread(self):
        lone = cell_bound(100.0, [100.0], fit_seconds=[90.0, 110.0])
        no_spread = cell_bound(100.0, [100.0])
        assert lone > no_spread == pytest.approx(BOUND_FLOOR)

    def test_unmeasurable_cases_return_none(self):
        assert cell_bound(100.0, []) is None
        assert cell_bound(0.0, [100.0]) is None
        assert cell_bound(-5.0, [100.0]) is None


class TestValidityRegion:
    def test_synchronizing_parameters_are_up_phase(self):
        params = RouterTimingParameters(10, 20.0, 0.3, 0.05)
        _, fraction = markov_expected_rounds(params)
        assert fraction == 0.0  # Tc >= 2 Tr: no break-up
        assert in_phase(fraction, "up") is True
        assert in_phase(fraction, "down") is False

    def test_randomized_parameters_flip_the_phase(self):
        # A large Tr keeps the system unsynchronized: the break-up
        # passage dominates and "up" predictions are invalid.
        params = RouterTimingParameters(4, 20.0, 0.3, 5.0)
        _, fraction = markov_expected_rounds(params)
        assert fraction > 0.5
        assert in_phase(fraction, "up") is False
        assert in_phase(fraction, "down") is True


class TestVerifyTable:
    def test_fresh_seed_audit_passes_on_the_tiny_table(self, built):
        spec, cache, table = built
        audit = verify_table(table, cache, seed_count=3)
        assert audit["table_id"] == table["table_id"]
        # Fresh seeds start directly above the build spec's range.
        assert audit["seed_start"] == spec.seed_start + spec.seed_count
        assert audit["cells_checked"] == 4
        assert audit["cells_skipped"] == 0
        assert audit["all_in_bound"] is True
        for row in audit["rows"]:
            assert row["fresh_censored"] == 0
            assert row["rel_error"] <= row["bound_rel"]

    def test_invalid_cells_are_skipped_not_failed(self, built):
        _, cache, table = built
        doctored = {**table, "cells": [dict(c) for c in table["cells"]]}
        doctored["cells"][0]["valid"] = False
        audit = verify_table(doctored, cache, seed_count=2)
        assert audit["cells_checked"] == 3
        assert audit["cells_skipped"] == 1
        assert audit["all_in_bound"] is True

    def test_a_lying_bound_is_caught(self, built):
        _, cache, table = built
        doctored = {**table, "cells": [dict(c) for c in table["cells"]]}
        # Claim a wildly wrong prediction while keeping the cell valid:
        # the fresh-seed audit must flag it.
        doctored["cells"][0]["pred_rounds"] *= 100.0
        audit = verify_table(doctored, cache, seed_count=2)
        assert audit["all_in_bound"] is False
        bad = audit["rows"][0]
        assert bad["in_bound"] is False and bad["rel_error"] > bad["bound_rel"]

    def test_rejects_empty_seed_count(self, built):
        _, cache, table = built
        with pytest.raises(ValueError, match="seed_count"):
            verify_table(table, cache, seed_count=0)
