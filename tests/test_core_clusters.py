"""Tests for the online cluster tracker."""

import random

import pytest

from repro.core import ClusterTracker


def feed(tracker, resets):
    for time, node in resets:
        tracker.record_reset(time, node)


class TestGrouping:
    def test_simultaneous_resets_form_one_group(self):
        tracker = ClusterTracker(n_nodes=4)
        feed(tracker, [(10.0, 0), (10.0, 1), (10.0, 2)])
        tracker.finish()
        assert [g.size for g in tracker.groups] == [3]

    def test_distinct_times_form_distinct_groups(self):
        tracker = ClusterTracker(n_nodes=4)
        feed(tracker, [(10.0, 0), (11.0, 1), (12.0, 2)])
        tracker.finish()
        assert [g.size for g in tracker.groups] == [1, 1, 1]

    def test_tolerance_groups_near_identical_times(self):
        tracker = ClusterTracker(n_nodes=4)
        feed(tracker, [(10.0, 0), (10.0 + 1e-9, 1)])
        tracker.finish()
        assert [g.size for g in tracker.groups] == [2]

    def test_out_of_order_resets_rejected(self):
        tracker = ClusterTracker(n_nodes=4)
        tracker.record_reset(10.0, 0)
        with pytest.raises(ValueError):
            tracker.record_reset(9.0, 1)

    def test_total_resets_counted(self):
        tracker = ClusterTracker(n_nodes=3)
        feed(tracker, [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 0)])
        assert tracker.total_resets == 4


class TestWindowStatistics:
    def test_largest_in_window(self):
        tracker = ClusterTracker(n_nodes=4)
        feed(tracker, [(1.0, 0), (2.0, 1), (2.0, 2), (3.0, 3)])
        assert tracker.largest_in_window() == 2

    def test_window_slides_old_groups_out(self):
        tracker = ClusterTracker(n_nodes=3)
        # Cluster of 3, then three lone resets push it out of the window.
        feed(tracker, [(1.0, 0), (1.0, 1), (1.0, 2)])
        assert tracker.largest_in_window() == 3
        feed(tracker, [(10.0, 0), (20.0, 1), (30.0, 2)])
        assert tracker.largest_in_window() == 1

    def test_cached_window_max_equals_a_rescan(self):
        """The incremental window maximum equals ``max`` over the window
        after every reset.

        Seeded streams mix exact ties, tolerance-merged near-ties and
        lone resets, so the newest entry grows in place and the current
        maximum is evicted while smaller entries remain.
        """
        rng = random.Random(2026)
        merges = max_evictions = 0
        for _ in range(60):
            n = rng.randint(1, 9)
            tracker = ClusterTracker(n_nodes=n, keep_history=False)
            time = 0.0
            for _ in range(rng.randint(1, 8 * n)):
                roll = rng.random()
                if roll < 0.4:
                    pass  # an exact tie with the previous reset
                elif roll < 0.6:
                    time += rng.uniform(0.0, 0.4) * tracker.tolerance
                else:
                    time += rng.uniform(0.5, 3.0)
                open_time = tracker._open_time
                if open_time is not None and open_time != time and (
                    abs(time - open_time) <= tracker.tolerance
                ):
                    merges += 1
                oldest = tracker._window[0] if tracker._window else None
                largest = tracker.largest_in_window()
                tracker.record_reset(time, rng.randrange(n))
                window = [entry[0] for entry in tracker._window]
                assert tracker.largest_in_window() == max(window), (n, window)
                if oldest is not None and oldest is not tracker._window[0]:
                    max_evictions += oldest[0] == largest > 1
        assert merges > 0 and max_evictions > 0, (merges, max_evictions)

    def test_fully_synchronized_detection(self):
        tracker = ClusterTracker(n_nodes=3)
        feed(tracker, [(5.0, 0), (5.0, 1)])
        assert not tracker.is_fully_synchronized()
        tracker.record_reset(5.0, 2)
        assert tracker.is_fully_synchronized()

    def test_fully_unsynchronized_needs_full_window(self):
        tracker = ClusterTracker(n_nodes=3)
        feed(tracker, [(1.0, 0), (2.0, 1)])
        assert not tracker.is_fully_unsynchronized()  # window not full yet
        tracker.record_reset(3.0, 2)
        assert tracker.is_fully_unsynchronized()

    def test_synchronized_start_not_reported_unsynchronized(self):
        tracker = ClusterTracker(n_nodes=3)
        feed(tracker, [(1.0, 0), (1.0, 1), (1.0, 2)])
        assert not tracker.is_fully_unsynchronized()


class TestFirstPassages:
    def test_time_to_cluster_size_fills_smaller_sizes(self):
        tracker = ClusterTracker(n_nodes=5)
        feed(tracker, [(1.0, 0), (7.0, 1), (7.0, 2), (7.0, 3)])
        assert tracker.time_to_cluster_size(1) == 1.0
        assert tracker.time_to_cluster_size(2) == 7.0
        assert tracker.time_to_cluster_size(3) == 7.0
        assert tracker.time_to_cluster_size(4) is None

    def test_synchronization_time(self):
        tracker = ClusterTracker(n_nodes=2)
        feed(tracker, [(1.0, 0), (4.0, 1), (9.0, 0), (9.0, 1)])
        assert tracker.synchronization_time == 9.0

    def test_breakup_time_from_synchronized(self):
        tracker = ClusterTracker(n_nodes=2)
        # Start synchronized; later two lone resets form a full window.
        feed(tracker, [(1.0, 0), (1.0, 1), (10.0, 0), (12.0, 1)])
        assert tracker.breakup_time == 12.0

    def test_time_to_break_down_to_intermediate(self):
        tracker = ClusterTracker(n_nodes=4)
        feed(tracker, [(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3)])  # state 4
        feed(tracker, [(9.0, 0), (9.0, 1), (9.0, 2), (11.0, 3)])  # largest 3
        assert tracker.time_to_break_down_to(3) == 11.0
        assert tracker.time_to_break_down_to(2) is None

    def test_validation(self):
        tracker = ClusterTracker(n_nodes=4)
        with pytest.raises(ValueError):
            tracker.time_to_cluster_size(0)
        with pytest.raises(ValueError):
            tracker.time_to_break_down_to(5)


class TestRoundSeries:
    def test_round_series_emits_every_n_resets(self):
        tracker = ClusterTracker(n_nodes=2)
        feed(tracker, [(1.0, 0), (2.0, 1), (3.0, 0), (3.0, 1)])
        assert tracker.round_times == [2.0, 3.0]
        assert tracker.round_largest == [1, 2]

    def test_histogram(self):
        tracker = ClusterTracker(n_nodes=4)
        feed(tracker, [(1.0, 0), (2.0, 1), (2.0, 2), (5.0, 3)])
        tracker.finish()
        assert tracker.cluster_size_histogram() == {1: 2, 2: 1}

    def test_histogram_requires_history(self):
        tracker = ClusterTracker(n_nodes=2, keep_history=False)
        feed(tracker, [(1.0, 0)])
        tracker.finish()
        assert tracker.groups == []
        with pytest.raises(RuntimeError):
            tracker.cluster_size_histogram()


def test_invalid_n_nodes():
    with pytest.raises(ValueError):
        ClusterTracker(n_nodes=0)
