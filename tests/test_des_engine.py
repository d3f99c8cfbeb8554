"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_priority_then_fifo():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "second", priority=1)
    sim.schedule(1.0, fired.append, "first", priority=0)
    sim.schedule(1.0, fired.append, "third", priority=1)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_run_until_horizon_includes_boundary_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.schedule(3.0, fired.append, 3)
    sim.run(until=2.0)
    assert fired == [1, 2]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 2, 3]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_cancelled_events_are_skipped():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, lambda: sim.stop())
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 3]


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_trace_hook_sees_events():
    sim = Simulator()
    traced = []
    sim.add_trace_hook(lambda e: traced.append(e.time))
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert traced == [1.0, 2.0]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, fired.append, sim.now))
    sim.run()
    assert fired == [1.0]


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=50)
def test_firing_order_is_sorted_for_any_delays(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run()
    assert fired == sorted(delays)
