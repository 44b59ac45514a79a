"""Unit tests for the discrete-event kernel."""

import pytest

from repro.obs import Observability
from repro.simcore import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_runs_callback_at_time(sim):
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]


def test_schedule_with_args(sim):
    got = []
    sim.schedule(0.1, got.append, "x")
    sim.run()
    assert got == ["x"]


def test_events_fire_in_time_order(sim):
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule(delay, order.append, delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_simultaneous_events_fifo(sim):
    order = []
    for tag in range(5):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties(sim):
    order = []
    sim.schedule(1.0, order.append, "late", priority=1)
    sim.schedule(1.0, order.append, "early", priority=-1)
    sim.run()
    assert order == ["early", "late"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_events_skipped(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    handle.cancel()
    sim.run()
    assert fired == ["kept"]


def test_run_until_stops_clock_exactly(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(10.0, lambda: None)
    stopped = sim.run(until=5.0)
    assert stopped == 5.0
    assert sim.now == 5.0
    assert sim.pending_events() == 1


@pytest.mark.parametrize("observed", [False, True])
def test_run_until_ignores_events_behind_a_cancelled_head(observed):
    """Skipping a cancelled head must not dispatch a live event past
    ``until``; observed and unobserved runs stop in the same place."""
    sim = Simulator(seed=0, obs=Observability() if observed else None)
    fired = []
    cancelled = sim.schedule(1.0, fired.append, "A")
    sim.schedule(5.0, fired.append, "B")
    cancelled.cancel()
    assert sim.run(until=2.0) == 2.0
    assert fired == []
    assert sim.now == 2.0
    assert sim.pending_events() == 1


def test_run_until_advances_clock_even_without_events(sim):
    assert sim.run(until=7.0) == 7.0


def test_event_count_increments(sim):
    for _ in range(4):
        sim.schedule(0.1, lambda: None)
    sim.run()
    assert sim.event_count == 4


def test_nested_scheduling(sim):
    fired = []

    def outer():
        sim.schedule(1.0, lambda: fired.append(sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == [2.0]


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_determinism_across_instances():
    def trace(seed):
        s = Simulator(seed=seed)
        out = []
        rng = s.rng("x")

        def tick():
            out.append((s.now, rng.random()))
            if s.now < 1.0:
                s.schedule(rng.uniform(0.05, 0.2), tick)

        s.schedule(0.0, tick)
        s.run()
        return out

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_schedule_rejects_non_finite_delay(sim, bad):
    with pytest.raises(SimulationError, match="finite"):
        sim.schedule(bad, lambda: None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_schedule_at_rejects_non_finite_time(sim, bad):
    with pytest.raises(SimulationError, match="finite"):
        sim.schedule_at(bad, lambda: None)


def test_nan_rejection_keeps_heap_usable(sim):
    """A rejected NaN must not corrupt event ordering (NaN comparisons
    are all False, which would silently break heapq invariants)."""
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule(delay, order.append, delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]
