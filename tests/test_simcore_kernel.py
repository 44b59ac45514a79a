"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import NULL_OBS, MetricsOnlyObservability, Observability
from repro.simcore import SimulationError, Simulator

#: The three observability configurations a simulator can run under.
BUNDLES = (lambda: NULL_OBS, MetricsOnlyObservability, Observability)


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


#: Event times on a quarter-second grid, so ties and events landing
#: exactly on a split point are common.
_grid_time = st.integers(min_value=0, max_value=40).map(lambda t: t / 4)


def _replay(make_obs, events, head, untils):
    """Schedule ``events``, run to each of ``untils`` in turn, and return
    what fired (in order), the event count and the final clock."""
    sim = Simulator(seed=0, obs=make_obs())
    fired = []
    handles = []

    def fire(tag, follow_s, cancel_index):
        fired.append((sim.now, tag))
        if cancel_index is not None:
            handles[cancel_index % len(handles)].cancel()
        if follow_s is not None:
            sim.schedule(follow_s, fire, f"{tag}+", None, None)

    for tag, (time, priority, cancelled, follow_s, cancel_index) in enumerate(events):
        handle = sim.schedule_at(
            time, fire, tag, follow_s, cancel_index, priority=priority
        )
        handles.append(handle)
        if cancelled:
            handle.cancel()
    # A cancelled entry exactly at the first split point: skipping it
    # must not let a later event through ``run(until=head)``.
    sim.schedule_at(head, fire, "head", None, None).cancel()
    for until in untils:
        assert sim.run(until=until) == until
    dispatched = sim.obs.registry.value("sim.events_dispatched")
    if sim.obs is NULL_OBS:
        assert dispatched is None
    else:
        assert dispatched == sim.event_count
    return fired, sim.event_count, sim.now


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            _grid_time,
            st.integers(min_value=-1, max_value=1),
            st.booleans(),
            st.none() | _grid_time,
            st.none() | st.integers(min_value=0, max_value=99),
        ),
        max_size=40,
    ),
    a=_grid_time,
    gap=_grid_time,
)
def test_split_runs_dispatch_what_one_run_does(events, a, gap):
    """``run(until=a)`` (twice) then ``run(until=b)`` dispatches exactly
    what one ``run(until=b)`` does, in the same order and to the same
    clock, under every observability configuration."""
    b = a + gap
    reference = _replay(BUNDLES[0], events, a, [b])
    for make_obs in BUNDLES:
        assert _replay(make_obs, events, a, [b]) == reference
        assert _replay(make_obs, events, a, [a, a, b]) == reference


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
