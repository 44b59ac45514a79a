"""Observability overhead: disabled must be near-zero, enabled bounded.

Three measurements:

1. Null-instrument micro-costs — what one counter ``inc()`` / tracer
   ``emit()`` costs when observability is off (shared no-op objects).
2. An event-storm through the kernel — per-event dispatch cost with
   obs disabled vs enabled over a zero-sized trace buffer (every span
   counted as dropped, per-callback histograms kept): exactly the path
   a full buffer takes.  The test gates its ratio at
   ``MAX_STORM_RATIO``.
3. A reference two-user session — end-to-end wall time disabled vs
   enabled, the number the <5 % disabled-overhead acceptance gate is
   about: the disabled path *is* the default path, so its cost is the
   per-event guard measured in (2) against the raw-dispatch floor.

Run standalone (``python benchmarks/bench_obs_overhead.py``) or via
``pytest benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import time

from repro.obs import NULL_OBS, NULL_REGISTRY, NULL_TRACER, collect
from repro.simcore import Simulator

N_MICRO = 200_000
N_EVENTS = 100_000
#: Storm runs per mode; the modes alternate so a host whose speed
#: drifts between runs slows both alike.
STORM_REPEATS = 5
#: Gate: observed dispatch over a full trace buffer may cost at most
#: this multiple of unobserved dispatch.
MAX_STORM_RATIO = 2.0


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _micro_costs() -> dict:
    counter = NULL_REGISTRY.counter("bench")
    tracer = NULL_TRACER

    def guard_loop():
        enabled = False
        for _ in range(N_MICRO):
            if enabled:
                counter.inc()

    def null_inc_loop():
        for _ in range(N_MICRO):
            counter.inc()

    def null_emit_loop():
        for _ in range(N_MICRO):
            tracer.emit("e")

    def attr_check_loop():
        obs = NULL_OBS
        for _ in range(N_MICRO):
            if obs.enabled:
                counter.inc()

    return {
        "guard (cached bool)": _best_of(guard_loop) / N_MICRO,
        "guard (obs.enabled)": _best_of(attr_check_loop) / N_MICRO,
        "null counter.inc()": _best_of(null_inc_loop) / N_MICRO,
        "null tracer.emit()": _best_of(null_emit_loop) / N_MICRO,
    }


def _event_storm() -> tuple:
    """Per-event wall cost of dispatching N_EVENTS trivial callbacks,
    as ``(obs off, obs on)``."""

    def run():
        sim = Simulator(seed=1)
        noop = lambda: None  # noqa: E731 - minimal dispatch target
        for index in range(N_EVENTS):
            sim.schedule_at(float(index), noop)
        sim.run()

    def run_observed():
        with collect(max_trace_events=0):
            run()

    disabled = enabled = float("inf")
    for _ in range(STORM_REPEATS):
        disabled = min(disabled, _best_of(run, repeats=1))
        enabled = min(enabled, _best_of(run_observed, repeats=1))
    return disabled / N_EVENTS, enabled / N_EVENTS


def _reference_session(observed: bool) -> float:
    from repro.core.api import run_two_user_session

    def run():
        run_two_user_session("vrchat", duration_s=5.0, seed=3)

    if observed:
        def run_observed():
            with collect(max_trace_events=10_000):
                run()
        return _best_of(run_observed, repeats=2)
    return _best_of(run, repeats=2)


def _report(micro: dict, storm: tuple) -> str:
    lines = ["observability overhead", "-" * 52]
    for label, cost in micro.items():
        lines.append(f"{label:<24} {cost * 1e9:8.1f} ns/call")

    disabled, enabled = storm
    lines.append(
        f"{'kernel dispatch (off)':<24} {disabled * 1e9:8.1f} ns/event"
    )
    lines.append(
        f"{'kernel dispatch (on)':<24} {enabled * 1e9:8.1f} ns/event "
        f"({enabled / disabled:.2f}x)"
    )
    # The disabled path adds one cached-bool guard per dispatch; its
    # share of a dispatch is the <5 % acceptance number.
    guard_share = micro["guard (cached bool)"] / disabled * 100.0
    lines.append(f"{'disabled-guard share':<24} {guard_share:8.2f} % of a dispatch")

    base = _reference_session(observed=False)
    obs = _reference_session(observed=True)
    overhead = (obs - base) / base * 100.0
    lines.append(
        f"{'2-user session (off)':<24} {base:8.3f} s"
    )
    lines.append(
        f"{'2-user session (on)':<24} {obs:8.3f} s ({overhead:+.1f}%)"
    )
    return "\n".join(lines)


def test_obs_overhead(timing_report):
    micro = _micro_costs()
    # The disabled hot path is a boolean guard plus (rarely) a no-op
    # call; both must stay in the nanosecond range.
    assert micro["guard (cached bool)"] < 1e-6
    assert micro["null counter.inc()"] < 1e-6
    storm = _event_storm()
    report = _report(micro, storm)
    timing_report("Observability overhead", report)
    # A full trace buffer only counts what it drops, so enabled
    # observability stays within a small multiple of plain dispatch.
    disabled, enabled = storm
    assert enabled / disabled <= MAX_STORM_RATIO, report


if __name__ == "__main__":
    print(_report(_micro_costs(), _event_storm()))
