"""Flow-level ("fluid") simulation: rates through capacities, no packets.

A packet run of a forwarding room costs O(n^2 * rate * duration) kernel
events; the fluid abstraction replaces the packet stream with a
piecewise-constant *rate function* and pushes it through link
capacities analytically.  Queueing, loss and shaping then cost O(number
of rate breakpoints) instead of O(number of packets) — which is what
makes 10^6-user scenarios tractable (the flow-level tradition of
ns-2/fluid and the traffic-forecasting literature the ISSUE cites).

Cross-validation against the packet engine lives in
``tests/test_scale_agreement.py`` and ``benchmarks/bench_scale_engine.py``.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import typing

import numpy as np

from ..capture.timeseries import ThroughputSeries
from .aggregate import room_model


class PiecewiseConstant:
    """A right-open piecewise-constant function of time.

    ``times`` holds ``n + 1`` ascending boundaries and ``values`` the
    ``n`` segment values; ``f(t) = values[i]`` for
    ``times[i] <= t < times[i + 1]`` and 0 outside the domain.
    """

    __slots__ = ("times", "values")

    def __init__(
        self, times: typing.Sequence[float], values: typing.Sequence[float]
    ) -> None:
        if len(times) != len(values) + 1:
            raise ValueError(
                f"need len(times) == len(values) + 1, got {len(times)}/{len(values)}"
            )
        for a, b in zip(times, times[1:]):
            if not b > a:  # also rejects NaN breakpoints
                raise ValueError("times must be strictly ascending")
        self.times = list(times)
        self.values = list(values)

    @classmethod
    def constant(
        cls, value: float, start: float, end: float
    ) -> "PiecewiseConstant":
        return cls([start, end], [value])

    @property
    def start(self) -> float:
        return self.times[0]

    @property
    def end(self) -> float:
        return self.times[-1]

    def at(self, t: float) -> float:
        if t < self.start or t >= self.end:
            return 0.0
        index = bisect.bisect_right(self.times, t) - 1
        return self.values[min(index, len(self.values) - 1)]

    def integral(
        self,
        start: typing.Optional[float] = None,
        end: typing.Optional[float] = None,
    ) -> float:
        """The integral of the function over ``[start, end)``."""
        return float(integrate_rows(self.times, [self.values], start, end)[0])

    def map(self, fn: typing.Callable[[float], float]) -> "PiecewiseConstant":
        """A new function with ``fn`` applied to every segment value.

        This is the occupancy -> rate bridge: apply a per-occupancy
        rate model to an occupancy step function and the result is the
        room's rate function, with churn breakpoints preserved.
        """
        return PiecewiseConstant(self.times, [fn(v) for v in self.values])

    def scaled(self, factor: float) -> "PiecewiseConstant":
        return PiecewiseConstant(self.times, [v * factor for v in self.values])

    def __add__(self, other: "PiecewiseConstant") -> "PiecewiseConstant":
        times = sorted(set(self.times) | set(other.times))
        values = [
            self.at(t0) + other.at(t0) for t0 in times[:-1]
        ]
        return PiecewiseConstant(times, values)

    def bins(self, start: float, end: float, bin_s: float) -> np.ndarray:
        """Per-bin integrals over ``[start, end)`` (e.g. bits per bin).

        Bin ``i`` is exactly ``integral(start + i * bin_s, ...)``: the
        same overlaps, summed in the same order from ``0.0``.
        """
        return bin_rows(self.times, [self.values], start, end, bin_s)[0]

    def to_series(self, start: float, end: float, bin_s: float) -> ThroughputSeries:
        """Bin a bits-per-second function into a ThroughputSeries —
        the same shape the packet sniffer pipeline produces."""
        bits = self.bins(start, end, bin_s)
        n_bins = len(bits)
        times = start + (np.arange(n_bins) + 0.5) * bin_s
        return ThroughputSeries(times, bits, bin_s)

    def mean(
        self,
        start: typing.Optional[float] = None,
        end: typing.Optional[float] = None,
    ) -> float:
        a = self.start if start is None else start
        b = self.end if end is None else end
        if b <= a:
            return 0.0
        return self.integral(a, b) / (b - a)

    def peak(self) -> float:
        return max(self.values) if self.values else 0.0

    def __len__(self) -> int:
        return len(self.values)


def _overlaps(
    times: typing.Sequence[float], start: float, end: float
) -> typing.List[typing.Tuple[int, float]]:
    """``(segment index, overlap width)`` of every segment of ``times``
    that meets ``[start, end)``, in segment order."""
    a = max(start, times[0])
    b = min(end, times[-1])
    if b <= a:
        return []
    overlaps = []
    for index, (t0, t1) in enumerate(zip(times, times[1:])):
        lo = max(t0, a)
        hi = min(t1, b)
        if hi > lo:
            overlaps.append((index, hi - lo))
    return overlaps


@functools.lru_cache(maxsize=256)
def _overlap_table(
    times: typing.Tuple[float, ...], start: float, end: float, bin_s: float
) -> typing.Tuple[typing.Tuple[typing.Tuple[int, float], ...], ...]:
    """Each bin's :func:`_overlaps` for :func:`bin_rows`.

    Keyed by the breakpoints, not the values: every room of a scale
    scenario shares one churn grid (breakpoints at ``start + i *
    interval`` and the horizon, whatever the room's RNG draws), and
    ``map``/``scaled`` keep it, so all of a scenario's rooms and rate
    functions bin through one table.
    """
    n_bins = int(math.ceil((end - start) / bin_s))
    table = []
    for index in range(n_bins):
        lo = start + index * bin_s
        table.append(tuple(_overlaps(times, lo, min(end, lo + bin_s))))
    return tuple(table)


def _overlap_sums(
    columns: np.ndarray, overlaps: typing.Sequence[typing.Tuple[int, float]]
) -> np.ndarray:
    """``sum(columns[index] * width)`` over ``overlaps``, added from
    ``0.0`` in overlap order, for every row at once.

    ``columns[index]`` holds segment ``index``'s value of every row.
    Element-wise float64 products and sums are the IEEE operations a
    Python float loop performs, so each row's total is bit for bit the
    one a per-function loop over the same overlaps makes.
    """
    total = np.zeros(columns.shape[1:])
    for index, width in overlaps:
        total += columns[index] * width
    return total


def integrate_rows(
    times: typing.Sequence[float],
    rows,
    start: typing.Optional[float] = None,
    end: typing.Optional[float] = None,
) -> np.ndarray:
    """Each row's integral over ``[start, end)`` (default: the whole
    domain), for step functions sharing the breakpoints ``times``.

    ``rows`` holds one function's segment values per row;
    :meth:`PiecewiseConstant.integral` is the one-row case.
    """
    columns = np.asarray(rows, dtype=float).T
    overlaps = _overlaps(
        times,
        times[0] if start is None else start,
        times[-1] if end is None else end,
    )
    return _overlap_sums(columns, overlaps)


def bin_rows(
    times: typing.Sequence[float], rows, start: float, end: float, bin_s: float
) -> np.ndarray:
    """Per-bin integrals over ``[start, end)`` of step functions that
    share the breakpoints ``times``, one row of bins per row of values.

    ``rows`` holds one function's segment values per row;
    :meth:`PiecewiseConstant.bins` is the one-row case.  Bin ``i`` of
    a row is exactly that function's ``integral(start + i * bin_s,
    ...)``: one :func:`_overlap_table` serves every row, and each bin
    adds ``value x width`` from ``0.0`` in segment order.  The result
    is a ``(rows, bins)`` view of a bin-major array.
    """
    if end <= start:
        raise ValueError(f"end ({end}) must exceed start ({start})")
    if not (math.isfinite(bin_s) and bin_s > 0):
        raise ValueError(f"bin_s must be finite and positive, got {bin_s}")
    columns = np.asarray(rows, dtype=float).T
    table = _overlap_table(tuple(times), start, end, bin_s)
    return np.array([_overlap_sums(columns, overlaps) for overlaps in table]).T


@dataclasses.dataclass
class FluidQueueResult:
    """Outcome of pushing an arrival rate through a finite-rate server."""

    served: PiecewiseConstant  # egress rate (units/s)
    backlog_times: typing.List[float]  # piecewise-linear backlog knots
    backlog_values: typing.List[float]
    offered_units: float
    served_units: float
    dropped_units: float

    @property
    def loss_fraction(self) -> float:
        if self.offered_units <= 0:
            return 0.0
        return self.dropped_units / self.offered_units

    @property
    def max_backlog(self) -> float:
        return max(self.backlog_values) if self.backlog_values else 0.0

    def max_delay_s(self, capacity_units_per_s: float) -> float:
        """Worst queueing delay implied by the backlog (FIFO drain)."""
        if capacity_units_per_s <= 0:
            return float("inf") if self.max_backlog > 0 else 0.0
        return self.max_backlog / capacity_units_per_s


def fluid_queue(
    arrival: PiecewiseConstant,
    capacity_units_per_s: float,
    buffer_units: float = float("inf"),
) -> FluidQueueResult:
    """Deterministic fluid queue: arrivals above capacity build backlog,
    backlog above ``buffer_units`` is dropped (tail drop).

    This is how shaping and disruption scenarios work without packets:
    a tc-netem rate limit becomes ``capacity_units_per_s`` and the
    served function directly gives the post-bottleneck throughput.
    """
    if capacity_units_per_s < 0:
        raise ValueError("capacity must be >= 0")
    times: typing.List[float] = []
    served: typing.List[float] = []
    backlog_t = [arrival.start]
    backlog_v = [0.0]
    q = 0.0
    dropped = 0.0

    def emit(t0: float, t1: float, rate: float) -> None:
        # ``times`` holds segment starts; boundaries are closed below.
        if t1 <= t0:
            return
        times.append(t0)
        served.append(rate)

    for t0, t1, a in zip(arrival.times, arrival.times[1:], arrival.values):
        t = t0
        while t < t1 - 1e-12:
            c = capacity_units_per_s
            if q <= 0 and a <= c:
                # Pass-through until the segment ends.
                emit(t, t1, a)
                t = t1
            elif a > c:
                # Backlog builds at (a - c); may hit the buffer bound.
                net = a - c
                if math.isinf(buffer_units):
                    emit(t, t1, c)
                    q += net * (t1 - t)
                    t = t1
                elif q < buffer_units:
                    t_full = t + (buffer_units - q) / net
                    if t_full >= t1:
                        emit(t, t1, c)
                        q += net * (t1 - t)
                        t = t1
                    else:
                        emit(t, t_full, c)
                        q = buffer_units
                        t = t_full
                else:
                    # Buffer full: everything above capacity is dropped.
                    emit(t, t1, c)
                    dropped += net * (t1 - t)
                    t = t1
            else:
                # Draining: serve at capacity until the queue empties.
                drain = c - a
                t_empty = t + (q / drain if drain > 0 else float("inf"))
                if t_empty >= t1:
                    emit(t, t1, c)
                    q -= drain * (t1 - t)
                    t = t1
                else:
                    emit(t, t_empty, c)
                    q = 0.0
                    t = t_empty
            backlog_t.append(t)
            backlog_v.append(q)

    # Close the final segment boundary and collapse equal neighbours.
    if not times:
        times, served = [arrival.start], [0.0]
    merged_times = [times[0]]
    merged_values: typing.List[float] = [served[0]]
    for start, rate in zip(times[1:], served[1:]):
        if math.isclose(merged_values[-1], rate, abs_tol=1e-12):
            continue
        merged_times.append(start)
        merged_values.append(rate)
    merged_times.append(arrival.end)
    served_fn = PiecewiseConstant(merged_times, merged_values)
    offered = arrival.integral()
    served_units = served_fn.integral()
    return FluidQueueResult(
        served=served_fn,
        backlog_times=backlog_t,
        backlog_values=backlog_v,
        offered_units=offered,
        served_units=served_units,
        dropped_units=dropped,
    )


def churn_occupancy(
    rng,
    target_users: int,
    duration_s: float,
    churn_interval_s: float = 15.0,
    churn_probability: float = 0.5,
    start_s: float = 0.0,
) -> PiecewiseConstant:
    """A public-event occupancy step function (Sec. 6.2 churn model).

    Mirrors :class:`repro.measure.workload.CrowdChurn`: every interval
    the room flips a coin; on heads a random attendee leaves (never
    below 3) or a new one arrives (never above ``target + 3``).
    """
    if target_users < 1:
        raise ValueError("target_users must be >= 1")
    if not (math.isfinite(churn_interval_s) and churn_interval_s > 0):
        raise ValueError(
            f"churn_interval_s must be finite and positive, got {churn_interval_s}"
        )
    times = [start_s]
    values = [float(target_users)]
    t = start_s + churn_interval_s
    occupancy = target_users
    while t < start_s + duration_s:
        if rng.random() < churn_probability:
            if rng.random() < 0.5 and occupancy > 3:
                occupancy -= 1
            elif occupancy < target_users + 3:
                occupancy += 1
        times.append(t)
        values.append(float(occupancy))
        t += churn_interval_s
    times.append(start_s + duration_s)
    return PiecewiseConstant(times, values)


#: ``room_model`` for every room of the process: each room of a
#: scenario asks for the same few occupancies.  ``RoomModel`` is frozen,
#: so sharing one instance between rooms is safe.
_room_model = functools.lru_cache(maxsize=1024)(room_model)


def occupancy_rates_bps(
    platform,
    occupancy: float,
    architecture: str,
    viewport_factor: typing.Union[float, str, None],
) -> typing.Tuple[float, float]:
    """``(server egress, one viewer's downlink)`` in wire bits/s for a
    room holding ``occupancy`` users: the occupancy -> rate bridge a
    room's step functions and a shard's rows both map through."""
    model = _room_model(
        platform,
        max(1, int(round(occupancy))),
        architecture,
        viewport_factor=viewport_factor,
    )
    return (
        model.server_egress_bytes_per_s * 8.0,
        model.user_down_wire_bytes_per_s() * 8.0,
    )


@dataclasses.dataclass
class FluidRoomResult:
    """One room simulated at fluid fidelity."""

    platform: str
    architecture: str
    occupancy: PiecewiseConstant
    #: Server egress for this room, wire bits/s.
    egress_bps: PiecewiseConstant
    #: One member's downlink, wire bits/s (post access-link shaping
    #: when a capacity was given).
    viewer_down_bps: PiecewiseConstant
    user_seconds: float
    egress_bits: float
    dropped_bits: float

    @property
    def peak_egress_bps(self) -> float:
        return self.egress_bps.peak()


def simulate_room(
    platform,
    n_users: int,
    duration_s: float,
    *,
    architecture: str = "forwarding",
    occupancy: typing.Optional[PiecewiseConstant] = None,
    rng=None,
    churn_interval_s: float = 15.0,
    churn_probability: float = 0.5,
    access_capacity_bps: typing.Optional[float] = None,
    viewport_factor: typing.Union[float, str, None] = "uniform",
) -> FluidRoomResult:
    """Simulate one room analytically.

    ``occupancy`` overrides the churn model; with ``rng`` given and no
    occupancy, a churning public event is generated. With neither, the
    population is constant.  ``access_capacity_bps`` pushes the viewer
    downlink through a fluid access-link queue, so throttling scenarios
    (Sec. 8) work at this fidelity too.
    """
    if occupancy is None:
        if rng is not None:
            occupancy = churn_occupancy(
                rng,
                n_users,
                duration_s,
                churn_interval_s=churn_interval_s,
                churn_probability=churn_probability,
            )
        else:
            occupancy = PiecewiseConstant.constant(float(n_users), 0.0, duration_s)

    rates = [
        occupancy_rates_bps(platform, k, architecture, viewport_factor)
        for k in occupancy.values
    ]
    egress = PiecewiseConstant(occupancy.times, [rate[0] for rate in rates])
    viewer_down = PiecewiseConstant(occupancy.times, [rate[1] for rate in rates])
    dropped_bits = 0.0
    if access_capacity_bps is not None:
        shaped = fluid_queue(viewer_down, access_capacity_bps)
        dropped_bits = shaped.dropped_units
        viewer_down = shaped.served
    return FluidRoomResult(
        platform=_room_model(platform, 1, architecture).platform,  # profile name
        architecture=architecture,
        occupancy=occupancy,
        egress_bps=egress,
        viewer_down_bps=viewer_down,
        user_seconds=occupancy.integral(),
        egress_bits=egress.integral(),
        dropped_bits=dropped_bits,
    )
