"""Public-event workloads: crowd churn for in-the-wild measurements.

The paper's Sec. 6.2 experiments join *public events* with 7-15 users
over which the authors have no control — attendees come and go. This
module generates that churn: a target population of crowd peers with
Poisson-ish arrivals and departures, and a measurement that relates the
observed user's downlink to the *current* occupancy rather than a fixed
count.
"""

from __future__ import annotations

import dataclasses
import typing

from ..capture.sniffer import DOWNLINK
from ..platforms.base import LightweightPeer
from .session import Testbed, download_drain_s
from .stats import LinearFit, linear_fit


@dataclasses.dataclass
class OccupancySample:
    """Room occupancy and the observed downlink for one time bin."""

    time_s: float
    occupants: int
    down_kbps: float


@dataclasses.dataclass
class PublicEventResult:
    """Outcome of a churning public-event measurement."""

    platform: str
    samples: typing.List[OccupancySample]
    fit: LinearFit  # downlink ~ occupants

    @property
    def per_user_kbps(self) -> float:
        """Estimated per-avatar downlink cost from the churn data."""
        return self.fit.slope

    @property
    def tracks_occupancy(self) -> bool:
        """Whether downlink follows the live population (R^2 bound)."""
        return self.fit.r2 > 0.8


class CrowdChurn:
    """Drives crowd peers in and out of a testbed's room.

    Each attendee is a :class:`~repro.platforms.base.LightweightPeer`
    from :meth:`Testbed.add_peers`: arrivals join on the spot and
    departures stop, which cancels the peer's update timer and takes it
    out of the room.
    """

    def __init__(
        self,
        testbed: Testbed,
        target_users: int,
        churn_interval_s: float = 15.0,
        churn_probability: float = 0.5,
    ) -> None:
        if target_users < 2:
            raise ValueError("target_users must be >= 2 (observer + crowd)")
        self.testbed = testbed
        self.target_users = target_users
        self.churn_interval_s = churn_interval_s
        self.churn_probability = churn_probability
        self._rng = testbed.sim.rng("crowd-churn")
        #: The attendees in the room, in join order.
        self.crowd: typing.List[LightweightPeer] = []

    def start(self, at: float) -> None:
        # Initial crowd: target minus the observed user.
        initial = self.target_users - 1
        self.crowd = self.testbed.add_peers(initial, join_times=[at] * initial)
        self.testbed.sim.schedule_at(at + self.churn_interval_s, self._churn)

    def occupancy(self) -> int:
        return 1 + len(self.crowd)

    def _churn(self) -> None:
        sim = self.testbed.sim
        if self._rng.random() < self.churn_probability:
            if self._rng.random() < 0.5 and len(self.crowd) > 2:
                # A random attendee leaves.
                self.crowd.pop(self._rng.randrange(len(self.crowd))).stop()
            elif self.occupancy() < self.target_users + 3:
                # A new attendee arrives.
                self.crowd.extend(self.testbed.add_peers(1))
        sim.schedule(self.churn_interval_s, self._churn)


def run_public_event(
    platform: str,
    target_users: int = 10,
    duration_s: float = 240.0,
    bin_s: float = 5.0,
    seed: int = 0,
) -> PublicEventResult:
    """Attend a churning public event and regress downlink on occupancy.

    Raises :class:`ValueError` when the occupancy never changes in the
    measurement window: one occupancy gives no per-user slope to fit.
    """
    testbed = Testbed(platform, n_users=1, seed=seed, retain_records=False)
    join_at = 2.0
    start = join_at + 10.0 + download_drain_s(testbed.profile)
    end = start + duration_s
    down_bins = testbed.u1.sniffer.stream_bins(
        start, end, bin_s=bin_s, direction=DOWNLINK
    )
    testbed.start_all(join_at=join_at)
    churn = CrowdChurn(testbed, target_users)
    churn.start(join_at)

    occupancy_log: typing.List[tuple] = []

    def record_occupancy() -> None:
        occupancy_log.append((testbed.sim.now, churn.occupancy()))
        testbed.sim.schedule(bin_s, record_occupancy)

    testbed.sim.schedule_at(start + bin_s / 2, record_occupancy)
    testbed.run(until=end)

    series = down_bins.series()
    samples = []
    for (when, occupants), kbps in zip(occupancy_log, series.kbps):
        samples.append(OccupancySample(when, occupants, float(kbps)))
    occupancies = {s.occupants for s in samples}
    if len(occupancies) == 1:
        raise ValueError(
            f"{testbed.profile.name}: occupancy stayed at {occupancies.pop()} over the "
            f"{start:.0f}-{end:.0f} s window, so there is no churn to fit a per-user "
            "downlink on; measure for longer"
        )
    fit = linear_fit(
        [s.occupants for s in samples], [s.down_kbps for s in samples]
    )
    return PublicEventResult(
        platform=testbed.profile.name, samples=samples, fit=fit
    )
