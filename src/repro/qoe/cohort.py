"""Cohort-level QoE: experience scores from fluid rates, not packets.

The :mod:`repro.scale` engine projects thousands of rooms as analytic
occupancy/rate functions — no per-user packet stream exists to probe.
But the scoring model only needs the signals occupancy determines:
rendered-avatar FPS on a reference headset (Quest 2, the paper's
device), the dense-event phase cutover, and the loss fraction the fluid
access-link queue already computes.  Scoring the occupancy step
function segment-by-segment and integrating user-weighted MOS over
bins gives cohort QoE that is exact for the fluid model and — like
everything else in the shard pipeline — byte-identical regardless of
shard count, because every term depends only on the room's own
occupancy function.
"""

from __future__ import annotations

import functools
import typing

import numpy as np

from ..device.headset import QUEST_2
from ..device.rendering import RenderModel
from ..platforms.profiles import get_profile
from .model import (
    DEGRADED_THRESHOLD,
    DENSE_EVENT_REMOTES,
    ChannelSignals,
    DEFAULT_MODEL,
)

#: Loss fractions are quantized to this many digits before scoring so
#: the per-(platform, occupancy, loss) score cache stays small and the
#: quantization itself is deterministic.
_LOSS_DIGITS = 4


@functools.lru_cache(maxsize=16384)
def cohort_score(
    platform: str, occupancy: int, loss_fraction: float = 0.0
) -> float:
    """MOS score for one user in a room of ``occupancy`` users.

    Signals derivable from occupancy alone: rendered FPS from the
    platform's render-cost model on a Quest 2 (``occupancy - 1`` remote
    avatars), motion loss from the fluid queue's drop fraction, and the
    lifecycle phase (dense-event at MetaVRadar's remote-count cutover).
    Latency/voice/world signals have no fluid-level source and drop out
    with their weights renormalized.
    """
    if occupancy <= 0:
        return 0.0
    profile = get_profile(platform)
    remotes = max(0, int(occupancy) - 1)
    fps = RenderModel(profile.render_cost, QUEST_2).fps(remotes)
    phase = "dense-event" if remotes >= DENSE_EVENT_REMOTES else "steady"
    signals = ChannelSignals(
        motion_loss=round(min(1.0, max(0.0, loss_fraction)), _LOSS_DIGITS),
        render_fps=fps,
    )
    return DEFAULT_MODEL.score(signals, phase)


def cohort_weights(platform: str, occupancy: float) -> typing.Tuple[float, float]:
    """``(MOS-weighted users, below-threshold users)`` at ``occupancy``.

    The segment values whose integrals over a room's occupancy step
    function are its MOS-weighted user-seconds and the user-seconds it
    spends at occupancies scoring below :data:`DEGRADED_THRESHOLD`.
    Sharded fluid rooms never shape the access link, so they score with
    no motion loss.
    """
    score = cohort_score(platform, int(round(occupancy)))
    below = occupancy if (occupancy > 0 and score < DEGRADED_THRESHOLD) else 0.0
    return occupancy * score, below


def mean_mos_per_bin(
    mos_user_seconds: typing.Sequence[float],
    user_seconds: typing.Sequence[float],
) -> np.ndarray:
    """Occupancy-weighted mean MOS per bin (0 where a bin is empty)."""
    mos = np.asarray(mos_user_seconds, dtype=float)
    users = np.asarray(user_seconds, dtype=float)
    out = np.zeros_like(mos)
    np.divide(mos, users, out=out, where=users > 0)
    return out
