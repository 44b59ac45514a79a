"""repro.scale — fluid simulation for metaverse scale.

The packet engine (``repro.platforms`` + ``repro.net``) is calibrated
and validated at the paper's room sizes (2-28 users); this package
projects the same calibration to 10^4-10^6 concurrent users:

* :mod:`.aggregate` — closed-form per-channel rate models per room and
  server architecture, byte-exact against the packet engine,
* :mod:`.fluid` — piecewise-constant rate functions through fluid
  queues (capacity, backlog, loss) plus the churn occupancy process,
* :mod:`.shard` — fan thousands of rooms across the
  :mod:`repro.runner` campaign executor with per-room deterministic
  seeding,
* :mod:`.capacity` — fleet sizing and $/concurrent-user-hour per
  architecture.

See ``docs/SCALE.md`` for assumptions and the validity envelope.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ARCHITECTURES": ".aggregate",
    "ChannelRate": ".aggregate",
    "RoomModel": ".aggregate",
    "expected_channel_payload_kbps": ".aggregate",
    "room_model": ".aggregate",
    "CapacityPlan": ".capacity",
    "CostModel": ".capacity",
    "capacity_table": ".capacity",
    "plan_capacity": ".capacity",
    "FluidQueueResult": ".fluid",
    "FluidRoomResult": ".fluid",
    "PiecewiseConstant": ".fluid",
    "churn_occupancy": ".fluid",
    "fluid_queue": ".fluid",
    "simulate_room": ".fluid",
    "ScaleResult": ".shard",
    "ScaleScenario": ".shard",
    "metaverse_scale_experiment": ".shard",
    "run_sharded": ".shard",
    "shard_ranges": ".shard",
    "simulate_shard": ".shard",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
