"""repro — reproduction of the IMC 2022 social-VR measurement study.

The package simulates the five social VR platforms the paper measured
(AltspaceVR, Horizon Worlds, Mozilla Hubs, Rec Room, VRChat) on a
packet-level network substrate, and implements the paper's measurement
methodology on top of it: channel classification, infrastructure
probing with anycast inference, throughput and avatar-data separation,
scalability sweeps, end-to-end latency with its breakdown, and
netem-style network-disruption experiments.

Quickstart::

    from repro.core.api import run_two_user_session
    result = run_two_user_session("vrchat", duration_s=30.0)
    print(result.downlink_kbps)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
