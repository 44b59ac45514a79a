"""Platform server substrates: placement, control, data, voice, RR."""

from .._lazy import lazy_exports

_EXPORTS = {
    "ControlService": ".control",
    "DATA_PORT": ".forwarding",
    "AvatarDataServer": ".forwarding",
    "InterestScopedServer": ".interest",
    "P2P_PORT_BASE": ".p2p",
    "P2pMesh": ".p2p",
    "P2pPeer": ".p2p",
    "ANYCAST": ".placement",
    "FIXED": ".placement",
    "REGIONAL": ".placement",
    "PlacementDeployment": ".placement",
    "PlacementSpec": ".placement",
    "deploy_placement": ".placement",
    "CLOUD_GAMING_QUALITY": ".remote_rendering",
    "HD_QUALITY": ".remote_rendering",
    "RemoteRenderingServer": ".remote_rendering",
    "VideoQuality": ".remote_rendering",
    "crossover_users": ".remote_rendering",
    "forwarding_downlink_mbps": ".remote_rendering",
    "MemberBinding": ".rooms",
    "Room": ".rooms",
    "RoomFullError": ".rooms",
    "RoomRegistry": ".rooms",
    "ViewportAdaptiveServer": ".viewport_adaptive",
    "SFU_PORT": ".voice",
    "VoiceSfu": ".voice",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
