"""Simulated network substrate: geography, stack, tools.

The public surface mirrors what the paper's measurement methodology
touches: hosts and links, UDP/TCP/TLS/HTTPS/RTP protocols, a netem
qdisc, and the ping/traceroute probing tools.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "AddressRegistry": ".address",
    "AnycastGroup": ".address",
    "Endpoint": ".address",
    "IPAddress": ".address",
    "Provider": ".address",
    "Resolver": ".dns",
    "ALL_SITES": ".geo",
    "EAST_US": ".geo",
    "EUROPE_UK": ".geo",
    "LOS_ANGELES": ".geo",
    "MIDDLE_EAST": ".geo",
    "NORTH_US": ".geo",
    "WEST_US": ".geo",
    "Location": ".geo",
    "haversine_km": ".geo",
    "nearest_site": ".geo",
    "HttpsClient": ".http",
    "HttpsConnection": ".http",
    "HttpsServer": ".http",
    "Link": ".link",
    "NetemQdisc": ".netem",
    "AccessPoint": ".node",
    "Host": ".node",
    "Node": ".node",
    "Router": ".node",
    "MTU_PAYLOAD": ".packet",
    "Packet": ".packet",
    "Protocol": ".packet",
    "TCP_MSS": ".packet",
    "icmp_packet_size": ".packet",
    "tcp_packet_size": ".packet",
    "udp_packet_size": ".packet",
    "PingResult": ".ping",
    "ProbeTool": ".ping",
    "RtcpPeer": ".rtp",
    "RtpStream": ".rtp",
    "TcpConnection": ".tcp",
    "TcpListener": ".tcp",
    "TlsSession": ".tls",
    "record_overhead": ".tls",
    "ACCESS_BANDWIDTH": ".topology",
    "BACKBONE_BANDWIDTH": ".topology",
    "Network": ".topology",
    "TracerouteResult": ".traceroute",
    "TracerouteTool": ".traceroute",
    "UdpSocket": ".udp",
    "WebRtcSession": ".webrtc",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
