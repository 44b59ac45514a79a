"""Traffic capture and analysis at the AP vantage point."""

from .._lazy import lazy_exports

_EXPORTS = {
    "CONTROL": ".classify",
    "DATA": ".classify",
    "ClassifiedFlow": ".classify",
    "channel_flows": ".classify",
    "channel_records": ".classify",
    "classify_by_activity": ".classify",
    "classify_by_protocol": ".classify",
    "protocol_label": ".classify",
    "Flow": ".flows",
    "FlowTable": ".flows",
    "StreamingFlowTable": ".flows",
    "PcapPacket": ".pcap",
    "export_sniffer": ".pcap",
    "read_pcap": ".pcap",
    "write_pcap": ".pcap",
    "DOWNLINK": ".sniffer",
    "PacketRecord": ".sniffer",
    "Sniffer": ".sniffer",
    "UPLINK": ".sniffer",
    "BinAccumulator": ".timeseries",
    "ThroughputSeries": ".timeseries",
    "average_kbps": ".timeseries",
    "correlation": ".timeseries",
    "throughput_series": ".timeseries",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
