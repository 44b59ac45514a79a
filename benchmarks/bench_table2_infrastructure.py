"""Table 2: network protocols and infrastructure of the five platforms."""

from repro.measure.record import BLOCKS

TABLE2 = BLOCKS["table2"]
REGIONAL = BLOCKS["regional"]


def test_table2_infrastructure(paper_report):
    reports = paper_report(TABLE2)
    assert reports["altspacevr"].data[0].east_rtt.mean > 70.0
    assert bool(reports["recroom"].data[0].anycast)


def test_table2_regional_followup(paper_report):
    """Sec. 4.2's extra probing from Los Angeles and the U.K."""
    probes = paper_report(REGIONAL)
    by_key = {(p.vantage, p.platform): p for p in probes}
    assert by_key[("united-kingdom", "altspacevr")].data_rtt_ms > 130.0
    assert by_key[("united-kingdom", "hubs")].voice_rtt_ms > 130.0
    assert by_key[("united-kingdom", "worlds")].data_server_region == "unavailable"
