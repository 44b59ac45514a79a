"""Table 4: end-to-end latency and its breakdown (incl. private Hubs)."""

from repro.measure.record import BLOCKS, TABLE4_PAPER

TABLE4 = BLOCKS["table4"]


def test_table4_latency(paper_report):
    results = paper_report(TABLE4)
    e2e = {name: results[name].e2e.mean for name in TABLE4_PAPER}
    assert e2e["hubs"] > e2e["altspacevr"] > e2e["worlds"] > e2e["recroom"]
