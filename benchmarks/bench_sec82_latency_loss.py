"""Sec. 8.2: latency and packet-loss disruption QoE."""

from repro.measure.record import BLOCKS

LATENCY_LOSS = BLOCKS["latency-loss"]


def test_sec82_latency_loss_qoe(paper_report):
    results = paper_report(LATENCY_LOSS)
    recroom = results["recroom"]
    lat_300 = next(a for a in recroom if a.added_latency_ms == 300)
    assert lat_300.disturbed
    loss_20 = next(a for a in recroom if a.loss_rate == 0.20)
    assert not loss_20.disturbed
