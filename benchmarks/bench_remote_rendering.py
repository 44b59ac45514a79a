"""Sec. 6.3 ablation: remote rendering vs the forwarding architecture."""

from repro.measure.record import BLOCKS

REMOTE_RENDERING = BLOCKS["remote-rendering"]


def test_remote_rendering_ablation(paper_report):
    study = paper_report(REMOTE_RENDERING)
    downs = [p.down_mbps for p in study["ablation"]]
    assert max(downs) - min(downs) < 0.05 * max(downs)
    assert study["comparison"][-1].remote_rendering_wins
