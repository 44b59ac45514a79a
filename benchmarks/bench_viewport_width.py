"""Sec. 6.1: snap-turn detection of AltspaceVR's server viewport width."""

from repro.measure.record import BLOCKS

VIEWPORT = BLOCKS["viewport"]


def test_viewport_width(paper_report):
    detection = paper_report(VIEWPORT)
    assert 135.0 <= detection.estimated_width_deg <= 165.0
