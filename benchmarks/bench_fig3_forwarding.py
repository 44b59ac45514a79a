"""Fig. 3: U1's uplink mirrored in U2's downlink (direct forwarding)."""

from repro.measure.record import BLOCKS

FIG3 = BLOCKS["fig3"]


def test_fig3_forwarding(paper_report):
    evidence = paper_report(FIG3)
    assert evidence["recroom"].corr > 0.55
    assert 0.4 < evidence["worlds"].down_up_ratio < 0.75
