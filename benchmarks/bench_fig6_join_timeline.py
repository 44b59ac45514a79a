"""Fig. 6: throughput as users join one by one; U1 turns away at 250 s."""

from repro.measure.record import BLOCKS

FIG6 = BLOCKS["fig6"]


def test_fig6_join_timelines(paper_report):
    timelines = paper_report(FIG6)
    altspace = timelines["altspacevr"]
    assert altspace.down_after_turn_kbps < 0.6 * altspace.down_before_turn_kbps
    vrchat = timelines["vrchat"]
    assert vrchat.down_after_turn_kbps > 0.8 * vrchat.down_before_turn_kbps
