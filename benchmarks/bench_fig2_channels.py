"""Fig. 2: control/data channel throughput across welcome -> event."""

from repro.measure.record import BLOCKS

FIG2 = BLOCKS["fig2"]


def test_fig2_channel_timelines(paper_report):
    timelines = paper_report(FIG2)
    vrchat = timelines["vrchat"]
    join = int(vrchat.event_join_at)
    assert sum(vrchat.data_down_kbps[:join]) < 5.0
    assert sum(vrchat.data_down_kbps[join + 10 :]) > 100.0
