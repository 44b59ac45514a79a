"""Fig. 13: uplink shaping and the TCP-over-UDP priority of Worlds."""

from repro.measure.record import BLOCKS

FIG13 = BLOCKS["fig13"]


def test_fig13_uplink_and_tcp_priority(paper_report):
    bandwidth_run, tcp_run = paper_report(FIG13)
    assert tcp_run.udp_dead and tcp_run.frozen and tcp_run.tcp_recovered
    assert tcp_run.stages[-1].udp_up_kbps.mean < 5.0
    # Uplink restriction also drags the downlink down (U2's recovery).
    assert (
        bandwidth_run.stages[5].down_kbps.mean
        < 0.75 * bandwidth_run.stages[0].down_kbps.mean
    )
