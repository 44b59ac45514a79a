"""Fig. 12: Worlds under staged downlink bandwidth limits (Arena Clash)."""

from repro.measure.record import BLOCKS

FIG12 = BLOCKS["fig12"]


def test_fig12_downlink_disruption(paper_report):
    run = paper_report(FIG12)
    baseline, tight, recovery = run.stages[0], run.stages[5], run.stages[-1]
    assert tight.up_kbps.mean < 0.6 * baseline.up_kbps.mean
    assert tight.cpu_pct.mean > baseline.cpu_pct.mean + 20
    assert tight.fps.mean < 60.0
    assert recovery.fps.mean > 65.0
