"""Fig. 7: downlink throughput and FPS vs number of users (1-15)."""

from repro.measure.record import BLOCKS
from repro.measure.stats import linearity_r2

FIG7 = BLOCKS["fig7"]


def test_fig7_throughput_and_fps(paper_report):
    sweeps = paper_report(FIG7)
    worlds = sweeps["worlds"]
    assert worlds[-1].down_kbps.mean > 4200.0
    hubs_fps = {p.n_users: p.fps.mean for p in sweeps["hubs"]}
    assert hubs_fps[15] < 40.0
    for name, points in sweeps.items():
        assert linearity_r2(
            [p.n_users for p in points], [p.down_kbps.mean for p in points]
        ) > 0.97
