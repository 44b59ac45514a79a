"""Fig. 11: end-to-end latency vs number of users (2-7)."""

from repro.measure.record import BLOCKS

FIG11 = BLOCKS["fig11"]


def test_fig11_latency_scaling(paper_report):
    results = paper_report(FIG11)
    for name, series in results.items():
        e2e = [item.e2e.mean for item in series]
        assert e2e == sorted(e2e), name
    hubs = [item.e2e.mean for item in results["hubs"]]
    assert hubs[-1] - hubs[0] > 30.0
