"""Ablation: the three candidate scalability architectures (Sec. 6.2/6.3).

Not a paper figure — an ablation of the design alternatives the paper
discusses: forwarding (today), P2P ("the scalability issues ... will
remain"), interest-scoped rates (Donnybrook-style), and remote
rendering (covered by bench_remote_rendering).
"""

from repro.measure.record import BLOCKS

SOLUTIONS = BLOCKS["solutions"]
VIEWPORT_TRADEOFF = BLOCKS["viewport-tradeoff"]


def test_solutions_ablation(paper_report):
    results = paper_report(SOLUTIONS)
    p2p = results["p2p"]
    assert p2p[-1].viewer_up_kbps > 5 * p2p[0].viewer_up_kbps  # uplink scales
    assert all(point.server_forwarded_kbps == 0 for point in p2p)
    interest = results["interest"]
    forwarding = results["forwarding"]
    assert interest[-1].viewer_down_kbps < 0.6 * forwarding[-1].viewer_down_kbps


def test_viewport_prediction_tradeoff(paper_report):
    points = paper_report(VIEWPORT_TRADEOFF)
    bare, widened, predicted = points
    assert bare.missing_fraction > 0.05
    assert widened.missing_fraction < 0.02
    assert predicted.missing_fraction < 0.02
    assert predicted.savings_fraction > widened.savings_fraction
