"""Fig. 9: large-scale event on the private Hubs server (up to 28 users)."""

from repro.measure.record import BLOCKS
from repro.measure.stats import linearity_r2, percent_change

FIG9 = BLOCKS["fig9"]
USER_COUNTS = FIG9.kwargs["user_counts"]


def test_fig9_hubs_large_scale(paper_report):
    points = paper_report(FIG9)
    downs = [p.down_kbps.mean for p in points]
    assert linearity_r2(USER_COUNTS, downs) > 0.97
    assert downs[-1] > 1800.0
    assert percent_change(points[0].fps.mean, points[-1].fps.mean) < -20.0
