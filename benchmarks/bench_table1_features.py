"""Table 1: platform feature comparison."""

from repro.measure.record import BLOCKS

TABLE1 = BLOCKS["table1"]


def test_table1_features(paper_report):
    rows = paper_report(TABLE1)
    assert len(rows) == 5
