"""Table 3: two-user throughput, resolution, and avatar bitrate."""

from repro.measure.record import BLOCKS

TABLE3 = BLOCKS["table3"]


def test_table3_throughput(paper_report):
    rows_by_name = paper_report(TABLE3)
    assert rows_by_name["worlds"].up_kbps.mean > 10 * rows_by_name["vrchat"].up_kbps.mean
