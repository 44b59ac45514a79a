"""Fig. 8: CPU/GPU utilization and memory footprint vs number of users."""

from repro.measure.record import BLOCKS

FIG8 = BLOCKS["fig8"]


def test_fig8_resources(paper_report):
    sweeps = paper_report(FIG8)
    cpu_at_15 = {name: points[-1].cpu_pct.mean for name, points in sweeps.items()}
    assert max(cpu_at_15, key=cpu_at_15.get) == "hubs"
    altspace = sweeps["altspacevr"]
    cpu_growth = altspace[-1].cpu_pct.mean - altspace[0].cpu_pct.mean
    gpu_growth = altspace[-1].gpu_pct.mean - altspace[0].gpu_pct.mean
    assert gpu_growth > cpu_growth
