"""Benchmark support: collect each experiment's rendered paper artifact.

``bench_paper_record.py`` runs each block of the paper record
(``repro.measure.record``) through the ``paper_report`` fixture, which
times the run and renders its result with the block's renderer, and
then runs the block's check on the result.  The renderings are
sim-deterministic: they are printed in the terminal summary, written
to ``benchmarks/RESULTS.txt``, the committed paper record, which a
full run regenerates byte for byte, and copied into EXPERIMENTS.md
between ``<!-- record:NAME -->`` markers.  A run that misses any block
(a ``-k`` selection) leaves both files as they are.

Wall-clock benchmarks (engine speedups, observability overhead)
register through ``timing_report`` instead: their blocks are printed
in the terminal summary only, so timing noise never reaches the record.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.measure.record import BLOCKS, fill_markers, format_block

_REPORTS: dict = {}
_TIMINGS: list = []
RESULTS_PATH = pathlib.Path(__file__).parent / "RESULTS.txt"
EXPERIMENTS_PATH = RESULTS_PATH.parent.parent / "EXPERIMENTS.md"


@pytest.fixture
def paper_report(benchmark):
    """Call with a record block: runs it once under the benchmark timer,
    registers its rendering, and returns the result for its check."""

    def run(block):
        result = benchmark.pedantic(block.run, rounds=1, iterations=1)
        _REPORTS[block.name] = block.render(result)
        return result

    return run


@pytest.fixture
def timing_report():
    """Call with (title, text) to show a wall-clock block in the summary."""

    def register(title: str, text: str) -> None:
        _TIMINGS.append((title, text))

    return register


def _render(blocks: list) -> str:
    return "\n" + "\n\n".join(format_block(title, text) for title, text in blocks)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _TIMINGS:
        terminalreporter.write_line(_render(_TIMINGS))
    if not _REPORTS:
        return
    output = _render(
        [(block.title, _REPORTS[name]) for name, block in BLOCKS.items() if name in _REPORTS]
    )
    terminalreporter.write_line(output)
    if len(_REPORTS) < len(BLOCKS):
        terminalreporter.write_line(
            f"\n[{len(_REPORTS)} of {len(BLOCKS)} record blocks ran: "
            f"{RESULTS_PATH.name} and {EXPERIMENTS_PATH.name} left unchanged]"
        )
        return
    RESULTS_PATH.write_text(output + "\n")
    EXPERIMENTS_PATH.write_text(fill_markers(EXPERIMENTS_PATH.read_text(), _REPORTS))
    terminalreporter.write_line(
        f"\n[paper artifacts written to {RESULTS_PATH} and {EXPERIMENTS_PATH.name}]"
    )
