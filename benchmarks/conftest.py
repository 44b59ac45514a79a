"""Benchmark support: collect each experiment's rendered paper artifact.

Every paper benchmark regenerates one table or figure from the paper
and registers its textual rendering through the ``paper_report``
fixture.  Those renderings are sim-deterministic: they are printed in
the terminal summary and written to ``benchmarks/RESULTS.txt``, the
committed paper record, which a full run regenerates byte for byte.

Wall-clock benchmarks (engine speedups, observability overhead)
register through ``timing_report`` instead: their blocks are printed
in the terminal summary only, so timing noise never reaches the record.
"""

from __future__ import annotations

import pathlib

import pytest

_REPORTS: list = []
_TIMINGS: list = []
RESULTS_PATH = pathlib.Path(__file__).parent / "RESULTS.txt"


@pytest.fixture
def paper_report():
    """Call with (title, text) to register a rendered paper artifact."""

    def register(title: str, text: str) -> None:
        _REPORTS.append((title, text))

    return register


@pytest.fixture
def timing_report():
    """Call with (title, text) to show a wall-clock block in the summary."""

    def register(title: str, text: str) -> None:
        _TIMINGS.append((title, text))

    return register


def _render(blocks: list) -> str:
    lines = []
    for title, text in blocks:
        lines.append("")
        lines.append("=" * 78)
        lines.append(title)
        lines.append("=" * 78)
        lines.append(text)
    return "\n".join(lines)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _TIMINGS:
        terminalreporter.write_line(_render(_TIMINGS))
    if not _REPORTS:
        return
    output = _render(_REPORTS)
    terminalreporter.write_line(output)
    RESULTS_PATH.write_text(output + "\n")
    terminalreporter.write_line(f"\n[paper artifacts written to {RESULTS_PATH}]")
