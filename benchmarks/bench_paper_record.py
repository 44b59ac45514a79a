"""The paper record: every block of :mod:`repro.measure.record` run,
rendered and checked against the shape the paper claims for it.

One test per block, named after it (``-k fig7`` runs Fig. 7 alone);
``conftest.py`` writes the renderings to RESULTS.txt and EXPERIMENTS.md
once every block has run.
"""

import pytest

from repro.measure.record import BLOCKS


@pytest.mark.parametrize("block", list(BLOCKS.values()), ids=list(BLOCKS))
def test_paper_record(block, paper_report):
    block.check(paper_report(block))
