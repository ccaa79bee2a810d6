"""The quick-profile tables regenerate EXPERIMENTS.md exactly.

EXPERIMENTS.md pins the output of every driver at the quick profile and
seed 1 in its "Quick profile" block. Each driver runs here at those
settings and its rendered table must equal the pinned one line for
line; blank lines and the ``### done eXX in Ns`` timing lines are
ignored, since they are not part of a table.
"""

import pytest
from helpers import pinned_tables, table_lines

from repro.analysis.experiments import EXPERIMENTS

DRIVERS = [f"e{i:02d}" for i in range(1, 12)]
PINNED_TABLES = pinned_tables("## Quick profile")


def test_block_pins_every_driver():
    assert sorted(PINNED_TABLES) == DRIVERS


@pytest.mark.parametrize("name", DRIVERS)
def test_quick_table_matches_pinned(name):
    table = EXPERIMENTS[name](quick=True, seed=1)
    assert table_lines(table.render()) == PINNED_TABLES[name]
