"""Full-profile tables gated against EXPERIMENTS.md.

EXPERIMENTS.md's "Full profile" block pins every driver at the full
profile and seed 1, and every one of the eleven is diffed against it
here. E07, E09 and E11 run no trial sweep, so nothing of theirs is
cached in a store; E07's rows are the 4096-seed enumerations of Lemma
4.1. The other eight are the sweeping drivers; they run serially here
without a store. All eleven take about 17 s together on a 2-core box,
E03 the longest at about 7 s.
"""

import pytest
from helpers import pinned_tables, table_lines

from repro.analysis.experiments import EXPERIMENTS

PINNED_TABLES = pinned_tables("## Full profile")


@pytest.mark.parametrize("name", ["e01", "e02", "e03", "e04", "e05", "e06",
                                  "e07", "e08", "e09", "e10", "e11"])
def test_full_table_matches_pinned(name):
    table = EXPERIMENTS[name](quick=False, seed=1)
    assert table_lines(table.render()) == PINNED_TABLES[name]
