"""The full-profile tables of the drivers that store nothing.

EXPERIMENTS.md's "Full profile" block pins every driver at the full
profile and seed 1. E07, E09 and E11 run no trial sweep, so nothing of
theirs is cached in a store and they regenerate here in about 2 s.
E07's rows are the 4096-seed enumerations of Lemma 4.1. The sweeping
drivers take tens of seconds at this profile and are not run here.
"""

import pytest
from helpers import pinned_tables, table_lines

from repro.analysis.experiments import EXPERIMENTS

PINNED_TABLES = pinned_tables("## Full profile")


@pytest.mark.parametrize("name", ["e07", "e09", "e11"])
def test_full_table_matches_pinned(name):
    table = EXPERIMENTS[name](quick=False, seed=1)
    assert table_lines(table.render()) == PINNED_TABLES[name]
