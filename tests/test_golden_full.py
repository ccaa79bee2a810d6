"""Full-profile tables gated against EXPERIMENTS.md.

EXPERIMENTS.md's "Full profile" block pins every driver at the full
profile and seed 1. E07, E09 and E11 run no trial sweep, so nothing of
theirs is cached in a store; E07's rows are the 4096-seed enumerations
of Lemma 4.1. E01, E02, E04 and E05 are the sweeping drivers built on
the Elkin–Neiman top-two and the cluster-diameter checkers (the
bit-parallel multi-source BFS); they run serially here without a store.
All seven take about 7 s together on a 2-core box. The other four sweeping drivers
(E03, E06, E08, E10) are gated only by ``perfbench``'s full workloads.
"""

import pytest
from helpers import pinned_tables, table_lines

from repro.analysis.experiments import EXPERIMENTS

PINNED_TABLES = pinned_tables("## Full profile")


@pytest.mark.parametrize("name", ["e01", "e02", "e04", "e05",
                                  "e07", "e09", "e11"])
def test_full_table_matches_pinned(name):
    table = EXPERIMENTS[name](quick=False, seed=1)
    assert table_lines(table.render()) == PINNED_TABLES[name]
