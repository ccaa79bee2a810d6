"""The quick-profile tables regenerate EXPERIMENTS.md exactly.

EXPERIMENTS.md pins the output of every driver at the quick profile and
seed 1 in its "Quick profile" block. Each driver runs here at those
settings and its rendered table must equal the pinned one line for
line; blank lines and the ``### done eXX in Ns`` timing lines are
ignored, since they are not part of a table.
"""

import os
import re

import pytest

from repro.analysis.experiments import EXPERIMENTS

PINNED = os.path.join(os.path.dirname(__file__), os.pardir, "EXPERIMENTS.md")
DONE = re.compile(r"^### done (e\d\d)\b")
DRIVERS = [f"e{i:02d}" for i in range(1, 12)]


def table_lines(text):
    return [line for line in text.splitlines()
            if line.strip() and not DONE.match(line)]


def pinned_quick_tables():
    """Driver name -> its pinned lines from the "Quick profile" block."""
    with open(PINNED, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("## Quick profile")
    fence = next(i for i in range(start, len(lines))
                 if lines[i].startswith("```"))
    tables = {}
    current = None
    for line in lines[fence + 1:]:
        if line.startswith("```"):
            break
        match = DONE.match(line)
        if match:
            current = tables.setdefault(match.group(1), [])
        elif current is not None and line.strip():
            current.append(line)
    return tables


PINNED_TABLES = pinned_quick_tables()


def test_block_pins_every_driver():
    assert sorted(PINNED_TABLES) == DRIVERS


@pytest.mark.parametrize("name", DRIVERS)
def test_quick_table_matches_pinned(name):
    table = EXPERIMENTS[name](quick=True, seed=1)
    assert table_lines(table.render()) == PINNED_TABLES[name]
