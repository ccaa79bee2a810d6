"""Importable test helpers (not fixtures).

``conftest.py`` cannot be imported by test modules when ``tests/`` is not
a package (pytest loads it under a synthetic module name), so shared
*plain functions* live here instead. pytest inserts each test file's
directory on ``sys.path`` (rootdir import mode), which makes a bare
``from helpers import family_graphs`` work from every test module.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterator, List, Tuple

from repro.graphs import assign, make
from repro.sim.graph import DistributedGraph

#: The named families every cross-topology test sweeps over.
FAMILY_NAMES = ("path", "cycle", "grid", "gnp-sparse", "gnp-dense",
                "tree", "cliques")


def family_graphs(n: int = 40, seed: int = 1) -> Iterator[Tuple[str, DistributedGraph]]:
    """All named families at size ~n (module-level helper, not a fixture)."""
    for name in FAMILY_NAMES:
        yield name, assign(make(name, n, seed=seed), "random", seed=seed)


#: The pinned tables, one fenced block per profile.
PINNED = os.path.join(os.path.dirname(__file__), os.pardir, "EXPERIMENTS.md")
DONE = re.compile(r"^### done (e\d\d)\b")


def table_lines(text: str) -> List[str]:
    """A rendered table's lines, without blank and ``### done`` lines."""
    return [line for line in text.splitlines()
            if line.strip() and not DONE.match(line)]


def pinned_tables(heading: str) -> Dict[str, List[str]]:
    """Driver name -> its pinned lines from the block under ``heading``.

    ``heading`` is an EXPERIMENTS.md section line such as
    ``"## Quick profile"``; its first fenced block holds one table per
    driver, each introduced by a ``### done eXX`` line.
    """
    with open(PINNED, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index(heading)
    fence = next(i for i in range(start, len(lines))
                 if lines[i].startswith("```"))
    tables: Dict[str, List[str]] = {}
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
