"""Golden outputs the benchmark checks every pass against.

At the pinned seed 1 the reference is EXPERIMENTS.md itself: its
"Quick profile" block for ``quick`` and the eight sweeping tables of
its "Full profile" block for ``full-sweep`` and ``replay``, compared
line for line with ``### done`` lines and blank lines ignored. Every
other seed is folded onto one of :data:`POOL` driver seeds whose table
and store digests ``record.py`` wrote into ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Dict, Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

#: Number of distinct driver seeds; --seed n runs driver seed fold(n).
POOL = 8
PINNED_SEED = 1

QUICK = tuple(f"e{i:02d}" for i in range(1, 12))
#: The drivers with a per-seed trial sweep (SWEEPING in the drivers).
SWEEP = ("e01", "e02", "e03", "e04", "e05", "e06", "e08", "e10")
#: Trials a full-profile sweep of SWEEP computes, at every seed.
FULL_TRIALS = 1072
#: The sweep's two halves, each a workload of its own: the two drivers
#: with the costliest trials, and the other six with many cheap ones.
HEAVY = ("e02", "e05")
LIGHT = ("e01", "e03", "e04", "e06", "e08", "e10")
#: Trials a full-profile sweep of each sweeping workload computes, at
#: every seed.
TRIALS = {"full-sweep": FULL_TRIALS, "full-heavy": 222, "full-light": 850}

_BLOCKS = {"quick": "## Quick profile", "full": "## Full profile"}
_DONE = re.compile(r"^### done (e\d\d)\b")


def fold(seed: int) -> int:
    """The driver seed a benchmark ``--seed`` runs: 1..POOL."""
    return (seed - PINNED_SEED) % POOL + PINNED_SEED


def table_lines(text: str) -> List[str]:
    """A rendered table's lines, blank and ``### done`` lines dropped."""
    return [
        line for line in text.splitlines() if line.strip() and not _DONE.match(line)
    ]


def digest(text: str) -> str:
    """Digest of a rendered table, blind to blank lines."""
    joined = "\n".join(table_lines(text)).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()[:32]


def pinned_tables(markdown: str, profile: str) -> Dict[str, str]:
    """The tables of one profile block of EXPERIMENTS.md, by driver."""
    lines = markdown.splitlines()
    start = lines.index(_BLOCKS[profile])
    fence = next(i for i in range(start, len(lines)) if lines[i].startswith("```"))
    tables: Dict[str, List[str]] = {}
    current: Optional[str] = None
    for line in lines[fence + 1 :]:
        if line.startswith("```"):
            break
        match = _DONE.match(line)
        if match:
            current = match.group(1)
            tables[current] = []
        elif current is not None:
            tables[current].append(line)
    return {name: "\n".join(body) for name, body in tables.items()}


def load_digests() -> Dict[str, Dict[str, object]]:
    """``digests.json``: {profile: {seed: {driver: digest}}, store, shards}."""
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def expected(
    root: str, profile: str, seed: int, names: Iterable[str]
) -> Dict[str, str]:
    """Expected table digest per driver for ``profile`` at driver seed."""
    names = list(names)
    if seed == PINNED_SEED:
        with open(os.path.join(root, "EXPERIMENTS.md"), encoding="utf-8") as handle:
            pinned = pinned_tables(handle.read(), profile)
        return {name: digest(pinned[name]) for name in names}
    recorded = load_digests()[profile][str(seed)]
    return {name: recorded[name] for name in names}


def expected_store(seed: int) -> str:
    """Recorded digest of the full-profile store a sweep writes."""
    return load_digests()["store"][str(seed)]


def expected_shards(seed: int) -> Dict[str, str]:
    """Recorded digest of each shard file of that full-profile store."""
    return load_digests()["shards"][str(seed)]


def shard_digests(store: str) -> Dict[str, str]:
    """Digest of each shard file of a JSONL store, by file name.

    A store keeps one shard file per trial task, so a sweep of some of
    the drivers writes the same shard files as a sweep of all of them.
    """
    shards = os.path.join(store, "shards")
    digests = {}
    for name in os.listdir(shards):
        with open(os.path.join(shards, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()[:32]
    return digests


def tree_digest(path: str) -> str:
    """Digest of every file under ``path``: relative names and bytes."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode("utf-8") + b"\0")
            with open(full, "rb") as handle:
                h.update(handle.read())
            h.update(b"\0")
    return h.hexdigest()[:32]
