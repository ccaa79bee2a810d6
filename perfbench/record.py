"""Record the golden digests of every pool seed into ``digests.json``.

Run from the root of a checkout whose tables are known good::

    python3 perfbench/record.py

For each driver seed 1..POOL it regenerates the quick tables and a
full-profile sweep into a fresh store, and records the digest of every
table, of the store's bytes and of each of its shard files. Seed 1 must
first reproduce the pinned EXPERIMENTS.md tables, or nothing is
written. Re-record only when the tables are meant to change; the
benchmark checks every pass of every seed against these digests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import golden  # noqa: E402
import passes  # noqa: E402

WORK = passes.WORK


def one_pass(workload: str, seed: int, store: str = "") -> dict:
    """An in-process pass; exits if any table raised."""
    now = time.monotonic()
    record = passes.run_pass(workload, seed, store, workers=2, spawned_at=now)
    if record["errors"]:
        raise SystemExit(f"{workload} seed {seed}: {record['errors']}")
    return record


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    digests: dict = {"quick": {}, "full": {}, "store": {}, "shards": {}}
    for seed in range(golden.PINNED_SEED, golden.PINNED_SEED + golden.POOL):
        quick = one_pass("quick", seed)
        store = tempfile.mkdtemp(dir=WORK)
        try:
            full = one_pass("full-sweep", seed, store)
            if full["trials_after"] != golden.FULL_TRIALS:
                raise SystemExit(f"seed {seed}: {full['trials_after']} trials")
            digests["store"][str(seed)] = golden.tree_digest(store)
            digests["shards"][str(seed)] = golden.shard_digests(store)
        finally:
            shutil.rmtree(store)
        for profile, record, names in (
            ("quick", quick, golden.QUICK),
            ("full", full, golden.SWEEP),
        ):
            got = {name: golden.digest(record["tables"][name]) for name in names}
            if seed == golden.PINNED_SEED:
                if got != golden.expected(ROOT, profile, seed, names):
                    raise SystemExit(f"seed 1 {profile} tables differ from the pins")
            digests[profile][str(seed)] = got
        print(f"seed {seed}: recorded", flush=True)
    with open(golden.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
