"""Sharded-sweep smoke: 2 shards + merge must equal the unsharded run.

CI runs this after the test suite: a quick sweep and the scaled
``crash-midround`` library scenario are each computed three ways —
cold (no store), into one single-host store, and as two host-style
shards merged into one store and replayed — and the results,
aggregates, cache behaviour and stored records are asserted identical.
The store directories are left on disk so CI can upload them as an
artifact next to the ``BENCH_*.json`` records.

Usage::

    PYTHONPATH=src python scripts_shard_smoke.py [--dir sweep-store]
"""
import argparse
import os
import shutil
import sys

from repro.scenarios import load_named
from repro.sim.batch import (
    TrialStore,
    aggregate,
    flood_min_trial,
    grid,
    luby_mis_trial,
    merge_stores,
    record_digest,
    run_trials,
)


def record_set(store):
    """The store's record digests, sorted: its content, whatever the order."""
    return sorted(record_digest(record) for record in store.records())


def check_leg(label, root, sweeps):
    """Shard ``sweeps`` over two host stores, merge, replay, compare.

    ``sweeps`` is a list of ``(name, run)`` pairs; ``run(store, shard)``
    runs one sweep and returns its results.
    """
    host0 = TrialStore(f"{root}/host0")
    host1 = TrialStore(f"{root}/host1")
    single = TrialStore(f"{root}/single")
    merged = TrialStore(f"{root}/merged")

    total = 0
    for _name, run in sweeps:
        run(host0, (0, 2))
        run(host1, (1, 2))
        total += len(run(single, None))
    stats = merge_stores(merged, [host0, host1])
    print(f"{label}: merged shards: {stats['added']} added, "
          f"{stats['duplicate']} duplicate")
    assert stats["added"] == total, (stats, total)

    for name, run in sweeps:
        cold = run(None, None)
        replayed = run(merged, None)
        assert replayed == cold, f"{name}: shard+merge != unsharded"
        assert aggregate(replayed) == aggregate(cold), name
    assert len(merged) == total, "replay recomputed cached trials"
    assert record_set(merged) == record_set(single), (
        f"{label}: merged store records differ from the single-host store")
    print(merged.describe())
    for store in (host0, host1, single, merged):
        store.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default="sweep-store",
                        help="store root (kept for artifact upload)")
    args = parser.parse_args(argv)
    if os.path.isdir(args.dir):
        # A warm store from a previous run would make every merge a
        # duplicate and fail the added==total assertion below; the
        # smoke must be rerunnable against the same --dir.
        shutil.rmtree(args.dir)

    def trials(task, specs):
        return lambda store, shard: run_trials(task, specs, store=store,
                                               shard=shard)

    check_leg("sweeps", args.dir, [
        ("flood_min_trial",
         trials(flood_min_trial, grid(["cycle", "gnp-sparse"], [16, 24],
                                      range(3), radius=12))),
        ("luby_mis_trial",
         trials(luby_mis_trial, grid(["expander"], [16], range(3)))),
    ])

    scenario = load_named("crash-midround").scaled(max_size=24, max_count=3)
    check_leg("scenario", f"{args.dir}/scenario", [
        (scenario.name,
         lambda store, shard: scenario.run(store=store, shard=shard)),
    ])

    print("sharded-sweep smoke OK: 2-shard merges equal the unsharded runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
