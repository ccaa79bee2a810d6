"""One pass of a workload's tables, run in a fresh process.

``run.py`` starts this script once per pass, the way a user starts
``scripts_run_experiments.py``: every pass pays its own imports, and
its CPU time and peak memory are those of one process and its pool
workers. The record goes to ``--out`` as JSON; checking it against the
golden output is ``run.py``'s job.

Workloads (README.md says why each exists):

- ``quick``: all 11 drivers, quick profile, no store.
- ``full-sweep``: the 8 sweeping drivers, full profile, into the fresh
  JSONL store ``--store``.
- ``full-heavy``, ``full-light``: the same for e02 and e05 alone, and
  for the other six sweeping drivers.
- ``replay``: the same 8 tables rendered from the store ``--store``
  that a full sweep wrote; every trial is a cache hit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)
import golden  # noqa: E402
import tracer as tracing  # noqa: E402

#: name -> (quick profile, drivers, uses a store)
WORKLOADS = {
    "quick": (True, golden.QUICK, False),
    "full-sweep": (False, golden.SWEEP, True),
    "full-heavy": (False, golden.HEAVY, True),
    "full-light": (False, golden.LIGHT, True),
    "replay": (False, golden.SWEEP, True),
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed reading only.

    Printed next to each pass to explain a slow host; no metric is
    ever rescaled by it.
    """
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_pass(
    workload: str,
    seed: int,
    store_dir: str = "",
    workers: int = 1,
    trace: bool = False,
    spawned_at: float = 0.0,
    probe: bool = False,
) -> dict:
    """Import, open the store, run the drivers; return the pass record.

    ``setup_s`` runs from ``spawned_at`` (the parent's monotonic clock
    just before it started this process) to the first driver call; a
    ``probe`` stops there. Each table's wall and CPU time are recorded
    on their own. A driver exception is recorded for its table, so one
    failing table does not hide the others.
    """
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.analysis.experiments import EXPERIMENTS
    from repro.sim.batch import TrialStore

    quick, names, uses_store = WORKLOADS[workload]
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
        os.makedirs(WORK, exist_ok=True)
        dumps = tempfile.mkdtemp(dir=WORK)
        tracer.trace_pool_workers(dumps)
    try:
        store = TrialStore(store_dir) if uses_store else None
        trials_before = len(store) if store is not None else 0
        record: dict = {"setup_s": time.monotonic() - spawned_at}
        if probe:
            return record
        record["calib_s"] = calibrate()
        tables, errors, walls, cpus = {}, {}, {}, {}
        for name in names:
            driver = EXPERIMENTS[name]
            if tracer is not None:
                driver = tracer.wrap(driver, "analysis", timer=f"driver.{name}_s")
            wall0, cpu0 = time.perf_counter(), cpu_s()
            try:
                table = driver(quick=quick, seed=seed, workers=workers, store=store)
                tables[name] = table.render()
            except Exception:  # recorded and counted as a failed table
                errors[name] = traceback.format_exc()
            walls[name] = time.perf_counter() - wall0
            cpus[name] = cpu_s() - cpu0
        record.update(
            tables=tables,
            errors=errors,
            table_wall_s=walls,
            table_cpu_s=cpus,
            wall_s=sum(walls.values()),
            cpu_s=sum(cpus.values()),
            peak_rss_mb=peak_rss_mb(),
        )
        if store is not None:
            store.close()
            record.update(trials_before=trials_before, trials_after=len(store))
        if tracer is not None:
            for name in os.listdir(dumps):
                with open(os.path.join(dumps, name), encoding="utf-8") as handle:
                    tracer.merge(json.load(handle))
            record["layers"] = tracer.metrics()
        return record
    finally:
        if tracer is not None:
            tracer.close()
            shutil.rmtree(dumps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True, help="driver seed")
    parser.add_argument("--store", default="")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = run_pass(
        args.workload,
        args.seed,
        store_dir=args.store,
        workers=args.workers,
        trace=args.trace,
        spawned_at=args.spawned_at,
        probe=args.probe,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
