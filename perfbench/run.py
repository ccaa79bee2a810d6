"""Table-regeneration benchmark: the quick tables and the full-profile sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload full-heavy --seed 1 --seconds 10 --trace 0

Each pass regenerates one workload's tables in a fresh process
(``passes.py``) and is checked against the golden output
(``golden.py``). Passes repeat until ``--seconds`` have gone by; a
``quick`` run makes at least three and a ``replay`` run at least ten.
The last stdout line is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A table that raises or mismatches counts as
failed and makes the exit code 1. README.md describes the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import golden  # noqa: E402
import passes  # noqa: E402
import tracer  # noqa: E402

WORK = passes.WORK
PASSES = passes.__file__

#: Every run ends within this many seconds (a run may take at most 180).
LIMIT_S = 170.0
#: Set-up samples per run: the passes plus set-up-only probe processes.
SETUP_SAMPLES = 5
#: Pool processes of untraced full-sweep passes (the baseline box's nproc).
FULL_WORKERS = 2
#: Untraced passes a run makes at least (otherwise one); each table
#: counts at its fastest over the passes. A replay pass takes a fraction
#: of a second, less than the host's bursts. A sweep pass gains nothing
#: from a repeat: the host's slow spells outlast it (README.md, Noise).
MIN_PASSES = {"quick": 3, "replay": 10}

UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def code_digest() -> str:
    """Digest of the program and the pass script: the fixture cache key."""
    h = hashlib.sha256(golden.tree_digest(os.path.join(ROOT, "src", "repro")).encode())
    with open(PASSES, "rb") as handle:
        h.update(handle.read())
    return h.hexdigest()[:16]


def note(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fastest_pass(records: List[dict], key: str) -> float:
    """A pass's time with every table at its fastest over the passes.

    A shared host slows down in bursts of a few seconds; each table's
    fastest run is the reading those bursts disturbed least.
    """
    return sum(min(r[key][name] for r in records) for name in records[0][key])


def unit(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_util", "_frac")):
        return "ratio"
    return "count"


class Bench:
    """One benchmark run: spawns passes, checks them, keeps the tally."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = golden.fold(seed)
        self.seconds = seconds
        self.deadline = time.monotonic() + LIMIT_S
        quick, self.names, _ = passes.WORKLOADS[workload]
        profile = "quick" if quick else "full"
        self.expected = golden.expected(ROOT, profile, self.seed, self.names)
        self.sweeping = workload in golden.TRIALS
        self.workers = FULL_WORKERS if self.sweeping else 1
        self.attempted = 0
        self.failed = 0
        self.serial = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)

    def scratch(self, label: str) -> str:
        """A fresh path under the work directory."""
        self.serial += 1
        return os.path.join(WORK, "tmp", f"{os.getpid()}-{self.serial}-{label}")

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(
        self,
        workload: str,
        store: str = "",
        workers: int = 1,
        trace: bool = False,
        probe: bool = False,
    ) -> Optional[dict]:
        """Run one pass process; its record, or None if it died."""
        out = self.scratch("pass.json")
        command = [sys.executable, PASSES, "--workload", workload, "--out", out]
        command += ["--seed", str(self.seed), "--workers", str(workers)]
        command += ["--store", store] if store else []
        command += ["--trace"] if trace else []
        command += ["--probe"] if probe else []
        command += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.left()))
        except subprocess.TimeoutExpired:
            # The pass and its pool workers share a session: stop them all.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            note(f"{workload} pass overran the {LIMIT_S:.0f} s limit")
            return None
        if proc.returncode != 0:
            tail = err.decode(errors="replace")[-2000:]
            note(f"{workload} pass exited {proc.returncode}: {tail}")
            return None
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
        os.remove(out)
        return record

    def check(self, record: Optional[dict], label: str, store_ok: bool = True) -> None:
        """Count the pass's tables; each must match its golden digest.

        A failed store check (``store_ok`` False) fails every table of
        the pass, as does a pass that died.
        """
        tables = record["tables"] if record else {}
        errors = record["errors"] if record else {}
        for name in self.names:
            self.attempted += 1
            ok = name in tables and golden.digest(tables[name]) == self.expected[name]
            if ok and store_ok:
                continue
            self.failed += 1
            if name in errors:
                note(f"{label}: {name} raised: {errors[name]}")
            elif name in tables:
                note(f"{label}: {name} differs from its golden table")
        if record is not None and not store_ok:
            note(f"{label}: store check failed")

    def sweep_ok(self, record: Optional[dict], store: str, workload: str) -> bool:
        """A sweep wrote all its trials fresh, as the recorded bytes.

        A sweep of some of the drivers is checked file by file against
        the shard files of the recorded full-profile store.
        """
        if record is None or record["trials_before"] != 0:
            return False
        if record["trials_after"] != golden.TRIALS[workload]:
            return False
        if workload == "full-sweep":
            return golden.tree_digest(store) == golden.expected_store(self.seed)
        recorded = golden.expected_shards(self.seed)
        written = golden.shard_digests(store)
        return all(recorded.get(name) == digest for name, digest in written.items())

    def fixture_dir(self) -> str:
        return os.path.join(WORK, "fixtures", f"{code_digest()}-seed{self.seed}")

    def adopt(self, store: str, record: dict) -> None:
        """Keep a verified full-sweep store as this seed's replay fixture."""
        target = self.fixture_dir()
        if os.path.exists(target):
            shutil.rmtree(store)
            return
        staged = self.scratch("fixture")
        os.makedirs(staged)
        os.rename(store, os.path.join(staged, "store"))
        meta = {
            "tables": record["tables"],
            "store_digest": golden.tree_digest(os.path.join(staged, "store")),
        }
        with open(os.path.join(staged, "meta.json"), "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        try:
            os.rename(staged, target)
        except OSError:  # another run adopted one first
            shutil.rmtree(staged)

    def fixture(self) -> Optional[dict]:
        """The replay store for this seed, written by this checkout's code.

        A full-sweep pass builds it once per code digest and seed (or a
        full-sweep run leaves it behind); it is never committed.
        """
        target = self.fixture_dir()
        if not os.path.exists(target):
            store = self.scratch("store")
            record = self.spawn("full-sweep", store=store, workers=FULL_WORKERS)
            tables = record["tables"] if record else {}
            if not self.sweep_ok(record, store, "full-sweep") or any(
                golden.digest(tables.get(name, "")) != self.expected[name]
                for name in self.names
            ):
                note("could not build the replay fixture")
                shutil.rmtree(store, ignore_errors=True)
                return None
            self.adopt(store, record)
        with open(os.path.join(target, "meta.json"), encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["store"] = os.path.join(target, "store")
        return meta

    def one_pass(self, label: str, trace: bool, meta: Optional[dict]) -> Optional[dict]:
        """Spawn and check one pass; its record, or None if it died."""
        if self.sweeping:
            store = self.scratch("store")
            record = self.spawn(self.workload, store, self.workers, trace)
            ok = self.sweep_ok(record, store, self.workload)
            self.check(record, label, ok)
            if ok:
                record["store_digest"] = golden.tree_digest(store)
            if ok and self.workload == "full-sweep":
                self.adopt(store, record)
            else:
                shutil.rmtree(store, ignore_errors=True)
            return record
        store = meta["store"] if meta else ""
        record = self.spawn(self.workload, store, self.workers, trace)
        ok = meta is None or (
            record is not None
            and record["trials_before"] == golden.FULL_TRIALS
            and record["trials_after"] == golden.FULL_TRIALS
            and record["tables"] == meta["tables"]
        )
        self.check(record, label, ok)
        return record

    def measure(self, trace: bool) -> Dict[str, float]:
        """Passes until ``seconds`` have gone by; the run's metrics.

        With ``trace`` each untraced pass is followed by a traced one,
        whose tables (and store bytes) must equal the untraced pass's.
        """
        meta = None
        if self.workload == "replay":
            meta = self.fixture()
            if meta is None:
                self.attempted += len(self.names)
                self.failed += len(self.names)
                return {}
        plain: List[dict] = []
        traced: List[dict] = []
        least = 1 if trace else MIN_PASSES.get(self.workload, 1)
        begun = time.monotonic()
        longest = 0.0
        while len(plain) < least or time.monotonic() - begun < self.seconds:
            if self.left() < 1.5 * longest:
                break
            started = time.monotonic()
            record = self.one_pass(f"pass {len(plain) + 1}", False, meta)
            if record is None:
                break
            plain.append(record)
            self.report(record, len(plain))
            if trace:
                other = self.one_pass(f"traced pass {len(plain)}", True, meta)
                if other is None:
                    break
                traced.append(other)
                same = other["tables"] == record["tables"]
                if not same or other.get("store_digest") != record.get("store_digest"):
                    note("the traced pass changed tables or store bytes")
                    self.failed += len(self.names)
            longest = max(longest, time.monotonic() - started)
        if meta is not None:
            if golden.tree_digest(meta["store"]) != meta["store_digest"]:
                note("replay changed the store it read")
                self.failed += len(self.names)
        if not plain or (trace and not traced):
            return {}
        calib = statistics.median(r["calib_s"] for r in plain + traced)
        if trace:
            return self.layer_metrics(plain, traced, calib)
        setup = [r["setup_s"] for r in plain] + self.probes(meta, len(plain))
        metrics = {
            "wall_s": fastest_pass(plain, "table_wall_s"),
            "setup_s": statistics.median(setup),
            "cpu_s": fastest_pass(plain, "table_cpu_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        summary = ", ".join(f"{k}={v:.4f}" for k, v in metrics.items())
        print(f"{len(plain)} pass(es): {summary}, host.calib_s={calib:.4f}")
        return metrics

    def probes(self, meta: Optional[dict], have: int) -> List[float]:
        """Set-up times of probe processes, up to SETUP_SAMPLES samples."""
        samples: List[float] = []
        while have + len(samples) < SETUP_SAMPLES and self.left() > 10:
            if meta is not None:
                store = meta["store"]
            else:
                store = self.scratch("probe") if self.sweeping else ""
            probe = self.spawn(self.workload, store=store, probe=True)
            if self.sweeping:
                shutil.rmtree(store, ignore_errors=True)
            if probe is None:
                break
            samples.append(probe["setup_s"])
        return samples

    def layer_metrics(
        self, plain: List[dict], traced: List[dict], calib: float
    ) -> Dict[str, float]:
        """Medians over the traced passes, plus what the pairs show.

        ``trace.overhead_frac`` is the traced passes' wall time over the
        untraced passes', less one. ``runner.core_util`` is the untraced
        passes' CPU time over wall time times workers.
        """
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in tracer.METRICS
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        metrics["runner.core_util"] = statistics.median(
            r["cpu_s"] / (r["wall_s"] * self.workers) for r in plain
        )
        metrics["host.calib_s"] = calib
        return metrics

    @staticmethod
    def report(record: dict, index: int) -> None:
        print(
            f"pass {index}: wall_s={record['wall_s']:.4f} "
            f"setup_s={record['setup_s']:.4f} cpu_s={record['cpu_s']:.4f} "
            f"peak_rss_mb={record['peak_rss_mb']:.1f} "
            f"host.calib_s={record['calib_s']:.4f}",
            flush=True,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(passes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    checkout = [os.path.join(ROOT, "src", "repro", "__init__.py")]
    checkout.append(os.path.join(ROOT, "EXPERIMENTS.md"))
    if not all(os.path.isfile(path) for path in checkout):
        note("run from the root of a checkout: src/repro or EXPERIMENTS.md missing")
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    print(f"--seed {args.seed} runs driver seed {bench.seed}", flush=True)
    metrics = bench.measure(trace=bool(args.trace))
    if not metrics:
        note("no pass completed")
        bench.failed = bench.attempted = max(bench.attempted, len(bench.names))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
