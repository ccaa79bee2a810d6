"""Self-test of the benchmark: golden gate, layer counters, separation.

Run from the root of a checkout (it takes several minutes)::

    python3 perfbench/selftest.py

1. Every workload in :data:`WORKLOADS` (BENCHMARK.json's and two it
   leaves out) passes its golden gate at seed 1, untraced and traced,
   and reports exactly the metrics BENCHMARK.json declares.
2. Each named counter is non-zero on the workload meant to move it,
   and the predicted zeros hold: no ``global_bit`` reads outside
   ``quick``, no GF field built by ``replay``, no store read by
   ``quick``. ``replay`` is served entirely from the store.
3. Separation: with a fixed cost added to every ``GF2m.__init__``, the
   rule BENCHMARK.json fixes (the change's median worse than the
   parent's by more than the bound) flags ``wall_s`` on the workloads
   that build GF fields (:data:`FLAGGED`) and leaves ``replay``, which
   builds none, within its bound.

Exits 1 and names every failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import golden  # noqa: E402
import passes  # noqa: E402

WORK = passes.WORK

WORKLOADS = ("quick", "full-heavy", "full-light", "replay")

#: Per-layer metrics predicted non-zero, by workload (README's map).
NONZERO = {
    "quick": (
        "randomness.gf_fields_built",
        "randomness.gf_build_s",
        "randomness.global_bit_reads",
        "randomness.global_bit_s",
        "randomness.self_s",
        "decomposition.calls",
        "decomposition.s",
        "core.derandomize_s",
        "core.split_s",
        "checkers.calls",
        "checkers.s",
        "graphs.builds",
        "sim.engine_s",
        "runner.sweep_s",
        "runner.trials_fresh",
        "tables.render_s",
    )
    + tuple(f"driver.{name}_s" for name in golden.QUICK),
    "full-heavy": (
        "randomness.gf_fields_built",
        "randomness.gf_build_s",
        "randomness.self_s",
        "decomposition.calls",
        "decomposition.s",
        "graphs.builds",
        "graphs.build_s",
        "runner.sweep_s",
        "runner.trials_fresh",
        "runner.core_util",
        "store.puts",
        "store.put_s",
        "store.open_s",
        "scenarios.compile_s",
        "tables.render_s",
    )
    + tuple(f"driver.{name}_s" for name in golden.HEAVY),
    "full-light": (
        "randomness.gf_fields_built",
        "randomness.gf_build_s",
        "randomness.self_s",
        "decomposition.calls",
        "decomposition.s",
        "graphs.builds",
        "graphs.build_s",
        "sim.engine_s",
        "runner.sweep_s",
        "runner.trials_fresh",
        "runner.core_util",
        "store.puts",
        "store.put_s",
        "store.open_s",
        "scenarios.compile_s",
        "tables.render_s",
    )
    + tuple(f"driver.{name}_s" for name in golden.LIGHT),
    "replay": (
        "sim.engine_s",
        "runner.trials_cached",
        "store.open_s",
        "store.gets",
        "store.get_s",
        "store.hit_ratio",
        "scenarios.compile_s",
        "tables.render_s",
    )
    + tuple(f"driver.{name}_s" for name in golden.SWEEP),
}

#: Per-layer metrics predicted exactly zero, by workload.
ZERO = {
    "quick": ("store.gets", "store.puts"),
    "full-heavy": ("randomness.global_bit_reads", "store.hits"),
    "full-light": ("randomness.global_bit_reads", "store.hits"),
    "replay": (
        "randomness.global_bit_reads",
        "randomness.gf_fields_built",
        "runner.trials_fresh",
        "store.puts",
    ),
}

#: Busy-wait added to each GF2m construction in the separation test.
GF_COST_S = 0.02
#: Whether that cost must flag wall_s, by workload.
FLAGGED = {"quick": True, "full-heavy": True, "full-light": True, "replay": False}


def declared(kind: str) -> Dict[str, dict]:
    """BENCHMARK.json's metrics of one kind, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric for metric in json.load(handle)[kind]}


def worse_by(parent: List[float], change: List[float]) -> float:
    """How much higher the change's median is, as a share of the parent's.

    A lower-is-better metric regresses when this exceeds its bound.
    """
    before = statistics.median(parent)
    return (statistics.median(change) - before) / before


def run_cli(workload: str, trace: int) -> dict:
    """``run.py`` at seed 1: its closing JSON line."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    command += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(problems: List[str]) -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            result = run_cli(workload, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: golden gate failed")
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if set(metrics) != set(declared("per_layer" if trace else "end_to_end")):
                problems.append(f"{label}: reported {sorted(metrics)}")
                continue
            if not trace:
                zeros = [name for name, value in metrics.items() if not value]
                problems += [f"{label}: {name} is 0" for name in zeros]
                continue
            for name in NONZERO[workload]:
                if not metrics[name]:
                    problems.append(f"{label}: {name} is 0, predicted non-zero")
            for name in ZERO[workload]:
                if metrics[name]:
                    problems.append(f"{label}: {name} is {metrics[name]}, not 0")
            if workload == "replay" and (
                metrics["store.hit_ratio"] != 1.0
                or metrics["runner.trials_cached"] != golden.FULL_TRIALS
            ):
                problems.append(f"{label}: not served entirely from the store")
            print(f"{label}: checked", flush=True)


def one_wall(workload: str, store: str, workers: int) -> float:
    """Wall seconds of one in-process pass at seed 1, tables checked."""
    quick, names, _ = passes.WORKLOADS[workload]
    profile = "quick" if quick else "full"
    sweeping = workload in golden.TRIALS
    if sweeping:
        store = tempfile.mkdtemp(dir=WORK)
    try:
        now = time.monotonic()
        record = passes.run_pass(workload, 1, store, workers, spawned_at=now)
    finally:
        if sweeping:
            shutil.rmtree(store)
    got = {name: golden.digest(record["tables"].get(name, "")) for name in names}
    if got != golden.expected(ROOT, profile, 1, names):
        raise SystemExit(f"{workload}: tables differ from golden")
    return record["wall_s"]


def check_separation(problems: List[str]) -> None:
    """Slow every GF(2^m) construction; only GF-bound workloads flag."""
    bound = declared("end_to_end")["wall_s"]["bound"]
    fixture = tempfile.mkdtemp(dir=WORK)
    passes.run_pass("full-sweep", 1, fixture, 2, spawned_at=time.monotonic())
    from repro.randomness import GF2m  # importable once a pass has run

    original = GF2m.__init__

    def slowed(self, m):
        until = time.perf_counter() + GF_COST_S
        while time.perf_counter() < until:
            pass
        original(self, m)

    # (workload, pairs of passes, store, workers); pairs alternate, so
    # host drift hits both sides alike.
    plan = [
        ("quick", 1, "", 1),
        ("full-heavy", 1, "", 2),
        ("full-light", 1, "", 2),
        ("replay", 9, fixture, 1),
    ]
    base: Dict[str, List[float]] = {}
    slow: Dict[str, List[float]] = {}
    try:
        for workload, pairs, store, workers in plan:
            base[workload], slow[workload] = [], []
            for _ in range(pairs):
                base[workload].append(one_wall(workload, store, workers))
                GF2m.__init__ = slowed
                try:
                    slow[workload].append(one_wall(workload, store, workers))
                finally:
                    GF2m.__init__ = original
    finally:
        shutil.rmtree(fixture)
    for workload, _, _, _ in plan:
        share = worse_by(base[workload], slow[workload])
        flagged = share > bound
        verdict = "flagged" if flagged else "within bound"
        print(f"separation {workload}: wall_s {share:+.1%} ({verdict})", flush=True)
        if flagged != FLAGGED[workload]:
            problems.append(f"separation: {workload} wall_s moved {share:+.1%}")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    problems: List[str] = []
    check_runs(problems)
    check_separation(problems)
    for problem in problems:
        print(f"FAIL {problem}", flush=True)
    print("selftest " + ("failed" if problems else "passed"), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
