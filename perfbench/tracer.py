"""Out-of-band layer spans for one table-regeneration pass.

The benchmark installs wrappers around the public functions of each
layer *at the site where the drivers look them up*. The experiment
drivers import ``make``, ``elkin_neiman``, ``split`` and the rest by
name into :mod:`repro.analysis.experiments`, so those module globals
are replaced there. Methods (``GF2m.__init__``,
``SharedRandomness.global_bit``, ``TrialStore.get``/``put``, ...) are
replaced on their class. Functions a driver imports inside its body
(``deterministic_decomposition``, ``randomized_orientation_engine``,
``run_uniform``) and ``run_trials`` (imported inside
``ScenarioSpec.run``) are replaced on the module the import reads.

Every wrapper opens a span on a stack. A layer's self time is its span
time minus the time of nested spans, so ``randomness.self_s`` excludes
the core code that called into it and ``core.self_s`` excludes the
randomness it read. Wrappers only time and count: arguments and
results pass through untouched, so tables and store bytes are the same
with tracing on (the benchmark checks this on every traced run).
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in report order. Each gets a ``<layer>.self_s`` metric.
LAYERS = (
    "randomness",
    "decomposition",
    "core",
    "checkers",
    "graphs",
    "sim",
    "runner",
    "store",
    "scenarios",
    "analysis",
)

#: Every per-layer metric a traced pass reports, in report order.
METRICS = (
    (
        "randomness.gf_fields_built",
        "randomness.gf_build_s",
        "randomness.global_bit_reads",
        "randomness.global_bit_s",
        "decomposition.calls",
        "decomposition.s",
        "core.derandomize_s",
        "core.split_s",
        "checkers.calls",
        "checkers.s",
        "graphs.builds",
        "graphs.build_s",
        "sim.engine_s",
        "runner.sweep_s",
        "runner.trials_fresh",
        "runner.trials_cached",
        "store.open_s",
        "store.gets",
        "store.get_s",
        "store.hits",
        "store.hit_ratio",
        "store.puts",
        "store.put_s",
        "scenarios.compile_s",
    )
    + tuple(f"driver.e{i:02d}_s" for i in range(1, 12))
    + ("tables.render_s",)
    + tuple(f"{layer}.self_s" for layer in LAYERS)
)

#: Randomness classes used only inside the layer (the read ledger), so
#: tracing them would add wrapper cost and no span information.
_LAYER_INTERNAL = ("BlockStream", "IntervalSet")

_ABSENT = object()


class Tracer:
    """Span stack plus counters for one pass; all state lives here."""

    def __init__(self) -> None:
        # Each frame is [layer, start, time covered by nested spans].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.timers: Dict[str, float] = {}
        self.counts: Dict[str, int] = {"store.hits": 0}
        self._depth: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        fn: Callable,
        layer: str,
        timer: Optional[str] = None,
        counter: Optional[str] = None,
    ) -> Callable:
        """``fn`` inside a span of ``layer``.

        ``timer`` accumulates the span's inclusive time (outermost call
        only, so recursion is not counted twice); ``counter`` counts
        every call. A call nested directly in a span of its own layer
        with no timer opens no frame: it adds nothing to self time.
        """
        stack, self_s, depth = self.stack, self.self_s, self._depth
        timers, counts = self.timers, self.counts
        clock = time.perf_counter
        if timer is not None:
            timers.setdefault(timer, 0.0)
            depth.setdefault(timer, 0)
        if counter is not None:
            counts.setdefault(counter, 0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                counts[counter] += 1
            if timer is None and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            if timer is not None:
                depth[timer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                self_s[layer] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                if timer is not None:
                    depth[timer] -= 1
                    if not depth[timer]:
                        timers[timer] += elapsed

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", "traced")
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def replace(self, owner: Any, name: str, replacement: Any) -> None:
        """Set ``owner.name`` (or ``owner[name]``) until :meth:`close`."""
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = replacement
            return
        self._patches.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, replacement)

    def patch(
        self,
        owner: Any,
        name: str,
        layer: str,
        timer: Optional[str] = None,
        counter: Optional[str] = None,
    ) -> None:
        """Replace ``owner.name`` by a traced version (undone by close)."""
        original = inspect.getattr_static(owner, name)
        if isinstance(original, (classmethod, staticmethod)):
            traced = self.wrap(original.__func__, layer, timer, counter)
            self.replace(owner, name, type(original)(traced))
        else:
            self.replace(owner, name, self.wrap(original, layer, timer, counter))

    def patch_class(self, cls: type, layer: str) -> None:
        """Trace ``__init__`` and every public method ``cls`` defines."""
        done = {name for owner, name, _ in self._patches if owner is cls}
        for name, value in list(vars(cls).items()):
            if not inspect.isfunction(getattr(value, "__func__", value)):
                continue
            if name in done or (name.startswith("_") and name != "__init__"):
                continue
            self.patch(cls, name, layer)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            elif original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def wrap_runner(self, run_trials: Callable) -> Callable:
        """``run_trials`` in a runner span, counting fresh and cached trials.

        A trial is cached when the store served it (a hit during the
        call) and fresh otherwise; without a store every trial is fresh.
        """
        counts = self.counts
        counts.update({"runner.trials_fresh": 0, "runner.trials_cached": 0})
        inner = self.wrap(run_trials, "runner", timer="runner.sweep_s")

        def traced(task: Any, specs: Any, *args: Any, **kwargs: Any) -> Any:
            specs = list(specs)
            hits = counts["store.hits"]
            try:
                return inner(task, specs, *args, **kwargs)
            finally:
                cached = counts["store.hits"] - hits
                counts["runner.trials_cached"] += cached
                counts["runner.trials_fresh"] += len(specs) - cached

        traced.__wrapped__ = run_trials
        return traced

    def wrap_store_get(self, get: Callable) -> Callable:
        """``TrialStore.get`` in a store span, counting gets and hits."""
        counts = self.counts
        inner = self.wrap(get, "store", timer="store.get_s", counter="store.gets")

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = inner(*args, **kwargs)
            if result is not None:
                counts["store.hits"] += 1
            return result

        traced.__wrapped__ = get
        return traced

    def reset(self) -> None:
        """Zero every reading in place (the wrappers hold these objects)."""
        self.stack.clear()
        for readings in (self.self_s, self.timers, self.counts, self._depth):
            for key in readings:
                readings[key] = 0

    def state(self) -> Dict[str, Dict[str, float]]:
        return {"self_s": self.self_s, "timers": self.timers, "counts": self.counts}

    def merge(self, state: Dict[str, Dict[str, float]]) -> None:
        """Add another process's readings to this tracer's."""
        for kind, readings in state.items():
            mine = getattr(self, kind)
            for key, value in readings.items():
                mine[key] = mine.get(key, 0) + value

    def trace_pool_workers(self, dump_dir: str) -> None:
        """Make the sweep runner's pool workers report their spans too.

        The workers fork from the traced pass, wrappers included. The
        pool pickles each trial task by its module-level name, so the
        task is replaced in its module and in the scenario registry
        alike. In a worker the traced task zeroes the forked copy of
        the readings before its first trial and rewrites them to
        ``dump_dir`` after every trial; :meth:`merge` adds the files
        up. Worker times are busy times, summed over processes.
        """
        from repro.scenarios import spec

        parent = os.getpid()
        dump_to: List[str] = []  # this worker's file, once it has one

        def wrap_task(task: Callable) -> Callable:
            def traced(trial: Any) -> Any:
                if os.getpid() != parent and not dump_to:
                    self.reset()
                    name = f"{os.getpid()}-{time.monotonic_ns()}.json"
                    dump_to.append(os.path.join(dump_dir, name))
                try:
                    return task(trial)
                finally:
                    if dump_to:
                        with open(dump_to[0] + ".tmp", "w", encoding="utf-8") as handle:
                            json.dump(self.state(), handle)
                        os.replace(dump_to[0] + ".tmp", dump_to[0])

            traced.__name__ = task.__name__
            traced.__qualname__ = task.__qualname__
            traced.__module__ = task.__module__
            return traced

        for name, (task, free_family) in list(spec._TASKS.items()):
            module = sys.modules[task.__module__]
            if getattr(module, task.__qualname__, None) is not task:
                continue  # not picklable by name, so never sent to a pool
            traced = wrap_task(task)
            self.replace(module, task.__qualname__, traced)
            self.replace(spec._TASKS, name, (traced, free_family))

    def metrics(self) -> Dict[str, float]:
        """Every name in :data:`METRICS` (spans that never ran read 0)."""
        values: Dict[str, float] = {**self.timers, **self.counts}
        for layer, seconds in self.self_s.items():
            values[f"{layer}.self_s"] = seconds
        gets = values.get("store.gets", 0)
        values["store.hit_ratio"] = values["store.hits"] / gets if gets else 0.0
        return {name: float(values.get(name, 0.0)) for name in METRICS}


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary of the imported ``repro``."""
    import repro.analysis.experiments as experiments
    import repro.checkers as checkers
    import repro.core as core
    import repro.core.decomposition as decomposition
    import repro.core.uniform as uniform
    import repro.randomness as randomness
    import repro.sim.batch.runner as runner
    from repro.analysis.tables import Table
    from repro.randomness import GF2m, SharedRandomness
    from repro.scenarios import ScenarioSpec
    from repro.sim.batch import FastEngine, TrialStore
    from repro.sim.engine import SyncEngine
    from repro.structures import Decomposition, SplittingInstance

    patch = tracer.patch
    decomp = ("decomposition", "decomposition.s", "decomposition.calls")

    # randomness: the two metered hot spots first, then the constructor
    # and public methods of every public class.
    patch(
        GF2m,
        "__init__",
        "randomness",
        timer="randomness.gf_build_s",
        counter="randomness.gf_fields_built",
    )
    patch(
        SharedRandomness,
        "global_bit",
        "randomness",
        timer="randomness.global_bit_s",
        counter="randomness.global_bit_reads",
    )
    for name in randomness.__all__:
        value = getattr(randomness, name)
        if inspect.isclass(value) and name not in _LAYER_INTERNAL:
            tracer.patch_class(value, "randomness")

    # graphs, decomposition and core: the names the drivers look up.
    for name in ("make", "assign", "random_regular"):
        patch(experiments, name, "graphs", "graphs.build_s", "graphs.builds")
    for name in (
        "deterministic_decomposition",
        "elkin_neiman",
        "kwise_decomposition",
        "shared_randomness_decomposition",
        "shattering_decomposition",
        "sparse_bits_decomposition",
        "sparse_bits_strong_decomposition",
    ):
        patch(experiments, name, *decomp)
    # E11 imports deterministic_decomposition in its body.
    patch(decomposition, "deterministic_decomposition", *decomp)
    patch(experiments, "exhaustive_derandomize", "core", timer="core.derandomize_s")
    patch(experiments, "split", "core", timer="core.split_s")
    for name in (
        "luby_mis",
        "mis_via_decomposition",
        "random_instance",
        "coloring_via_decomposition",
        "randomized_orientation",
        "deterministic_orientation",
        "seeds_to_failure_curve",
        "trial_coloring",
    ):
        patch(experiments, name, "core")
    patch(core, "randomized_orientation_engine", "core")
    patch(uniform, "run_uniform", "core")

    # checkers and the validity predicates of the structures.
    for name in ("is_sinkless", "is_valid_mis", "is_proper_coloring"):
        patch(experiments, name, "checkers", "checkers.s", "checkers.calls")
    for owner, name in (
        (Decomposition, "is_valid"),
        (Decomposition, "max_weak_diameter"),
        (Decomposition, "max_strong_diameter"),
        (SplittingInstance, "is_satisfied"),
        (checkers.LocalChecker, "check"),
    ):
        patch(owner, name, "checkers", "checkers.s", "checkers.calls")

    # sim engines, the sweep runner, the trial store, scenarios, tables.
    patch(SyncEngine, "run", "sim", timer="sim.engine_s")
    patch(FastEngine, "run", "sim", timer="sim.engine_s")
    tracer.replace(runner, "run_trials", tracer.wrap_runner(runner.run_trials))
    patch(TrialStore, "__init__", "store", timer="store.open_s")
    tracer.replace(TrialStore, "get", tracer.wrap_store_get(TrialStore.get))
    patch(TrialStore, "put", "store", timer="store.put_s", counter="store.puts")
    patch(ScenarioSpec, "compile", "scenarios", timer="scenarios.compile_s")
    patch(ScenarioSpec, "run", "scenarios")
    patch(Table, "render", "analysis", timer="tables.render_s")
