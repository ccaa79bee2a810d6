"""Batch simulation: CSR topology, the fast engines, and seed sweeps.

Freeze the static network structure once (:class:`CSRGraph`), run node
programs on it without per-round allocation churn (:class:`FastEngine`,
a drop-in :class:`~repro.sim.engine.SyncEngine` replacement), execute
data-parallel programs as whole-round numpy passes
(:class:`ArrayEngine` running :class:`ArrayProgram`\\ s, bit-identical
to FastEngine), fuse those passes into kernels with an optional JIT
backend (:class:`KernelEngine`, :mod:`~repro.sim.batch.kernels`), and
break the simulated network on a seeded schedule
(:class:`RoundFaultPlan`).

Sweeps map a task over a (family, size, seed) grid, optionally across
processes (:func:`run_trials`). A :class:`TrialStore` makes a sweep
durable: each completed trial is appended and fsynced, so a killed run
resumes where it stopped. :func:`shard` splits a grid into
deterministic slices for independent hosts, and :func:`merge_stores`
folds their stores back into one; that is the whole distribution
layer.
"""

from .array import ArrayContext, ArrayEngine, ArrayProgram, Sends
from .csr import CSRGraph, ensure_csr
from .kernels import (
    GRAPH_CACHE_ENV,
    ROUND_ENGINES,
    GraphCache,
    KernelContext,
    KernelEngine,
    KernelWorkspace,
    default_graph_cache,
    native_available,
    native_unavailable_reason,
    round_engine,
)
from .faults import RoundFaultPlan
from .fast_engine import FastEngine, run_program_fast
from .tasks import bfs_forest_trial, flood_min_trial, luby_mis_trial
from .runner import (
    TrialResult,
    TrialSpec,
    aggregate,
    default_chunksize,
    grid,
    resolve_workers,
    run_trials,
    shard,
)
from .store import (
    RESULT_FORMAT_VERSION,
    TrialStore,
    canonical_spec,
    merge_stores,
    record_digest,
    select_results,
    spec_key,
)

__all__ = [
    "ArrayContext",
    "ArrayEngine",
    "ArrayProgram",
    "CSRGraph",
    "FastEngine",
    "GRAPH_CACHE_ENV",
    "GraphCache",
    "KernelContext",
    "KernelEngine",
    "KernelWorkspace",
    "RESULT_FORMAT_VERSION",
    "ROUND_ENGINES",
    "RoundFaultPlan",
    "Sends",
    "TrialResult",
    "TrialSpec",
    "TrialStore",
    "aggregate",
    "bfs_forest_trial",
    "canonical_spec",
    "default_chunksize",
    "default_graph_cache",
    "ensure_csr",
    "flood_min_trial",
    "grid",
    "luby_mis_trial",
    "merge_stores",
    "native_available",
    "native_unavailable_reason",
    "record_digest",
    "resolve_workers",
    "round_engine",
    "run_program_fast",
    "run_trials",
    "select_results",
    "shard",
    "spec_key",
]
