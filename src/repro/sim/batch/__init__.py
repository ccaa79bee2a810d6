"""Batch simulation: CSR topology, the fast engines, and seed sweeps.

The scaling layer of the simulator (ROADMAP north star): freeze the
static network structure once (:class:`CSRGraph`), run node programs on
it without per-round allocation churn (:class:`FastEngine`, a drop-in
:class:`~repro.sim.engine.SyncEngine` replacement), execute
data-parallel programs as whole-round numpy passes with no per-node
Python dispatch at all (:class:`ArrayEngine` running
:class:`ArrayProgram`\\ s, bit-identical to FastEngine), fuse those
passes into zero-allocation kernels with an optional JIT backend
(:class:`KernelEngine`, :mod:`~repro.sim.batch.kernels`), and fan whole
(family, size, seed) grids across processes (:func:`run_trials`).
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
from .distrib import (
    AuthenticationError,
    CoordinatorClient,
    CoordinatorServer,
    CoordinatorUnavailable,
    DirTransport,
    HTTPTransport,
    LeaseReply,
    PushIntegrityError,
    RetryPolicy,
    RetryableError,
    SweepCoordinator,
    Transport,
    WorkUnit,
    deterministic_uniform,
    merge_pushed,
    pushed_store_dirs,
    run_worker,
    wait_until_done,
)
from .faults import FaultPlan, FlakyControl, FlakyTransport, RoundFaultPlan
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
    ReadThroughStore,
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
    "AuthenticationError",
    "CSRGraph",
    "CoordinatorClient",
    "CoordinatorServer",
    "CoordinatorUnavailable",
    "DirTransport",
    "FastEngine",
    "FaultPlan",
    "FlakyControl",
    "FlakyTransport",
    "GRAPH_CACHE_ENV",
    "GraphCache",
    "HTTPTransport",
    "KernelContext",
    "KernelEngine",
    "KernelWorkspace",
    "LeaseReply",
    "PushIntegrityError",
    "RESULT_FORMAT_VERSION",
    "ReadThroughStore",
    "RetryPolicy",
    "ROUND_ENGINES",
    "RetryableError",
    "RoundFaultPlan",
    "Sends",
    "SweepCoordinator",
    "Transport",
    "TrialResult",
    "TrialSpec",
    "TrialStore",
    "WorkUnit",
    "aggregate",
    "bfs_forest_trial",
    "canonical_spec",
    "default_chunksize",
    "default_graph_cache",
    "deterministic_uniform",
    "ensure_csr",
    "flood_min_trial",
    "grid",
    "luby_mis_trial",
    "merge_pushed",
    "merge_stores",
    "native_available",
    "native_unavailable_reason",
    "pushed_store_dirs",
    "record_digest",
    "resolve_workers",
    "round_engine",
    "run_program_fast",
    "run_trials",
    "run_worker",
    "select_results",
    "shard",
    "spec_key",
    "wait_until_done",
]
