"""Derandomization tools: Lemma 4.1, Theorem 4.3, Theorem 4.6.

Three executable pieces:

* :func:`exhaustive_derandomize` — Lemma 4.1 made concrete. A randomized
  algorithm with shared seed space {0,1}^b is a uniform choice among 2^b
  deterministic algorithms; if its failure probability is below
  1/|family|, some single seed must succeed on *every* instance of the
  family, and we find it by enumeration. (The lemma's 2^(-n²) threshold
  is exactly 1/|G_n| for the family of all labeled n-node graphs.) The
  seed space is one (2^b x b) bit matrix, and the algorithm runs on all
  of its rows at once per instance: ``run(instance, seeds)`` returns one
  success flag per seed.

* :func:`lie_about_n` — the [CKP16] technique behind Theorems 4.3/4.6:
  run a non-uniform algorithm telling it the network has N >= n nodes.
  Definition 2.1 makes its guarantee hold *at size N* — error δ(N) — on
  our n-node graph, buying error reduction at the price of T(N) rounds.

* closed-form threshold calculators (:func:`family_size_bound`,
  :func:`theorem43_deterministic_time`, :func:`theorem46_N`) used by the
  EXPERIMENTS tables to compare measured values against the paper's
  expressions.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, DerandomizationFailure
from ..randomness.shared import SharedRandomness
from ..sim.graph import DistributedGraph
from ..sim.metrics import RunReport


@dataclasses.dataclass
class DerandomizationResult:
    """Outcome of an exhaustive seed search (Lemma 4.1)."""

    seed_bits: int
    good_seed: List[int]              # the bit string that always works
    seeds_tried: int
    per_seed_failures: List[int]      # instances failed, per seed
    instances: int

    @property
    def empirical_error(self) -> float:
        """Average failure probability of the randomized algorithm."""
        total = self.seeds_tried * self.instances
        return sum(self.per_seed_failures) / total if total else 0.0


def exhaustive_derandomize(
    run: Callable[[object, np.ndarray], np.ndarray],
    instances: Sequence[object],
    seed_bits: int,
    stop_early: bool = False,
) -> DerandomizationResult:
    """Find a shared seed on which ``run`` succeeds for every instance.

    The whole seed space is one bit matrix,
    ``SharedRandomness.seed_matrix(seed_bits)``: row r is seed r, whose
    bit i is ``(r >> i) & 1``. ``run(instance, seeds)`` evaluates one
    instance on every seed at once and returns a bool array of shape
    ``(2^b,)``, True where that seed succeeds; it must be deterministic
    given each row (the w.l.o.g. normal form of the Lemma 4.1 proof).
    Anything else raises :class:`ConfigurationError`. The matrix takes
    ``2^b * b`` bytes.

    Seeds are ranked in row order. Without ``stop_early`` every seed's
    failure count is reported; with it, only the seeds up to the first
    good one, each counted as 0 or 1 failures. Raises
    :class:`DerandomizationFailure` if every seed fails somewhere — i.e.
    if the algorithm's error probability is >= 1/|instances| and the
    lemma's premise does not hold for this family.
    """
    if seed_bits < 1 or seed_bits > 24:
        raise ConfigurationError(
            f"seed_bits must be in [1, 24] for enumeration, got {seed_bits}"
        )
    if not instances:
        raise ConfigurationError("at least one instance is required")
    seeds = SharedRandomness.seed_matrix(seed_bits)
    failures = np.zeros(len(seeds), dtype=np.int64)
    for instance in instances:
        ok = np.asarray(run(instance, seeds))
        if ok.shape != failures.shape or ok.dtype != np.bool_:
            raise ConfigurationError(
                f"run must return a bool array of shape {failures.shape}, "
                f"got {ok.dtype} of shape {ok.shape}"
            )
        failures += ~ok
    good_rows = np.flatnonzero(failures == 0)
    if stop_early:
        tried = int(good_rows[0]) + 1 if len(good_rows) else len(seeds)
        failures = np.minimum(failures[:tried], 1)
    per_seed_failures = failures.tolist()
    if not len(good_rows):
        raise DerandomizationFailure(
            f"no seed of {seed_bits} bits succeeds on all "
            f"{len(instances)} instances; best seed fails "
            f"{min(per_seed_failures)} of them"
        )
    shared = SharedRandomness(seed_bits,
                              explicit_bits=seeds[good_rows[0]].tolist())
    good = [shared.global_bit(i) for i in range(seed_bits)]
    return DerandomizationResult(
        seed_bits=seed_bits, good_seed=good, seeds_tried=len(per_seed_failures),
        per_seed_failures=per_seed_failures, instances=len(instances))


def lie_about_n(
    algorithm: Callable[[DistributedGraph, int, int], Tuple[bool, RunReport]],
    graph: DistributedGraph,
    claimed_n: int,
    seed: int = 0,
) -> Tuple[bool, RunReport]:
    """Run a non-uniform algorithm pretending the graph has N nodes.

    ``algorithm(graph, claimed_n, seed) -> (success, report)`` receives
    the claimed size and must parametrize itself (phase counts, caps,
    palettes...) by it, exactly as a non-uniform algorithm handed N as
    its input would. The graph itself is untouched — the nodes simply
    cannot tell (the [CKP16] indistinguishability).
    """
    if claimed_n < graph.n:
        raise ConfigurationError(
            f"claimed n ({claimed_n}) must be >= the true n ({graph.n})"
        )
    return algorithm(graph, claimed_n, seed)


# ----------------------------------------------------------------------
# Closed forms from the paper, for the experiment tables.
# ----------------------------------------------------------------------
def family_size_bound(n: int, c: int = 3) -> float:
    """log2 |G_n|: labeled graphs with <= n nodes, IDs from {1..n^c}.

    The Lemma 4.1 proof bounds |G_n| <= n * 2^C(n,2) * n^(c n) < 2^(n²)
    for large n; we return the exact log2 of the middle expression.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return math.log2(n) + n * (n - 1) / 2 + c * n * math.log2(n)


def lemma41_error_threshold(n: int, c: int = 3) -> float:
    """log2 of the error probability below which Lemma 4.1 derandomizes."""
    return -family_size_bound(n, c)


def theorem43_deterministic_time(n: int, beta: float, c: float = 1.0) -> float:
    """The 2^(O(log^(1/β) n)) deterministic time of Theorem 4.3 (log2)."""
    if beta <= 2:
        raise ConfigurationError("Theorem 4.3 needs beta > 2")
    return c * (math.log2(max(2, n)) ** (1.0 / beta))


def theorem46_N(n: int, epsilon: float) -> float:
    """The virtual size N with 2^(log^ε N) >= n² (log2 N returned).

    Theorem 4.6 lies that the graph has N nodes so that the assumed
    success bound 1 - 2^(-2^(log^ε N)) beats the 2^(-n²) of Lemma 4.1:
    log N >= (2 log n)^(1/ε), still polylog-friendly since any polylog(N)
    running time is polylog(n)^(1/ε) = polylog(n).
    """
    if not 0 < epsilon <= 1:
        raise ConfigurationError("epsilon must be in (0, 1]")
    return (2 * math.log2(max(2, n))) ** (1.0 / epsilon)


def seeds_to_failure_curve(result: DerandomizationResult) -> Dict[int, int]:
    """Histogram: number of failed instances -> count of seeds.

    The Lemma 4.1 picture in one table: mass at 0 == derandomizable.
    """
    histogram: Dict[int, int] = {}
    for failures in result.per_seed_failures:
        histogram[failures] = histogram.get(failures, 0) + 1
    return dict(sorted(histogram.items()))
