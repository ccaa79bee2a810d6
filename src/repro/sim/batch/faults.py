"""Deterministic per-round faults for the simulated network.

:class:`RoundFaultPlan` crashes nodes, drops messages and takes edges
down, round by round, for the adversarial library scenarios
(``crash-midround``, ``lossy-congest``, ``edge-churn``). Every decision
is :func:`deterministic_uniform` — BLAKE2b in counter mode, the same
discipline as :mod:`repro.randomness.block` — so the k-th decision for
a given set of labels is a pure function of those labels and nothing
else: no global RNG, no wall clock, bit-identical across processes,
worker counts, stores and reruns. A faulty trial is therefore exactly
as cacheable and shardable as a clean one.
"""

from __future__ import annotations

import hashlib
from typing import Any

from ...errors import ConfigurationError
from ...randomness.block import derive_key


def deterministic_uniform(counter: int, *parts: object) -> float:
    """Uniform [0, 1) as a pure function of ``(parts, counter)``.

    BLAKE2b in counter mode keyed by the length-prefixed ``parts``
    (:func:`repro.randomness.block.derive_key` discipline) — the same
    construction as the simulation's randomness substrate, so every
    fault decision is replayable from its labels alone.
    """
    # The "sweep-chaos" label is historical and pinned: changing it
    # changes every fault decision, and so every fault scenario's results.
    key = derive_key("sweep-chaos", *parts)
    digest = hashlib.blake2b(
        counter.to_bytes(8, "big"), key=key, digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


class RoundFaultPlan:
    """Seeded per-round *simulation* faults: crash, loss, edge churn.

    The plan breaks the simulated network itself, for the adversarial
    workloads the scenario layer opens (``crash-midround``,
    ``lossy-congest``, ``edge-churn``). Every decision is the same
    BLAKE2b counter-mode discipline: a pure function of (seed, round,
    endpoints), so a faulty run is exactly as reproducible as a clean
    one — across engines' worker counts, stores, and reruns.

    Semantics (enforced by :class:`~repro.sim.batch.fast_engine.
    FastEngine` when handed a plan):

    * ``crash`` — per node per round, the probability the node dies
      *during* that round's send phase. A crashing node's outgoing
      messages each independently escape with probability 1/2
      (:meth:`delivers_on_crash` — the "mid-round" in crash-midround);
      the node never steps again and its output stays whatever it had.
    * ``loss`` — per message per delivery round, the probability it is
      silently dropped in transit (CONGEST omission). The sender still
      pays for it in the message/bit accounting.
    * ``churn`` — per *edge* per round, the probability the edge is
      down for that round; both directions drop together (a dynamic
      graph, re-sampled every round).
    * ``start_round`` — faults begin at this round (default 1, the
      first step round), so an algorithm's setup can be kept clean.
    """

    def __init__(
        self,
        seed: Any,
        crash: float = 0.0,
        loss: float = 0.0,
        churn: float = 0.0,
        start_round: int = 1,
    ) -> None:
        for name, rate in (("crash", crash), ("loss", loss), ("churn", churn)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate {name} must be in [0, 1], got {rate}"
                )
        if start_round < 1:
            raise ConfigurationError(f"start_round must be >= 1, got {start_round}")
        self.seed = seed
        self.crash = crash
        self.loss = loss
        self.churn = churn
        self.start_round = start_round

    @property
    def active(self) -> bool:
        """Whether any rate is non-zero (a zero plan is a no-op)."""
        return bool(self.crash or self.loss or self.churn)

    def crashes(self, round_index: int, node: int) -> bool:
        """Does ``node`` crash during round ``round_index``'s sends?"""
        if not self.crash or round_index < self.start_round:
            return False
        u = deterministic_uniform(round_index, "sim-crash", self.seed, node)
        return u < self.crash

    def delivers_on_crash(self, round_index: int, node: int, target: int) -> bool:
        """Does one send of a node crashing this round still escape?"""
        u = deterministic_uniform(
            round_index, "sim-crash-send", self.seed, node, target
        )
        return u < 0.5

    def drops(self, round_index: int, sender: int, target: int) -> bool:
        """Is the (sender -> target) message of this round lost?

        Loss is directional (per message); churn is symmetric (both
        directions of a down edge drop in the same round).
        """
        if round_index < self.start_round:
            return False
        if self.loss:
            u = deterministic_uniform(
                round_index, "sim-loss", self.seed, sender, target
            )
            if u < self.loss:
                return True
        if self.churn:
            a, b = (sender, target) if sender <= target else (target, sender)
            u = deterministic_uniform(round_index, "sim-churn", self.seed, a, b)
            if u < self.churn:
                return True
        return False
