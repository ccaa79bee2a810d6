"""k-wise independent random bits from polynomials over GF(2^m).

This is the standard construction the paper invokes via [AS04] in
Theorem 3.5 and Section 3.2: a uniformly random polynomial of degree
``k - 1`` over GF(2^m), evaluated at distinct field points, yields field
values that are k-wise independent and uniform. We expose one bit per
evaluation point (the low-order bit), so *any* k of the produced bits are
jointly uniform.

Seed length is ``k * m`` bits — i.e. ``O(k log n)`` fully independent bits
expand to ``2^m >= poly(n)`` k-wise independent bits, exactly the
trade-off quoted in the paper ("we need only O(k log n) fully independent
random bits to be able to produce poly(n) random bits that are k-wise
independent").
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .finite_field import GF2m, min_degree_for
from .source import RandomSource


def _coefficients_from_seed(seed: int, k: int, m: int) -> List[int]:
    """Expand an integer seed into ``k`` field elements of ``m`` bits."""
    coeffs: List[int] = []
    state = hashlib.sha256(f"repro-kwise:{seed}".encode()).digest()
    pool = int.from_bytes(state, "big")
    pool_bits = 256
    mask = (1 << m) - 1
    while len(coeffs) < k:
        if pool_bits < m:
            state = hashlib.sha256(state).digest()
            pool = (pool << 256) | int.from_bytes(state, "big")
            pool_bits += 256
        coeffs.append(pool & mask)
        pool >>= m
        pool_bits -= m
    return coeffs


def kwise_degree(num_nodes: int, bits_per_node: int) -> int:
    """Field degree of a :class:`KWiseSource` over this address space.

    The field must hold ``num_nodes * bits_per_node`` distinct points;
    the seed costs ``k`` times this many bits.
    """
    if num_nodes < 1 or bits_per_node < 1:
        raise ConfigurationError("num_nodes and bits_per_node must be >= 1")
    return min_degree_for(num_nodes * bits_per_node + 1)


class KWiseSource(RandomSource):
    """Source whose bits are exactly k-wise independent.

    Bit ``index`` of node ``node`` is the low bit of ``p(x)`` where ``p``
    is the seed polynomial and ``x`` is the field point assigned to
    ``(node, index)``. Nodes must be integers in ``[0, num_nodes)`` (use
    :class:`repro.sim.graph.DistributedGraph` node indices).

    Parameters
    ----------
    k:
        Independence parameter; any ``k`` produced bits are jointly uniform.
    num_nodes, bits_per_node:
        Address space: point(node, index) = node * bits_per_node + index.
    seed:
        Integer seed, expanded into polynomial coefficients; or pass
        explicit ``coefficients`` (used by exhaustive-enumeration tests).
    """

    def __init__(self, k: int, num_nodes: int, bits_per_node: int,
                 seed: int = 0, coefficients: Optional[Sequence[int]] = None,
                 bit_budget: Optional[int] = None):
        super().__init__(bit_budget=bit_budget)
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.num_nodes = num_nodes
        self.bits_per_node = bits_per_node
        self.field = GF2m(kwise_degree(num_nodes, bits_per_node))
        if coefficients is not None:
            if len(coefficients) != k:
                raise ConfigurationError(
                    f"expected {k} coefficients, got {len(coefficients)}"
                )
            self._coeffs = [self.field.element(c) for c in coefficients]
        else:
            self._coeffs = _coefficients_from_seed(seed, k, self.field.m)
        self.seed_bits = k * self.field.m

    def _point(self, node: object, index: int) -> int:
        node_i = int(node)
        if not 0 <= node_i < self.num_nodes:
            raise ConfigurationError(
                f"node {node!r} outside [0, {self.num_nodes})"
            )
        if not 0 <= index < self.bits_per_node:
            raise ConfigurationError(
                f"bit index {index} outside [0, {self.bits_per_node}) "
                f"for a KWiseSource; raise bits_per_node"
            )
        return node_i * self.bits_per_node + index

    def _raw_bit(self, node: object, index: int) -> int:
        point = self._point(node, index)
        value = self.field.eval_poly(self._coeffs, point)
        return value & 1

    def _raw_block(self, node: object, start: int, count: int) -> np.ndarray:
        first = self._point(node, start)
        self._point(node, start + count - 1)  # validate the far end too
        points = first + np.arange(count, dtype=np.int64)
        values = self.field.eval_poly_vec(self._coeffs, points)
        if values is None:  # no log tables for this degree: scalar walk
            return super()._raw_block(node, start, count)
        return (values & 1).astype(np.uint8)

    def _stream_limit(self, node: object) -> Optional[int]:
        return self.bits_per_node

    def geometrics(self, nodes: Sequence[object], cap: int,
                   offset: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """One Geometric(1/2) draw per node, as :meth:`RandomSource.geometrics`.

        All nodes' blocks ``[offset, offset + cap)`` form one
        ``(nodes x cap)`` point matrix, evaluated in a single Horner
        pass. Metering is the per-node loop's: one ``_consume`` per
        node, in order, so budget exhaustion leaves the same ledger.
        Requests the bulk pass cannot serve exactly (a bad node id, a
        block past ``bits_per_node``, a field without tables) take the
        per-node loop, which raises where the scalar calls would.
        """
        if cap < 1:
            raise ConfigurationError(f"cap must be at least 1, got {cap}")
        ids = self._node_ids(nodes)
        if ids is None or offset < 0 or offset + cap > self.bits_per_node:
            return super().geometrics(nodes, cap, offset)
        # A field with tables has at most 2^16 points, so for distinct
        # nodes the matrix is no larger than the address space.
        points = (ids * self.bits_per_node + offset)[:, None] \
            + np.arange(cap, dtype=np.int64)
        values = self.field.eval_poly_vec(self._coeffs, points)
        if values is None:
            return super().geometrics(nodes, cap, offset)
        tails = (values & 1) == 0
        # The draw is the index of the first tail, or cap without one;
        # either way it equals the bits the draw examined.
        steps = np.where(tails.any(axis=1), tails.argmax(axis=1) + 1, cap)
        consume = self._consume
        for node, step in zip(nodes, steps.tolist()):
            consume(node, offset, offset + step)
        return steps, steps.copy()

    def _node_ids(self, nodes: Sequence[object]) -> Optional[np.ndarray]:
        """``nodes`` as int64 ids, or None if any is not a valid node."""
        try:
            ids = np.array([int(node) for node in nodes], dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            return None
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_nodes):
            return None
        return ids

    @classmethod
    def enumerate_seeds(cls, k: int, num_nodes: int, bits_per_node: int):
        """Yield one source per polynomial in the seed space.

        Only feasible for tiny parameters (the space has ``2^(k*m)``
        polynomials); used by tests that verify *exact* k-wise uniformity
        by complete enumeration.
        """
        order = 1 << kwise_degree(num_nodes, bits_per_node)
        for raw in range(order ** k):
            coeffs = []
            x = raw
            for _ in range(k):
                coeffs.append(x % order)
                x //= order
            yield cls(k, num_nodes, bits_per_node, coefficients=coeffs)
