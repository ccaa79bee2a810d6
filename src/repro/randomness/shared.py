"""Globally shared randomness — direction (C) of Section 3.

A :class:`SharedRandomness` object models a public random string of a
fixed number of bits, visible to every node (and to nobody's advantage:
there is no private randomness). The paper's headline uses:

* Lemma 3.4 — O(log n) shared bits solve splitting in zero rounds;
* Theorem 3.6 — poly(log n) shared bits build an
  (O(log n), O(log² n))-decomposition in CONGEST;
* Section 3.2 — poly(log n) shared bits expand to poly(n) k-wise
  independent bits via [AS04], which is what :meth:`expand_kwise` does.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError, RandomnessExhausted
from .block import BlockStream, derive_key
from .kwise import KWiseSource, kwise_degree
from .source import RandomSource, pack_bits


class SharedRandomness(RandomSource):
    """A finite public random string, readable by every node.

    The string is materialized up front (``seed_bits`` bits, one
    counter-mode PRF pass into a numpy bit array) so reads can never
    exceed the declared budget. ``bit(node, index)`` ignores the node
    argument — the string is global — but keeps the
    :class:`RandomSource` interface so algorithms are source-agnostic.
    """

    def __init__(self, num_bits: int, seed: int = 0,
                 explicit_bits: Optional[List[int]] = None):
        super().__init__(bit_budget=None)
        if num_bits < 1:
            raise ConfigurationError(f"num_bits must be >= 1, got {num_bits}")
        self.seed = seed
        self.seed_bits = num_bits
        if explicit_bits is not None:
            if len(explicit_bits) != num_bits:
                raise ConfigurationError(
                    f"expected {num_bits} explicit bits, got {len(explicit_bits)}"
                )
            if any(b not in (0, 1) for b in explicit_bits):
                raise ConfigurationError("explicit_bits must contain only 0/1")
            # Copy: freezing below must never alter a caller-owned array.
            self._bits = np.array(explicit_bits, dtype=np.uint8)
        else:
            self._bits = self._materialize(seed, num_bits)
        self._bits.flags.writeable = False  # bulk reads hand out views

    @staticmethod
    def _materialize(seed: int, num_bits: int) -> np.ndarray:
        stream = BlockStream(derive_key("repro-shared", seed))
        return stream.read(0, num_bits).copy()

    def _check_range(self, start: int, end: int) -> None:
        if start < 0 or end > self.seed_bits:
            bad = start if start < 0 else self.seed_bits
            raise RandomnessExhausted(
                f"shared string has {self.seed_bits} bits; index {bad} requested"
            )

    def _raw_bit(self, node: object, index: int) -> int:
        if not 0 <= index < self.seed_bits:
            raise RandomnessExhausted(
                f"shared string has {self.seed_bits} bits; index {index} requested"
            )
        return int(self._bits[index])

    def _raw_block(self, node: object, start: int, count: int) -> np.ndarray:
        self._check_range(start, start + count)
        return self._bits[start:start + count]

    def _stream_limit(self, node: object) -> Optional[int]:
        return self.seed_bits

    def global_bit(self, index: int) -> int:
        """Read bit ``index`` of the public string (node-independent)."""
        return self.bit("__shared__", index)

    def global_bits(self, count: int, offset: int = 0) -> List[int]:
        """Read ``count`` consecutive public bits starting at ``offset``."""
        return self.bits("__shared__", count, offset)

    def as_int(self, count: int, offset: int = 0) -> int:
        """Pack ``count`` public bits into an integer (big-endian)."""
        return pack_bits(self.bits_block("__shared__", count, offset))

    def expand_kwise(self, k: int, num_nodes: int, bits_per_node: int,
                     offset: int = 0) -> KWiseSource:
        """Deterministically expand shared bits into a k-wise source.

        This is the [AS04] step quoted in Section 3.2: consume
        ``k * m`` shared bits (``m`` = field degree) as the polynomial
        coefficients and hand every node a poly(n)-bit k-wise independent
        stream. Raises :class:`RandomnessExhausted` if the shared string
        is too short — making the seed-length accounting explicit.
        """
        m = kwise_degree(num_nodes, bits_per_node)
        coeff_bits = self.bits_block("__shared__", k * m, offset)
        coeffs = [pack_bits(coeff_bits[i * m:(i + 1) * m]) for i in range(k)]
        return KWiseSource(k, num_nodes, bits_per_node, coefficients=coeffs)

    @staticmethod
    def seed_matrix(num_bits: int) -> np.ndarray:
        """Every shared string of ``num_bits`` bits, one per row.

        The seed-enumeration derandomization of Lemma 4.1 ranges over
        exactly this space. Row ``r`` is the string whose bit ``i`` is
        ``(r >> i) & 1``; the ``(2^b x b)`` uint8 matrix is read-only.
        """
        if num_bits < 1:
            raise ConfigurationError(f"num_bits must be >= 1, got {num_bits}")
        rows = np.arange(1 << num_bits, dtype=np.int64)[:, None]
        matrix = ((rows >> np.arange(num_bits)) & 1).astype(np.uint8)
        matrix.flags.writeable = False
        return matrix
