"""Randomness sources: determinism, metering, budgets, samplers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelViolation, RandomnessExhausted
from repro.randomness import (
    IndependentSource,
    SharedRandomness,
    SparseRandomness,
)
from repro.randomness.pooled import PooledBits


class TestIndependentSource:
    def test_deterministic_given_seed(self):
        a = IndependentSource(seed=5)
        b = IndependentSource(seed=5)
        assert a.bits(3, 64) == b.bits(3, 64)

    def test_different_seeds_differ(self):
        a = IndependentSource(seed=5)
        b = IndependentSource(seed=6)
        assert a.bits(0, 64) != b.bits(0, 64)

    def test_different_nodes_differ(self):
        s = IndependentSource(seed=5)
        assert s.bits(0, 64) != s.bits(1, 64)

    def test_repeated_reads_are_cached(self):
        s = IndependentSource(seed=1)
        first = s.bit("x", 7)
        assert s.bit("x", 7) == first
        assert s.bits_consumed == 1  # cached read does not re-consume

    def test_metering_counts_distinct_bits(self):
        s = IndependentSource(seed=1)
        s.bits("a", 10)
        s.bits("b", 5)
        assert s.bits_consumed == 15
        assert s.bits_consumed_by("a") == 10
        assert s.bits_consumed_by("b") == 5
        assert set(s.nodes_touched()) == {"a", "b"}

    def test_budget_enforced(self):
        s = IndependentSource(seed=1, bit_budget=8)
        s.bits("a", 8)
        with pytest.raises(RandomnessExhausted):
            s.bit("a", 8)

    def test_budget_allows_cached_rereads(self):
        s = IndependentSource(seed=1, bit_budget=4)
        s.bits("a", 4)
        assert s.bit("a", 0) in (0, 1)  # re-read, no new consumption

    def test_fork_is_reproducible_and_distinct(self):
        s = IndependentSource(seed=9)
        f1 = s.fork("phase-1")
        f2 = s.fork("phase-1")
        f3 = s.fork("phase-2")
        assert f1.bits(0, 32) == f2.bits(0, 32)
        assert f1.bits(0, 32) != f3.bits(0, 32)

    def test_reset_meter(self):
        s = IndependentSource(seed=1)
        s.bits(0, 8)
        s.reset_meter()
        assert s.bits_consumed == 0

    def test_roughly_unbiased(self):
        s = IndependentSource(seed=4)
        ones = sum(s.bits("node", 2000))
        assert 850 <= ones <= 1150

    def test_describe_mentions_class(self):
        assert "IndependentSource" in IndependentSource(seed=1).describe()


class TestSamplers:
    def test_uniform_int_exact_range(self):
        s = IndependentSource(seed=2)
        seen = set()
        offset = 0
        for _ in range(300):
            value, used = s.uniform_int("u", 5, offset)
            offset += used
            seen.add(value)
            assert 0 <= value < 5
        assert seen == {0, 1, 2, 3, 4}

    def test_uniform_int_bound_one(self):
        s = IndependentSource(seed=2)
        assert s.uniform_int("u", 1) == (0, 0)

    def test_uniform_int_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            IndependentSource(seed=1).uniform_int("u", 0)

    def test_bernoulli_bounds(self):
        s = IndependentSource(seed=3)
        offset = 0
        hits = 0
        for _ in range(400):
            outcome, used = s.bernoulli("b", 1, 4, offset)
            offset += used
            hits += outcome
        assert 50 <= hits <= 150  # ~100 expected

    def test_bernoulli_validates(self):
        with pytest.raises(ConfigurationError):
            IndependentSource(seed=1).bernoulli("b", 5, 4)

    def test_geometric_distribution_shape(self):
        s = IndependentSource(seed=5)
        offset = 0
        counts = {}
        for _ in range(800):
            value, used = s.geometric("g", 30, offset)
            offset += used
            counts[value] = counts.get(value, 0) + 1
        # Pr[X=1] = 1/2, Pr[X=2] = 1/4.
        assert 320 <= counts.get(1, 0) <= 480
        assert 130 <= counts.get(2, 0) <= 270

    def test_geometric_cap(self):
        s = IndependentSource(seed=5)
        value, used = s.geometric("g", 1)
        assert value == 1 and used == 1

    def test_geometric_validates_cap(self):
        with pytest.raises(ConfigurationError):
            IndependentSource(seed=1).geometric("g", 0)


class TestSharedRandomness:
    def test_materialized_length(self):
        s = SharedRandomness(77, seed=1)
        assert s.seed_bits == 77
        assert len(s.global_bits(77)) == 77

    def test_reads_past_end_raise(self):
        s = SharedRandomness(8, seed=1)
        with pytest.raises(RandomnessExhausted):
            s.global_bit(8)

    def test_explicit_bits(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        s = SharedRandomness(8, explicit_bits=bits)
        assert s.global_bits(8) == bits

    def test_explicit_bits_validated(self):
        with pytest.raises(ConfigurationError):
            SharedRandomness(3, explicit_bits=[0, 2, 1])
        with pytest.raises(ConfigurationError):
            SharedRandomness(3, explicit_bits=[0, 1])

    def test_as_int_big_endian(self):
        s = SharedRandomness(4, explicit_bits=[1, 0, 1, 1])
        assert s.as_int(4) == 0b1011

    def test_node_argument_is_ignored(self):
        s = SharedRandomness(16, seed=2)
        assert s.bit("a", 3) == s.bit("b", 3)

    def test_seed_matrix_covers_space(self):
        matrix = SharedRandomness.seed_matrix(3)
        assert matrix.shape == (8, 3) and matrix.dtype == np.uint8
        assert len({tuple(row) for row in matrix.tolist()}) == 8
        for r, row in enumerate(matrix.tolist()):
            assert row == [(r >> i) & 1 for i in range(3)]
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1
        with pytest.raises(ConfigurationError):
            SharedRandomness.seed_matrix(0)

    def test_expand_kwise_requires_enough_bits(self):
        s = SharedRandomness(4, seed=1)
        with pytest.raises(RandomnessExhausted):
            s.expand_kwise(4, 16, 4)

    def test_expand_kwise_deterministic(self):
        s1 = SharedRandomness(256, seed=9)
        s2 = SharedRandomness(256, seed=9)
        k1 = s1.expand_kwise(3, 8, 4)
        k2 = s2.expand_kwise(3, 8, 4)
        assert [k1.bit(v, i) for v in range(8) for i in range(4)] == \
               [k2.bit(v, i) for v in range(8) for i in range(4)]


class TestSparseRandomness:
    def test_holder_bits_are_bits(self, grid36):
        s = SparseRandomness.for_graph(grid36, h=2, seed=1)
        for holder in s.holders:
            assert s.holder_bit(holder) in (0, 1)

    def test_non_holder_access_raises(self, grid36):
        s = SparseRandomness.for_graph(grid36, h=2, seed=1)
        outsider = next(v for v in grid36.nodes() if v not in s.holders)
        with pytest.raises(ModelViolation):
            s.bit(outsider, 0)

    def test_second_bit_raises(self, grid36):
        s = SparseRandomness.for_graph(grid36, h=2, seed=1)
        holder = next(iter(s.holders))
        with pytest.raises(ModelViolation):
            s.bit(holder, 1)

    def test_covering_verified(self, grid36):
        for h in (1, 2, 3):
            s = SparseRandomness.for_graph(grid36, h=h, seed=2)
            assert s.verify_covering(grid36)

    def test_dense_style_is_everyone(self, cycle12):
        s = SparseRandomness.for_graph(cycle12, h=2, seed=1, style="dense")
        assert s.holders == set(cycle12.nodes())

    def test_holders_are_spread(self, grid36):
        # 'sparse' style: holders pairwise further than h apart.
        h = 2
        s = SparseRandomness.for_graph(grid36, h=h, seed=3)
        holders = sorted(s.holders)
        for i, a in enumerate(holders):
            for b in holders[i + 1:]:
                assert grid36.distance(a, b) > h

    def test_seed_bits_equals_holders(self, grid36):
        s = SparseRandomness.for_graph(grid36, h=1, seed=1)
        assert s.seed_bits == len(s.holders)

    def test_empty_holders_rejected(self):
        with pytest.raises(ConfigurationError):
            SparseRandomness([], h=1)


class TestPooledBits:
    def test_serves_pool_bits_in_order(self):
        p = PooledBits({"c": [1, 0, 1]})
        assert [p.bit("c", i) for i in range(3)] == [1, 0, 1]

    def test_exhaustion(self):
        p = PooledBits({"c": [1, 0]})
        p.bits("c", 2)
        with pytest.raises(RandomnessExhausted):
            p.bit("c", 2)

    def test_unknown_pool(self):
        p = PooledBits({"c": [1]})
        with pytest.raises(ConfigurationError):
            p.bit("d", 0)

    def test_remaining_accounting(self):
        p = PooledBits({"c": [1, 0, 1, 1]})
        p.bits("c", 3)
        assert p.remaining("c") == 1
        assert p.pool_size("c") == 4

    def test_validates_bits(self):
        with pytest.raises(ConfigurationError):
            PooledBits({"c": [0, 2]})

    def test_requires_pools(self):
        with pytest.raises(ConfigurationError):
            PooledBits({})

    def test_seed_bits_total(self):
        p = PooledBits({"a": [1, 1], "b": [0]})
        assert p.seed_bits == 3
