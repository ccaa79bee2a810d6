"""Exact distributional guarantees of the derived sources.

The k-wise test is the strongest in the suite: it enumerates the entire
seed space of a small construction and verifies that every k-subset of
output bits is *exactly* uniform — the defining property, not a
statistical approximation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, RandomnessExhausted
from repro.randomness import EpsilonBiasedSource, KWiseSource
from repro.randomness.epsilon_biased import degree_for_bias


class TestKWiseExactness:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_kwise_uniformity_by_enumeration(self, k):
        """Every k-tuple of output bits is uniform over the seed space."""
        num_nodes, bits_per_node = 3, 2
        points = [(v, i) for v in range(num_nodes)
                  for i in range(bits_per_node)]
        samples = []
        for source in KWiseSource.enumerate_seeds(k, num_nodes, bits_per_node):
            samples.append(tuple(source.bit(v, i) for v, i in points))
        total = len(samples)
        for subset in itertools.combinations(range(len(points)), k):
            counts = {}
            for sample in samples:
                key = tuple(sample[j] for j in subset)
                counts[key] = counts.get(key, 0) + 1
            expected = total / (2 ** k)
            for key in itertools.product((0, 1), repeat=k):
                assert counts.get(key, 0) == expected, (
                    f"subset {subset} pattern {key}: "
                    f"{counts.get(key, 0)} != {expected}"
                )

    def test_k1_from_one_seed_is_constant(self):
        """Degree-0 polynomial: all bits equal (the E2 failure mode)."""
        source = KWiseSource(1, 6, 4, coefficients=[1])
        bits = {source.bit(v, i) for v in range(6) for i in range(4)}
        assert len(bits) == 1

    def test_deterministic_given_seed(self):
        a = KWiseSource(4, 8, 8, seed=3)
        b = KWiseSource(4, 8, 8, seed=3)
        assert [a.bit(v, i) for v in range(8) for i in range(8)] == \
               [b.bit(v, i) for v in range(8) for i in range(8)]

    def test_seed_bits_is_k_times_m(self):
        source = KWiseSource(5, 16, 4, seed=0)
        assert source.seed_bits == 5 * source.field.m

    def test_out_of_range_node(self):
        source = KWiseSource(2, 4, 4, seed=0)
        with pytest.raises(ConfigurationError):
            source.bit(4, 0)

    def test_out_of_range_index(self):
        source = KWiseSource(2, 4, 4, seed=0)
        with pytest.raises(ConfigurationError):
            source.bit(0, 4)

    def test_coefficient_count_validated(self):
        with pytest.raises(ConfigurationError):
            KWiseSource(3, 4, 4, coefficients=[1, 2])

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            KWiseSource(0, 4, 4)
        with pytest.raises(ConfigurationError):
            KWiseSource(2, 0, 4)


class TestEpsilonBiased:
    def test_bias_bound_by_enumeration(self):
        """Max bias over all non-empty parities, over the full space."""
        num_bits = 6
        epsilon = 0.5
        sources = list(EpsilonBiasedSource.enumerate_seeds(1, num_bits, epsilon))
        total = len(sources)
        worst = 0.0
        for mask in range(1, 1 << num_bits):
            parity_sum = 0
            for source in sources:
                parity = 0
                for i in range(num_bits):
                    if (mask >> i) & 1:
                        parity ^= source.bit(0, i)
                parity_sum += parity
            bias = abs(parity_sum / total - 0.5) * 2
            worst = max(worst, bias)
        assert worst <= epsilon + 1e-9, f"worst bias {worst} > {epsilon}"

    def test_single_bits_not_constant_across_space(self):
        sources = list(EpsilonBiasedSource.enumerate_seeds(1, 4, 0.5))
        for i in range(4):
            values = {s.bit(0, i) for s in sources}
            assert values == {0, 1}

    def test_seed_bits_is_2m(self):
        source = EpsilonBiasedSource(16, 4, 0.01, seed=1)
        assert source.seed_bits == 2 * source.field.m

    def test_smaller_epsilon_needs_longer_seed(self):
        loose = EpsilonBiasedSource(16, 4, 0.25, seed=1)
        tight = EpsilonBiasedSource(16, 4, 1e-4, seed=1)
        assert tight.seed_bits > loose.seed_bits

    def test_deterministic_given_seed(self):
        a = EpsilonBiasedSource(8, 4, 0.1, seed=7)
        b = EpsilonBiasedSource(8, 4, 0.1, seed=7)
        assert [a.bit(v, i) for v in range(8) for i in range(4)] == \
               [b.bit(v, i) for v in range(8) for i in range(4)]

    def test_degree_for_bias_monotone(self):
        assert degree_for_bias(100, 0.01) >= degree_for_bias(100, 0.1)
        assert degree_for_bias(1000, 0.01) >= degree_for_bias(10, 0.01)

    def test_degree_for_bias_validates(self):
        with pytest.raises(ConfigurationError):
            degree_for_bias(8, 0.0)
        with pytest.raises(ConfigurationError):
            degree_for_bias(8, 1.5)

    def test_out_of_range_access(self):
        source = EpsilonBiasedSource(4, 2, 0.1)
        with pytest.raises(ConfigurationError):
            source.bit(5, 0)
        with pytest.raises(ConfigurationError):
            source.bit(0, 2)

    def test_seed_length_is_logarithmic(self):
        # O(log(n/eps)) shared bits for poly(n) bits at 1/poly(n) bias —
        # the Lemma 3.4 budget.
        source = EpsilonBiasedSource(1024, 1, 1.0 / 1024, seed=0)
        assert source.seed_bits <= 64


def _outcome(call):
    """A call's result, or the type and message of the error it raised."""
    try:
        return "ok", call()
    except (ConfigurationError, RandomnessExhausted) as exc:
        return type(exc), str(exc)


def _per_node_geometrics(source, nodes, cap, offset):
    values, used = [], []
    for node in nodes:
        value, step = source.geometric(node, cap, offset)
        values.append(value)
        used.append(step)
    return values, used


@st.composite
def geometric_requests(draw):
    k = draw(st.integers(1, 6))
    num_nodes = draw(st.integers(1, 40))
    bits_per_node = draw(st.integers(1, 40))
    cap = draw(st.integers(1, bits_per_node + 2))
    offset = draw(st.integers(0, bits_per_node))
    nodes = draw(st.lists(st.integers(0, num_nodes - 1), max_size=25))
    if draw(st.booleans()):  # one node id outside [0, num_nodes)
        bad = draw(st.sampled_from([-1, num_nodes, num_nodes + 7]))
        nodes.insert(draw(st.integers(0, len(nodes))), bad)
    budget = draw(st.none() | st.integers(0, 150))
    seed = draw(st.integers(0, 2 ** 32))
    return k, num_nodes, bits_per_node, cap, offset, nodes, budget, seed


class TestKWiseBulkGeometrics:
    """Bulk geometrics draw and charge exactly what per-node calls do."""

    @settings(max_examples=200)
    @given(geometric_requests())
    def test_bulk_matches_per_node_calls(self, request):
        k, num_nodes, bits_per_node, cap, offset, nodes, budget, seed = request

        def source():
            return KWiseSource(k, num_nodes, bits_per_node, seed=seed,
                               bit_budget=budget)

        bulk, scalar = source(), source()
        got = _outcome(lambda: bulk.geometrics(nodes, cap, offset))
        want = _outcome(lambda: _per_node_geometrics(scalar, nodes, cap, offset))
        if got[0] == "ok":
            values, used = got[1]
            got = "ok", (values.tolist(), used.tolist())
        assert got == want
        assert bulk.bits_consumed == scalar.bits_consumed
        assert set(bulk.nodes_touched()) == set(scalar.nodes_touched())
        for node in set(nodes):
            assert bulk.bits_consumed_by(node) == scalar.bits_consumed_by(node)

    def test_one_horner_pass_for_all_nodes(self):
        source = KWiseSource(8, 64, 30, seed=5)
        calls = []
        evaluate = source.field.eval_poly_vec

        def counted(coeffs, xs):
            calls.append(np.shape(xs))
            return evaluate(coeffs, xs)

        source.field.eval_poly_vec = counted
        values, used = source.geometrics(list(range(64)), cap=10, offset=10)
        assert calls == [(64, 10)]
        assert values.tolist() == used.tolist()

    def test_tableless_field_takes_per_node_path(self):
        # 2^16 points need GF(2^17), which has no log tables.
        bulk = KWiseSource(3, 1 << 16, 1, seed=2)
        scalar = KWiseSource(3, 1 << 16, 1, seed=2)
        assert bulk.field.m == 17
        nodes = [0, 9, 65535]
        values, used = bulk.geometrics(nodes, cap=1)
        assert (values.tolist(), used.tolist()) \
            == _per_node_geometrics(scalar, nodes, 1, 0)
        assert bulk.bits_consumed == scalar.bits_consumed == 3
