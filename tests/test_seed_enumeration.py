"""Lemma 4.1's seed enumeration as one bit matrix equals the scalar loop.

``exhaustive_derandomize`` evaluates every seed of the shared space in
one pass per instance (``SharedRandomness.seed_matrix`` plus
``SplittingInstance.satisfied_by``). The references here are the
per-seed loop it replaced, kept verbatim apart from building each seed's
``SharedRandomness`` inline, and the dict-based ``is_satisfied``.
"""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.derandomization import (
    DerandomizationResult,
    exhaustive_derandomize,
)
from repro.core.splitting import random_instance, shared_neighborhood_instance
from repro.errors import ConfigurationError, DerandomizationFailure
from repro.randomness import SharedRandomness
from repro.structures import SplittingInstance


def scalar_derandomize(run, instances, seed_bits, stop_early=False):
    """The per-seed enumeration loop: one SharedRandomness per seed."""
    per_seed_failures: List[int] = []
    good: Optional[List[int]] = None
    tried = 0
    for raw in range(1 << seed_bits):
        shared = SharedRandomness(
            seed_bits, explicit_bits=[(raw >> i) & 1 for i in range(seed_bits)])
        tried += 1
        failures = 0
        for instance in instances:
            if not run(instance, shared):
                failures += 1
                if stop_early:
                    break
        per_seed_failures.append(failures)
        if failures == 0 and good is None:
            good = [shared.global_bit(i) for i in range(seed_bits)]
            if stop_early:
                break
    if good is None:
        raise DerandomizationFailure(
            f"no seed of {seed_bits} bits succeeds on all "
            f"{len(instances)} instances; best seed fails "
            f"{min(per_seed_failures)} of them"
        )
    return DerandomizationResult(
        seed_bits=seed_bits, good_seed=good, seeds_tried=tried,
        per_seed_failures=per_seed_failures, instances=len(instances))


def scalar_run(inst, shared):
    coloring = {x: shared.global_bit(x % shared.seed_bits)
                for x in inst.v_side}
    return inst.is_satisfied(coloring)


def matrix_run(inst, seeds):
    return inst.satisfied_by(
        seeds[:, [x % seeds.shape[1] for x in inst.v_side]])


def _outcome(fn):
    try:
        return "ok", fn()
    except DerandomizationFailure as exc:
        return "failure", str(exc)


@st.composite
def splitting_instances(draw):
    """A generated instance, thinned to ragged degrees, V-side shuffled.

    Thinning keeps a prefix of each U-node's neighbors, possibly none,
    so rows of different lengths and isolated U-nodes both occur.
    """
    num_u = draw(st.integers(1, 8))
    num_v = draw(st.integers(1, 12))
    degree = draw(st.integers(1, num_v))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        base = random_instance(num_u, num_v, degree, seed=seed)
    else:
        overlap = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        base = shared_neighborhood_instance(num_u, num_v, degree,
                                            overlap=overlap, seed=seed)
    if not draw(st.booleans()):
        return base
    adjacency = {u: nbrs[:draw(st.integers(0, len(nbrs)))]
                 for u, nbrs in base.adjacency.items()}
    v_side = draw(st.permutations(base.v_side))
    return SplittingInstance(u_side=base.u_side, v_side=list(v_side),
                             adjacency=adjacency, min_degree=0)


class TestMatrixEnumerationMatchesScalarLoop:
    @settings(max_examples=60)
    @given(family=st.lists(splitting_instances(), min_size=1, max_size=5),
           seed_bits=st.integers(1, 8), stop_early=st.booleans())
    def test_same_result_or_failure(self, family, seed_bits, stop_early):
        got = _outcome(lambda: exhaustive_derandomize(
            matrix_run, family, seed_bits, stop_early=stop_early))
        want = _outcome(lambda: scalar_derandomize(
            scalar_run, family, seed_bits, stop_early=stop_early))
        assert got == want


def _isolated_u(instance):
    """``instance`` plus one U-node that has no neighbors."""
    extra = max(instance.u_side) + 1
    return SplittingInstance(
        u_side=instance.u_side + [extra], v_side=instance.v_side,
        adjacency={**instance.adjacency, extra: []}, min_degree=0)


class TestSatisfiedBy:
    @given(instance=splitting_instances(), isolated=st.booleans(),
           data=st.data())
    def test_agrees_with_is_satisfied_per_row(self, instance, isolated, data):
        if isolated:
            instance = _isolated_u(instance)
        rows = data.draw(st.integers(1, 16))
        colors = data.draw(st.lists(
            st.lists(st.integers(0, 2), min_size=len(instance.v_side),
                     max_size=len(instance.v_side)),
            min_size=rows, max_size=rows))
        got = instance.satisfied_by(np.array(colors, dtype=np.uint8))
        assert got.dtype == np.bool_ and got.shape == (rows,)
        want = [instance.is_satisfied(dict(zip(instance.v_side, row)))
                for row in colors]
        assert got.tolist() == want
        if isolated:
            assert not got.any()

    def test_no_u_nodes_is_always_satisfied(self):
        inst = SplittingInstance(u_side=[], v_side=[0, 1], adjacency={},
                                 min_degree=0)
        assert inst.satisfied_by(np.zeros((3, 2))).tolist() == [True] * 3
        assert inst.is_satisfied({0: 0, 1: 0})

    def test_rejects_wrong_column_count(self):
        inst = random_instance(3, 6, 2, seed=1)
        with pytest.raises(ConfigurationError):
            inst.satisfied_by(np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            inst.satisfied_by(np.zeros(6, dtype=np.uint8))
