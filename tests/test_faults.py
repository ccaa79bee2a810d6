"""Deterministic per-round faults: the schedule behind the fault scenarios.

The contract under test: every fault decision of a
:class:`RoundFaultPlan` is a pure function of its labels — seed, round,
endpoints, fault kind — so two runs of the same plan see identical
weather, different labels see independent weather, and each rate is
the long-run frequency of its fault.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.batch import RoundFaultPlan
from repro.sim.batch.faults import deterministic_uniform


def _crash_schedule(plan: RoundFaultPlan, rounds: int, nodes: int) -> list:
    return [plan.crashes(r, v) for r in range(1, rounds + 1)
            for v in range(nodes)]


def _drop_schedule(plan: RoundFaultPlan, rounds: int, nodes: int) -> list:
    return [plan.drops(r, u, v) for r in range(1, rounds + 1)
            for u in range(nodes) for v in range(nodes) if u != v]


class TestFaultPlan:
    def test_schedule_is_a_pure_function_of_its_labels(self):
        first = RoundFaultPlan(7, crash=0.2, loss=0.2, churn=0.2)
        second = RoundFaultPlan(7, crash=0.2, loss=0.2, churn=0.2)
        assert _crash_schedule(first, 16, 8) == _crash_schedule(second, 16, 8)
        assert _drop_schedule(first, 8, 6) == _drop_schedule(second, 8, 6)
        # Asking twice, or in another order, never shifts a decision.
        assert [first.crashes(3, 5), first.crashes(1, 0)] == [
            first.crashes(3, 5), first.crashes(1, 0)]
        assert [deterministic_uniform(c, "x", 1) for c in range(8)] == [
            deterministic_uniform(c, "x", 1) for c in range(8)]
        assert all(0.0 <= deterministic_uniform(c, "x", 1) < 1.0
                   for c in range(64))

    def test_scope_and_label_decorrelate_schedules(self):
        base = RoundFaultPlan(7, crash=0.3, loss=0.3)
        other_seed = RoundFaultPlan(8, crash=0.3, loss=0.3)
        assert _crash_schedule(base, 16, 8) != _crash_schedule(other_seed, 16, 8)
        assert _drop_schedule(base, 8, 6) != _drop_schedule(other_seed, 8, 6)
        draws = [deterministic_uniform(c, "sim-crash", 7, 0) for c in range(64)]
        assert draws != [deterministic_uniform(c, "sim-loss", 7, 0)
                         for c in range(64)]
        # Parts are length-prefixed: ("ab", "c") and ("a", "bc") differ.
        assert deterministic_uniform(0, "ab", "c") != deterministic_uniform(
            0, "a", "bc")

    def test_rates_are_respected_in_the_long_run(self):
        plan = RoundFaultPlan(3, loss=0.25)
        decisions = _drop_schedule(plan, 200, 5)  # 4000 messages
        dropped = sum(decisions)
        assert 0.2 < dropped / len(decisions) < 0.3
        # Loss is per message; churn takes both directions down together.
        churn = RoundFaultPlan(3, churn=0.5)
        for r in range(1, 65):
            assert churn.drops(r, 0, 1) == churn.drops(r, 1, 0)

    def test_zero_rate_kinds_never_fire(self):
        plan = RoundFaultPlan(3, crash=0.0, loss=1.0)
        assert plan.active
        assert not any(_crash_schedule(plan, 16, 8))
        assert all(_drop_schedule(plan, 4, 5))
        assert not RoundFaultPlan(3).active
        # Nothing fires before start_round, whatever the rates.
        late = RoundFaultPlan(3, crash=1.0, loss=1.0, start_round=4)
        assert not any(late.crashes(r, 0) or late.drops(r, 0, 1)
                       for r in range(1, 4))
        assert late.crashes(4, 0) and late.drops(4, 0, 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="in \\[0, 1\\]"):
            RoundFaultPlan(1, crash=1.5)
        with pytest.raises(ConfigurationError, match="in \\[0, 1\\]"):
            RoundFaultPlan(1, loss=-0.1)
        with pytest.raises(ConfigurationError, match="start_round"):
            RoundFaultPlan(1, start_round=0)
