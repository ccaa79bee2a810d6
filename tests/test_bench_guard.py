"""scripts_bench_guard.py: regressions are reported, empty comparisons said.

The guard compares a fresh ``BENCH_*.json`` entry against the newest
committed entry with the same ``tiny`` flag. These tests feed it
synthetic entries (no benchmark runs, no git history) through
``compare_entries`` and through ``main`` with the committed payload
stubbed out.
"""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                     "scripts_bench_guard.py")
_SPEC = importlib.util.spec_from_file_location("scripts_bench_guard", _PATH)
guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(guard)


def _entry(tiny, **speedups):
    return {"tiny": tiny,
            "workloads": {name: {"speedup": value, "parity": True}
                          for name, value in speedups.items()}}


BASELINE = _entry(False, **{"bfs-500": 4.0, "flood-500": 2.0})
HALVED = _entry(False, **{"bfs-500": 2.0, "flood-500": 2.1})
DISJOINT = _entry(False, **{"bfs-120": 1.0})


@pytest.fixture
def run_guard(tmp_path, monkeypatch, capsys):
    """Run ``main`` on one fresh entry against a stubbed committed history."""
    def run(committed, fresh, *flags):
        (tmp_path / "BENCH_X.json").write_text(json.dumps([fresh]))
        monkeypatch.setattr(guard, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(guard, "committed_payload",
                            lambda name: committed)
        code = guard.main(["--files", "BENCH_X.json", *flags])
        return code, capsys.readouterr().out
    return run


def test_compare_entries_reports_a_halved_speedup():
    compared, regressions = guard.compare_entries(BASELINE, HALVED, 0.25)
    assert compared == ["bfs-500", "flood-500"]
    assert regressions == [("bfs-500", 4.0, 2.0)]


def test_compare_entries_on_disjoint_workloads_compares_nothing():
    assert guard.compare_entries(BASELINE, DISJOINT, 0.25) == ([], [])


def test_strict_exits_1_on_regression(run_guard):
    code, out = run_guard([BASELINE], HALVED, "--strict")
    assert code == 1
    assert "WARNING: BENCH_X.json bfs-500: speedup 4.00x -> 2.00x" in out
    code, _ = run_guard([BASELINE], HALVED)
    assert code == 0  # timing drift warns unless --strict


def test_disjoint_workloads_say_nothing_comparable(run_guard):
    code, out = run_guard([BASELINE], DISJOINT, "--strict")
    assert code == 0
    assert "nothing comparable" in out
    assert "no speedup regression" not in out


def test_baseline_must_share_the_tiny_flag(run_guard):
    """A tiny smoke is never compared against a full run, even when a
    workload name happens to match."""
    tiny_halved = dict(HALVED, tiny=True)
    code, out = run_guard([BASELINE], tiny_halved, "--strict")
    assert code == 0
    assert "nothing comparable" in out and "tiny=True" in out
    code, out = run_guard([dict(BASELINE, tiny=True), BASELINE],
                          tiny_halved, "--strict")
    assert code == 1  # the newest *tiny* entry is the baseline


def test_strict_parity_still_gates_without_a_baseline(run_guard):
    broken = _entry(True, **{"bfs-120": 1.0})
    broken["workloads"]["bfs-120"]["parity"] = False
    code, out = run_guard(None, broken, "--strict-parity")
    assert code == 1
    assert "PARITY VIOLATION" in out and "nothing comparable" in out
