"""Analysis layer: tables, statistics, and experiment smoke tests."""

import os
import subprocess
import sys

import pytest

import repro
from repro.analysis import (
    EXPERIMENTS,
    Table,
    geometric_mean,
    log2_or_floor,
    success_rate,
    wilson_interval,
)


class TestTable:
    def test_render_alignment(self):
        t = Table(title="T", rows=[{"a": 1, "bb": 2.5}, {"a": 30, "bb": True}])
        text = t.render()
        assert "T" in text
        assert "a" in text and "bb" in text
        assert "30" in text and "yes" in text

    def test_column_order_defaults_to_first_row(self):
        t = Table(title="T", rows=[{"z": 1, "a": 2}])
        assert list(t.columns) == ["z", "a"]

    def test_explicit_columns(self):
        t = Table(title="T", rows=[{"a": 1, "b": 2}], columns=["b", "a"])
        header = t.render().splitlines()[2]
        assert header.index("b") < header.index("a")

    def test_notes_rendered(self):
        t = Table(title="T", rows=[{"a": 1}], notes=["check me"])
        assert "note: check me" in t.render()

    def test_column_extraction(self):
        t = Table(title="T", rows=[{"a": 1}, {"a": 2}])
        assert t.column("a") == [1, 2]
        assert t.column("missing") == [None, None]

    def test_float_formatting(self):
        t = Table(title="T", rows=[{"x": 0.123456}])
        assert "0.1235" in t.render()


class TestStats:
    def test_success_rate(self):
        assert success_rate([True, True, False, False]) == 0.5
        assert success_rate([]) == 0.0

    def test_wilson_interval_contains_p(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_wilson_interval_extremes(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.25
        lo, hi = wilson_interval(20, 20)
        assert lo > 0.75 and hi == 1.0

    def test_wilson_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1, 0]) == 0.0

    def test_log2_or_floor(self):
        assert log2_or_floor(0.25) == -2.0
        assert log2_or_floor(0.0) == -60.0
        assert log2_or_floor(0.0, floor=-10) == -10


class TestExperimentRegistry:
    def test_all_eleven_registered(self):
        assert sorted(EXPERIMENTS) == [f"e{i:02d}" for i in range(1, 12)]

    # The heavy experiments have their own benchmarks; here just smoke
    # the two cheapest drivers to make sure the module stays importable
    # and table-shaped.
    def test_e09_smoke(self):
        table = EXPERIMENTS["e09"](quick=True, seed=2)
        assert table.rows
        assert "Luby rounds" in table.columns

    def test_e06_smoke(self):
        table = EXPERIMENTS["e06"](quick=True, seed=2)
        assert table.rows[0]["shattering success"] == 1.0


class TestImportFloor:
    def test_cli_import_pulls_in_no_network_stack(self):
        """Sweeps run on one host: the CLI needs no HTTP, URL or TLS code."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys\n"
                "import repro.analysis.cli\n"
                "banned = ('http.client', 'http.server', 'urllib.request',\n"
                "          'socketserver', 'ssl')\n"
                "loaded = [name for name in banned if name in sys.modules]\n"
                "assert not loaded, loaded\n")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
