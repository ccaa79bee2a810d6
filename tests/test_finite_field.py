"""GF(2^m) arithmetic: axioms, tables, and polynomial evaluation."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.errors import ConfigurationError
from repro.randomness import finite_field as field_module
from repro.randomness.finite_field import (
    GF2m,
    inner_product_bits,
    min_degree_for,
    supported_degrees,
)

SMALL_DEGREES = [1, 2, 3, 4, 5, 8]


@pytest.fixture(params=SMALL_DEGREES)
def field(request):
    return GF2m(request.param)


def elements(m: int):
    return st.integers(min_value=0, max_value=(1 << m) - 1)


class TestAxioms:
    @given(data=st.data())
    def test_mul_commutative(self, field, data):
        a = data.draw(elements(field.m))
        b = data.draw(elements(field.m))
        assert field.mul(a, b) == field.mul(b, a)

    @given(data=st.data())
    def test_mul_associative(self, field, data):
        a = data.draw(elements(field.m))
        b = data.draw(elements(field.m))
        c = data.draw(elements(field.m))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    @given(data=st.data())
    def test_distributive(self, field, data):
        a = data.draw(elements(field.m))
        b = data.draw(elements(field.m))
        c = data.draw(elements(field.m))
        left = field.mul(a, field.add(b, c))
        right = field.add(field.mul(a, b), field.mul(a, c))
        assert left == right

    @given(data=st.data())
    def test_multiplicative_identity(self, field, data):
        a = data.draw(elements(field.m))
        assert field.mul(a, 1) == a

    @given(data=st.data())
    def test_additive_inverse_is_self(self, field, data):
        a = data.draw(elements(field.m))
        assert field.add(a, a) == 0

    @given(data=st.data())
    def test_inverse(self, field, data):
        a = data.draw(elements(field.m).filter(lambda x: x != 0))
        assert field.mul(a, field.inv(a)) == 1

    def test_zero_has_no_inverse(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    @given(data=st.data())
    def test_closure(self, field, data):
        a = data.draw(elements(field.m))
        b = data.draw(elements(field.m))
        assert 0 <= field.mul(a, b) < field.order


class TestTables:
    """Table-based fast path must agree with carry-less multiplication."""

    @pytest.mark.parametrize("m", [2, 3, 4, 12, 13])
    def test_table_matches_slow(self, m):
        field = GF2m(m)
        assert field._log, f"expected tables for m={m}"
        step = max(1, field.order // 37)
        for a in range(1, field.order, step):
            for b in range(1, field.order, step):
                assert field.mul(a, b) == field._mul_slow(a, b)

    def test_aes_field_falls_back(self):
        # x is not primitive for the AES polynomial; the slow path must
        # still give the textbook product.
        field = GF2m(8)
        assert field.mul(0x53, 0xCA) == 0x01


class TestHelpers:
    def test_pow_matches_repeated_mul(self):
        field = GF2m(5)
        a = 7
        acc = 1
        for e in range(10):
            assert field.pow(a, e) == acc
            acc = field.mul(acc, a)

    def test_pow_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            GF2m(5).pow(3, -1)

    def test_eval_poly_horner(self):
        field = GF2m(4)
        coeffs = [3, 5, 7]  # 3 + 5x + 7x^2
        for x in range(field.order):
            expected = field.add(
                field.add(3, field.mul(5, x)),
                field.mul(7, field.mul(x, x)))
            assert field.eval_poly(coeffs, x) == expected

    def test_eval_poly_constant(self):
        field = GF2m(3)
        assert field.eval_poly([6], 5) == 6

    def test_eval_empty_poly_is_zero(self):
        assert GF2m(3).eval_poly([], 4) == 0

    def test_element_reduces(self):
        field = GF2m(4)
        assert field.element(0xFF) == 0xF

    def test_unsupported_degree(self):
        with pytest.raises(ConfigurationError):
            GF2m(64)

    def test_min_degree_for(self):
        assert min_degree_for(2) == 1
        assert min_degree_for(3) == 2
        assert min_degree_for(1 << 10) == 10
        assert min_degree_for((1 << 10) + 1) == 11

    def test_supported_degrees_sorted(self):
        degrees = supported_degrees()
        assert degrees == sorted(degrees)
        assert 16 in degrees

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_inner_product_bits(self, a, b):
        expected = sum(
            ((a >> i) & 1) * ((b >> i) & 1) for i in range(8)) % 2
        assert inner_product_bits(a, b) == expected

    def test_eq_and_hash(self):
        assert GF2m(5) == GF2m(5)
        assert GF2m(5) != GF2m(6)
        assert hash(GF2m(5)) == hash(GF2m(5))


def reference_tables(field):
    """Log/antilog tables built the slow way: repeated ``_mul_slow``."""
    exp = [1]
    for _ in range(field.order - 2):
        exp.append(field._mul_slow(exp[-1], 2))
    log = [0] * field.order
    for i, value in enumerate(exp):
        log[value] = i
    return log, exp


TABLE_DEGREES = [m for m in supported_degrees() if m <= 16 and m != 8]


class TestSharedTables:
    """Each degree's tables are built once per process and shared."""

    @pytest.mark.parametrize("m", TABLE_DEGREES)
    def test_cached_tables_equal_slow_reference(self, m):
        field = GF2m(m)
        log, exp = reference_tables(field)
        assert list(field._log) == log
        assert list(field._exp) == exp + exp
        period = field.order - 1
        tables = field._tables
        assert tables.log_np[1:].tolist() == log[1:]
        assert tables.exp_np[:2 * period].tolist() == exp + exp
        assert not tables.exp_np[2 * period:].any()
        assert tables.exp_np[tables.log_np[0] + tables.log_np].tolist() \
            == [0] * field.order

    def test_instances_share_table_objects(self):
        first, second = GF2m(12), GF2m(12)
        assert first._tables is second._tables
        assert first._log is second._log and first._exp is second._exp

    def test_aes_field_stays_tableless(self):
        field = GF2m(8)
        assert field._tables is None and not field._log
        assert field_module._tables_for(8) is None
        assert field.mul_vec(np.array([3]), np.array([5])) is None
        assert field.eval_poly_vec([1, 2], np.array([3])) is None

    def test_shared_tables_are_read_only(self):
        field = GF2m(5)
        with pytest.raises(TypeError):
            field._log[3] = 0
        with pytest.raises(TypeError):
            field._exp[3] = 0
        for array in (field._tables.log_np, field._tables.exp_np):
            with pytest.raises(ValueError):
                array[3] = 0
        with pytest.raises(AttributeError):
            field._tables.log_np = None
        assert GF2m(5).mul(3, 7) == field._mul_slow(3, 7)

    def test_import_builds_no_tables(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import repro.analysis.experiments\n"
                "from repro.randomness import finite_field\n"
                "assert finite_field._tables_for.cache_info().currsize == 0\n")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestVectorized:
    """The numpy ops agree with the scalar ones, zeros and 2-D included."""

    @pytest.mark.parametrize("m", [1, 3, 5, 12, 16])
    def test_mul_vec_matches_mul(self, m):
        field = GF2m(m)
        rng = np.random.default_rng(m)
        a = rng.integers(0, field.order, size=(6, 9))
        b = rng.integers(0, field.order, size=(6, 9))
        a[0, :] = 0
        b[:, 0] = 0
        got = field.mul_vec(a, b)
        assert got.shape == a.shape
        for i, j in np.ndindex(*a.shape):
            assert got[i, j] == field.mul(int(a[i, j]), int(b[i, j]))

    @pytest.mark.parametrize("m", [1, 3, 5, 12, 16])
    @pytest.mark.parametrize("coeffs", [[], [0], [5], [0, 0, 3], [3, 0, 7, 1]])
    def test_eval_poly_vec_matches_eval_poly(self, m, coeffs):
        field = GF2m(m)
        coeffs = [field.element(c) for c in coeffs]
        xs = np.random.default_rng(m).integers(0, field.order, size=(4, 7))
        xs[1, :] = 0
        got = field.eval_poly_vec(coeffs, xs)
        assert got.shape == xs.shape
        for i, j in np.ndindex(*xs.shape):
            assert got[i, j] == field.eval_poly(coeffs, int(xs[i, j]))
