"""The input gate: what counts as a real number, an integer, a real array."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mirrorqed import errors

# every helper refuses each of these, whatever its interval
UNTYPED = {"bool": True, "numpy-bool": np.bool_(False), "str": "1",
           "none": None, "complex": 1 + 0j}


@pytest.mark.parametrize("value", [*UNTYPED.values(), math.nan],
                         ids=[*UNTYPED, "nan"])
def test_real_refuses_every_value_that_is_not_a_real_number(value):
    with pytest.raises(errors.InvalidParams, match=r"^x must be a real number"):
        errors.real(value, "x", finite=False)


@pytest.mark.parametrize("value,lo,strict,finite,words", [
    (0.0, 0.0, True, True, "positive and finite"),
    (math.inf, 0.0, True, True, "positive and finite"),
    (-1e-300, 0.0, False, True, "finite and >= 0"),
    (math.inf, 0.0, False, True, "finite and >= 0"),
    (-math.inf, -math.inf, False, True, "a finite real number"),
    (1e-17, 4e-16, False, False, ">= 4e-16"),
    (0.0, 0.0, True, False, "positive"),
])
def test_real_refuses_a_value_out_of_its_interval(value, lo, strict, finite,
                                                  words):
    with pytest.raises(errors.InvalidParams,
                       match=f"^x must be {words}, got {value!r}$"):
        errors.real(value, "x", lo, strict=strict, finite=finite)


@pytest.mark.parametrize("value", [2, np.int64(2), 2.5, np.float32(2.5),
                                   np.float64(2.5), Fraction(5, 2), 10**30])
def test_real_admits_ints_and_floats_as_floats(value):
    out = errors.real(value, "x", 0.0)
    assert type(out) is float and out == float(value)
    assert errors.real(math.inf, "x", finite=False) == math.inf
    assert errors.real(4e-16, "x", 4e-16) == 4e-16


def test_real_names_the_domain_it_is_given():
    with pytest.raises(errors.InvalidParams,
                       match="^tol must be at least the floor, got 0.0$"):
        errors.real(0.0, "tol", 1.0, domain="at least the floor")


@pytest.mark.parametrize("value", [*UNTYPED.values(), math.nan, 1.0],
                         ids=[*UNTYPED, "nan", "whole-float"])
def test_integer_refuses_every_value_that_is_not_an_integer(value):
    with pytest.raises(errors.InvalidParams,
                       match=r"^n must be an integer >= 1, got"):
        errors.integer(value, "n", 1)


def test_integer_refuses_a_value_out_of_its_bounds():
    with pytest.raises(errors.InvalidParams, match=r"^n must be >= 1, got 0$"):
        errors.integer(0, "n", 1)
    with pytest.raises(errors.InvalidParams,
                       match=r"^n must be in \[1, 5\] \(a 1 GiB memory "
                             r"budget\), got 6$"):
        errors.integer(6, "n", 1, 5)


def test_integer_admits_integer_types_as_ints():
    for value in (5, np.int64(5), np.uint8(5)):
        out = errors.integer(value, "n", 1, 5)
        assert type(out) is int and out == 5
    assert errors.integer(-(10**30), "max_evals") == -(10**30)


@pytest.mark.parametrize("value", [
    [True, False], np.array([1, 0], dtype=bool), ["1", "2"], [None, 1.0],
    None, [1j, 0.0], [1.0, [2.0, 3.0]], [1.0, 10**400],
], ids=["bools", "bool-array", "strs", "none-entry", "none", "complex",
        "ragged", "int-past-float"])
def test_real_array_refuses_every_array_that_is_not_real(value):
    with pytest.raises(errors.InvalidParams,
                       match="^t must be an array of numbers, got"):
        errors.real_array(value, "t")


@pytest.mark.parametrize("value,words", [
    ([0.0, math.nan], "finite and >= 0"), ([0.0, -1.0], "finite and >= 0"),
    ([0.0, math.inf], "finite and >= 0"),
])
def test_real_array_refuses_an_entry_out_of_its_interval(value, words):
    with pytest.raises(errors.InvalidParams,
                       match=f"^t entries must be {words}, got {value[1]!r}$"):
        errors.real_array(value, "t", 0.0)


def test_real_array_admits_real_arrays_of_any_shape():
    for value in (1, [1, 2], [[1.5], [2.5]], np.float32(2.5),
                  [Fraction(1, 2), 10**30]):
        out = errors.real_array(value, "t", 0.0)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.asarray(value, dtype=float))


def test_real_array_per_cell_leaves_the_values_to_the_caller():
    out = errors.real_array([math.nan, -math.inf], "r", 0.0, per_cell=True)
    assert np.isnan(out[0]) and out[1] == -math.inf
    with pytest.raises(errors.InvalidParams):
        errors.real_array([True], "r", per_cell=True)


def test_real_array_admits_complex_entries_only_when_asked():
    rho = [[0.5, 0.5j], [-0.5j, 0.5]]
    assert errors.real_array(rho, "rho", dtype=complex).dtype == complex
    with pytest.raises(errors.InvalidParams, match="array of numbers"):
        errors.real_array(rho, "rho")
    with pytest.raises(errors.InvalidParams, match="entries must be finite"):
        errors.real_array([[complex(0.0, math.nan)]], "rho", dtype=complex)


def test_within_budget_refuses_one_byte_past_the_budget(monkeypatch):
    errors.within_budget(errors.MEMORY_BUDGET_BYTES, "a record")
    with pytest.raises(errors.InvalidParams,
                       match="^a record takes 1 GiB, more than the 1 GiB "
                             "memory budget$"):
        errors.within_budget(errors.MEMORY_BUDGET_BYTES + 1, "a record")
    monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", 10)
    with pytest.raises(errors.InvalidParams):
        errors.within_budget(11, "a record")
