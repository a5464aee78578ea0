"""Unit tests for the cost model."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim.costs import CostModel


def test_defaults_are_positive():
    costs = CostModel()
    assert costs.page_size >= 1
    assert costs.io_cost > 0
    assert costs.cpu_tuple_cost > 0


def test_invalid_page_size_rejected():
    with pytest.raises(ConfigurationError):
        CostModel(page_size=0)


@pytest.mark.parametrize(
    "field", ["io_cost", "cpu_tuple_cost", "cpu_compare_cost", "cpu_result_cost"]
)
def test_negative_costs_rejected(field):
    with pytest.raises(ConfigurationError):
        CostModel(**{field: -1e-6})


@pytest.mark.parametrize(
    "field", ["io_cost", "cpu_tuple_cost", "cpu_compare_cost", "cpu_result_cost"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_costs_rejected(field, value):
    # 0 * inf is NaN: an infinite charge would make a zero-candidate
    # row's array walk differ from the per-tuple path, which skips it.
    with pytest.raises(ConfigurationError):
        CostModel(**{field: value})


def test_zero_costs_allowed():
    # A free cost model is legal (pure counting experiments).
    costs = CostModel(io_cost=0.0, cpu_tuple_cost=0.0)
    assert costs.io_time(10) == 0.0


def test_pages_for_exact_multiple():
    costs = CostModel(page_size=50)
    assert costs.pages_for(100) == 2


def test_pages_for_partial_page_rounds_up():
    costs = CostModel(page_size=50)
    assert costs.pages_for(101) == 3


def test_pages_for_zero_and_negative():
    costs = CostModel(page_size=50)
    assert costs.pages_for(0) == 0
    assert costs.pages_for(-5) == 0


def test_pages_for_single_tuple():
    assert CostModel(page_size=50).pages_for(1) == 1


def test_io_time_scales_linearly():
    costs = CostModel(io_cost=0.01)
    assert costs.io_time(3) == pytest.approx(0.03)


def test_sort_time_is_nlogn():
    costs = CostModel(cpu_compare_cost=1.0)
    assert costs.sort_time(8) == pytest.approx(8 * math.log2(8))


def test_sort_time_trivial_inputs_free():
    costs = CostModel()
    assert costs.sort_time(0) == 0.0
    assert costs.sort_time(1) == 0.0


def test_probe_time_per_candidate():
    costs = CostModel(cpu_compare_cost=2.0)
    assert costs.probe_time(5) == pytest.approx(10.0)


def test_result_time_per_result():
    costs = CostModel(cpu_result_cost=3.0)
    assert costs.result_time(4) == pytest.approx(12.0)


def test_cost_model_is_frozen():
    costs = CostModel()
    with pytest.raises(AttributeError):
        costs.page_size = 10  # type: ignore[misc]
