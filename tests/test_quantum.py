import re
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gk2codes.fengrao import d_ord
from gk2codes.gk2 import curve_params, semigroup_o1, semigroup_o2
from gk2codes.quantum import (
    REGIME_HIGH_DEGREE,
    REGIME_ORDER_BOUND,
    QuantumRange,
    _high_degree_columns,
    _window,
    quantum_table,
    range_high_degree,
    range_order_bound,
)


@pytest.fixture(scope="module")
def p25():
    return curve_params(2, 5)


@pytest.fixture(scope="module")
def s1(p25):
    return semigroup_o1(p25)


@pytest.fixture(scope="module")
def s2(p25):
    return semigroup_o2(p25)


def test_high_degree_at_lower_edge(p25):
    rng = range_high_degree(p25, 3 * p25.genus - 1)
    assert (rng.index, rng.s_min, rng.s_max, rng.d_floor) == (137, 1, 3694, 92)
    assert not rng.empty and rng.discrepancy is None


def test_high_degree_q2_n3():
    p = curve_params(2, 3)
    rng = range_high_degree(p, 29)
    assert (rng.length, rng.s_min, rng.s_max, rng.d_floor) == (224, 1, 166, 20)


def test_high_degree_boundary_empty(p25):
    length = p25.rational_point_count - 1
    rng = range_high_degree(p25, length - p25.genus)
    assert rng.empty
    assert rng.discrepancy == "empty range"
    with pytest.raises(ValueError):
        range_high_degree(p25, 3 * p25.genus - 2)
    with pytest.raises(ValueError):
        range_high_degree(p25, length - p25.genus + 1)


def test_order_bound_rows_o1(p25, s1):
    rng = range_order_bound(p25, s1, 46)
    assert (rng.d_floor, rng.s_min, rng.s_max) == (6, 46, 3871)
    assert rng.regime == REGIME_ORDER_BOUND


def test_order_bound_rows_o2(p25, s2):
    rng = range_order_bound(p25, s2, 104)
    assert (rng.d_floor, rng.s_min, rng.s_max) == (58, 1, 3760)


def test_order_bound_rejections(p25, s1):
    with pytest.raises(ValueError):
        range_order_bound(p25, s1, p25.genus - 1)
    with pytest.raises(ValueError):
        range_order_bound(p25, s1, 3 * p25.genus)


def test_order_bound_reference_discrepancy(p25, s1):
    row = {"d_ord": 6, "s_min": 47, "s_max": 3871}
    rng = range_order_bound(p25, s1, 46, reference_row=row)
    assert rng.discrepancy == "s_min computed 46 != published 47"
    assert (rng.s_min, rng.s_max) == (46, 3871)  # formula output is normative


def test_css_dimension_arithmetic(p25, s1):
    # nested duals: dims N - h(rho_l) and N - h(rho_{l+s}) differ by exactly s
    length = p25.rational_point_count - 1
    for l in (46, 60, 100):
        for s in (1, 7, 46):
            k2 = length - s1.count_nongaps_upto(s1.nth_nongap(l)) + 1
            k1 = length - s1.count_nongaps_upto(s1.nth_nongap(l + s)) + 1
            assert k2 - k1 == s


def test_regime_boundary_relation(p25, s1, s2):
    # the two floors at l = 3g-1 differ by the one-index shift:
    # the genus floor there equals the order bound one index up
    g = p25.genus
    edge = 3 * g - 1
    floor_high = range_high_degree(p25, edge).d_floor
    for sg in (s1, s2):
        assert range_order_bound(p25, sg, edge).d_floor == floor_high - 1
        assert d_ord(sg, edge + 1) == floor_high


def test_quantum_table_defaults(p25, s1):
    rows = quantum_table(p25, s1)
    assert rows[0].index == p25.genus
    assert rows[-1].index == 3 * p25.genus - 1
    assert all(r.regime == REGIME_ORDER_BOUND for r in rows)
    hi = quantum_table(p25, s1, 137, 200, regime=REGIME_HIGH_DEGREE)
    assert all(r.d_floor == r.index + 1 - p25.genus for r in hi)
    with pytest.raises(ValueError):
        quantum_table(p25, s1, 1, 10)


def high_degree_row(params, index):
    """Oracle: the former per-row high-degree formula."""
    g = params.genus
    length = params.rational_point_count - 1
    s_max = length - 2 * index
    return QuantumRange(length, index, index + 1 - g, 1, s_max, REGIME_HIGH_DEGREE,
                        "empty range" if s_max < 1 else None)


@cache
def _curve(q, n):
    params = curve_params(q, n)
    return params, semigroup_o1(params)


@st.composite
def high_degree_ranges(draw):
    q, n = draw(st.sampled_from([(2, 3), (2, 5), (3, 3), (2, 7)]))
    params, _ = _curve(q, n)
    lo, hi = 3 * params.genus - 1, params.rational_point_count - 1 - params.genus
    l_min = draw(st.integers(lo, hi))
    span = draw(st.sampled_from([0, 3, hi - lo]))  # one row, a few, or up to the regime end
    return q, n, l_min, draw(st.integers(l_min, min(hi, l_min + span)))


@settings(max_examples=60, deadline=None)
@given(high_degree_ranges())
@example((2, 3, 29, 214))  # the whole regime, N = 224: rows past N/2 are empty
@example((2, 3, 111, 113))  # s_max = 2, 0, -2: the first empty row
@example((2, 3, 214, 214))  # a single empty row
@example((2, 7, 570, 570))  # a single row at the lower edge
def test_high_degree_table_matches_per_row_oracle(job):
    q, n, l_min, l_max = job
    params, sg = _curve(q, n)
    rows = quantum_table(params, sg, l_min, l_max, regime=REGIME_HIGH_DEGREE)
    want = [high_degree_row(params, l) for l in range(l_min, l_max + 1)]
    assert rows == want
    assert rows == [range_high_degree(params, l) for l in range(l_min, l_max + 1)]
    assert all(type(r) is QuantumRange for r in rows)


@settings(max_examples=60, deadline=None)
@given(high_degree_ranges())
@example((2, 3, 29, 214))
@example((2, 3, 111, 113))
@example((2, 3, 214, 214))
def test_high_degree_columns_zip_to_the_table(job):
    q, n, l_min, l_max = job
    params, sg = _curve(q, n)
    columns = _high_degree_columns(params.rational_point_count - 1, params.genus, l_min, l_max)
    rows = quantum_table(params, sg, l_min, l_max, regime=REGIME_HIGH_DEGREE)
    assert list(zip(*columns)) == rows


@pytest.mark.parametrize("regime", [REGIME_ORDER_BOUND, REGIME_HIGH_DEGREE])
def test_window_defaults_and_rejections(p25, s1, regime):
    g, length = p25.genus, p25.rational_point_count - 1
    lo, hi = (g, 3 * g - 1) if regime == REGIME_ORDER_BOUND else (3 * g - 1, length - g)
    assert _window(p25, None, None, regime) == (lo, hi)
    assert _window(p25, lo + 1, None, regime) == (lo + 1, hi)
    for l_min, l_max in ((lo - 1, hi), (lo, hi + 1), (lo + 2, lo + 1)):
        message = f"need {lo} <= l_min <= l_max <= {hi}, got [{l_min}, {l_max}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            _window(p25, l_min, l_max, regime)
        with pytest.raises(ValueError, match="l_min <= l_max"):
            quantum_table(p25, s1, l_min, l_max, regime=regime)
    with pytest.raises(ValueError, match="unknown regime"):
        _window(p25, None, None, "other")
