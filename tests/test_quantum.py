import re
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gk2codes import quantum
from gk2codes.fengrao import d_ord
from gk2codes.gk2 import curve_params, orbit_semigroup, semigroup_o1, semigroup_o2
from gk2codes.quantum import (
    REGIME_HIGH_DEGREE,
    REGIME_ORDER_BOUND,
    QuantumRange,
    _runs,
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
    # the one-row form has no check of its own: the message is _window's
    for index in (3 * p25.genus - 2, length - p25.genus + 1):
        message = f"need 137 <= l_min <= l_max <= 3922, got [{index}, {index}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            range_high_degree(p25, index)


def test_order_bound_rows_o1(p25, s1):
    rng = range_order_bound(p25, s1, 46)
    assert (rng.d_floor, rng.s_min, rng.s_max) == (6, 46, 3871)
    assert rng.regime == REGIME_ORDER_BOUND


def test_order_bound_rows_o2(p25, s2):
    rng = range_order_bound(p25, s2, 104)
    assert (rng.d_floor, rng.s_min, rng.s_max) == (58, 1, 3760)


def test_order_bound_rejections(p25, s1):
    for index in (p25.genus - 1, 3 * p25.genus):
        message = f"need 46 <= l_min <= l_max <= 137, got [{index}, {index}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            range_order_bound(p25, s1, index)


def test_one_row_forms_reject_a_none_index():
    # _window reads None as the regime's end, which made the one-row forms
    # return their regime's first row (l = 29 and l = 10 at (2, 3))
    p = curve_params(2, 3)
    with pytest.raises(TypeError):
        range_high_degree(p, None)
    with pytest.raises(TypeError):
        range_order_bound(p, semigroup_o1(p), None)


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


def order_bound_row(params, semigroup, index):
    """Oracle: the former per-row order-bound formula."""
    g = params.genus
    length = params.rational_point_count - 1
    d = d_ord(semigroup, index)
    return QuantumRange(length, index, d, max(2 * g - index, 1),
                        min(length - 2 * index, length - index - g + 1 - d), REGIME_ORDER_BOUND)


def oracle_rows(params, semigroup, l_min, l_max, regime):
    if regime == REGIME_HIGH_DEGREE:
        return [high_degree_row(params, l) for l in range(l_min, l_max + 1)]
    return [order_bound_row(params, semigroup, l) for l in range(l_min, l_max + 1)]


def regime_interval(params, regime):
    g = params.genus
    if regime == REGIME_ORDER_BOUND:
        return g, 3 * g - 1
    return 3 * g - 1, params.rational_point_count - 1 - g


@cache
def _curve(q, n, orbit="O1"):
    params = curve_params(q, n)
    return params, orbit_semigroup(params, orbit)


@st.composite
def table_windows(draw, regimes=(REGIME_ORDER_BOUND, REGIME_HIGH_DEGREE)):
    """(q, n, orbit, regime, l_min, l_max): a window inside the regime's interval."""
    q, n = draw(st.sampled_from([(2, 3), (2, 5), (3, 3), (2, 7)]))
    orbit, regime = draw(st.sampled_from(["O1", "O2"])), draw(st.sampled_from(regimes))
    lo, hi = regime_interval(_curve(q, n, orbit)[0], regime)
    l_min = draw(st.integers(lo, hi))
    span = draw(st.sampled_from([0, 3, hi - lo]))  # one row, a few, or up to the regime end
    return q, n, orbit, regime, l_min, draw(st.integers(l_min, min(hi, l_min + span)))


HD, OB = REGIME_HIGH_DEGREE, REGIME_ORDER_BOUND


@settings(max_examples=60, deadline=None)
@given(table_windows(regimes=(HD,)))
@example((2, 3, "O1", HD, 29, 214))  # the whole regime, N = 224: rows past N/2 are empty
@example((2, 3, "O1", HD, 111, 113))  # s_max = 2, 0, -2: the first empty row
@example((2, 3, "O1", HD, 214, 214))  # a single empty row
@example((2, 7, "O1", HD, 570, 570))  # a single row at the lower edge
def test_high_degree_table_matches_per_row_oracle(job):
    q, n, orbit, regime, l_min, l_max = job
    params, sg = _curve(q, n, orbit)
    rows = quantum_table(params, sg, l_min, l_max, regime=regime)
    assert rows == oracle_rows(params, sg, l_min, l_max, regime)
    assert rows == [range_high_degree(params, l) for l in range(l_min, l_max + 1)]
    assert all(type(r) is QuantumRange for r in rows)


@settings(max_examples=60, deadline=None)
@given(table_windows(regimes=(OB,)))
@example((2, 3, "O1", OB, 10, 29))  # the whole regime: s_min reaches 1 at l = 2g - 1
@example((2, 3, "O2", OB, 10, 29))
@example((2, 5, "O1", OB, 46, 46))  # a single row at each edge
@example((2, 5, "O2", OB, 137, 137))
@example((2, 7, "O2", OB, 190, 569))  # the whole regime at g = 190
def test_order_bound_table_matches_per_row_oracle(job):
    q, n, orbit, regime, l_min, l_max = job
    params, sg = _curve(q, n, orbit)
    rows = quantum_table(params, sg, l_min, l_max, regime=regime)
    assert rows == oracle_rows(params, sg, l_min, l_max, regime)
    assert rows == [range_order_bound(params, sg, l) for l in range(l_min, l_max + 1)]
    assert all(type(r) is QuantumRange for r in rows)


@settings(max_examples=60, deadline=None)
@given(table_windows())
@example((2, 3, "O1", HD, 29, 214))
@example((2, 3, "O1", HD, 111, 113))
@example((2, 3, "O1", HD, 214, 214))
@example((2, 3, "O2", OB, 10, 29))
def test_runs_are_what_the_table_writer_takes(job):
    # _table_writer._table writes an int, str or None field as a constant and takes
    # exactly count cells from any other: a short column would reach its
    # bytes template with too few cells
    q, n, orbit, regime, l_min, l_max = job
    params, sg = _curve(q, n, orbit)
    runs = _runs(params, sg, l_min, l_max, regime)
    assert sum(count for count, _ in runs) == l_max - l_min + 1
    rows = []
    for count, fields in runs:
        columns = [[f] * count if f is None or isinstance(f, (int, str)) else list(f)
                   for f in fields]
        assert [len(column) for column in columns] == [count] * len(QuantumRange._fields)
        rows += zip(*columns)
    assert rows == quantum_table(params, sg, l_min, l_max, regime=regime)
    assert rows == oracle_rows(params, sg, l_min, l_max, regime)


@pytest.mark.parametrize("regime", [REGIME_ORDER_BOUND, REGIME_HIGH_DEGREE])
def test_table_builds_no_row_through_the_one_row_forms(monkeypatch, p25, s2, regime):
    def one_row(*args, **kwargs):
        raise AssertionError("quantum_table called a one-row form")

    monkeypatch.setattr(quantum, "range_order_bound", one_row)
    monkeypatch.setattr(quantum, "range_high_degree", one_row)
    l_min, l_max = regime_interval(p25, regime)
    l_max = min(l_max, l_min + 500)
    rows = quantum_table(p25, s2, l_min, l_max, regime=regime)
    assert rows == oracle_rows(p25, s2, l_min, l_max, regime)


@pytest.mark.parametrize("regime", [REGIME_ORDER_BOUND, REGIME_HIGH_DEGREE])
def test_window_defaults_and_rejections(p25, s1, regime):
    lo, hi = regime_interval(p25, regime)
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
