import re

import pytest

from gk2codes import fengrao
from gk2codes.cli import main
from gk2codes.errors import InternalConsistencyError
from gk2codes.fengrao import CodeTableRow, _read, d_ord, nu, table
from gk2codes.gk2 import curve_params, semigroup_o1, semigroup_o2
from gk2codes.semigroup import NumericalSemigroup


def nu_bruteforce(sg, index):
    """Oracle: double loop over all nongap pairs below rho + 1."""
    rho = sg.nth_nongap(index)
    nongaps = sg.nongaps_upto(rho)
    return sum(1 for a in nongaps for b in nongaps if a + b == rho)


_ORACLE_WINDOWS = {}


def oracle_nus(sg, top):
    """Oracle nu values for indices 1..top, computed once per semigroup."""
    key = (sg.generators, top)
    if key not in _ORACLE_WINDOWS:
        _ORACLE_WINDOWS[key] = [None] + [nu_bruteforce(sg, m) for m in range(1, top + 1)]
    return _ORACLE_WINDOWS[key]


def d_ord_bruteforce(sg, index, top=260):
    """Oracle: suffix minimum over a window whose tail is visibly increasing."""
    vals = oracle_nus(sg, top)
    tail = vals[-20:]
    assert all(a < b for a, b in zip(tail, tail[1:])), "oracle window too short"
    return min(vals[index:])


@pytest.fixture(scope="module")
def p25():
    return curve_params(2, 5)


@pytest.fixture(scope="module")
def s1(p25):
    return semigroup_o1(p25)


@pytest.fixture(scope="module")
def s2(p25):
    return semigroup_o2(p25)


def test_nu_values_o1(s1):
    assert nu(s1, 1) == 1  # only (0, 0)
    rho_to_index = {s1.nth_nongap(i): i for i in range(1, 60)}
    assert nu(s1, rho_to_index[44]) == 3
    assert nu(s1, rho_to_index[46]) == 4
    assert nu(s1, rho_to_index[56]) == 7


def test_nu_values_o2(s2):
    rho_to_index = {s2.nth_nongap(i): i for i in range(1, 60)}
    assert nu(s2, rho_to_index[50]) == 4
    assert nu(s2, rho_to_index[56]) == 3


def test_nu_matches_bruteforce(s1, s2):
    for sg in (s1, s2):
        for index in range(1, 60):
            assert nu(sg, index) == nu_bruteforce(sg, index)


def test_d_ord_examples(s1, s2):
    idx1 = {s1.nth_nongap(i): i for i in range(1, 140)}
    assert d_ord(s1, idx1[46]) == 3
    assert d_ord(s1, idx1[98]) == 8
    idx2 = {s2.nth_nongap(i): i for i in range(1, 140)}
    assert d_ord(s2, idx2[183]) == 92


def test_d_ord_matches_bruteforce(s1, s2):
    for sg in (s1, s2):
        for index in list(range(1, 40)) + [100, 137, 138, 139, 150]:
            assert d_ord(sg, index) == d_ord_bruteforce(sg, index)


def test_d_ord_monotone_and_below_nu(s1, s2):
    for sg in (s1, s2):
        prev = 0
        for index in range(1, 160):
            d = d_ord(sg, index)
            assert d <= nu(sg, index)
            assert d >= prev
            prev = d


def test_d_ord_tail_laws(s1, s2):
    # with rho_l + 1 >= 4g the designed distance is l - g under this
    # indexing; the classical l+1-g form holds one index up
    for sg in (s1, s2):
        g = sg.genus
        start = 3 * g
        assert sg.nth_nongap(start) + 1 >= 4 * g
        for l in range(start, start + 50):
            assert d_ord(sg, l) == l - g
            assert d_ord(sg, l + 1) == (l + 1) - g


def test_table_rows(p25, s1, s2):
    rows = table(s1, p25, 1, 100)
    assert rows[0] == CodeTableRow(length=3968, index=1, dim=3967, rho=0, nu=1, d_ord=1)
    by_rho = {r.rho: r for r in rows}
    assert (by_rho[65].dim, by_rho[65].nu, by_rho[65].d_ord) == (3943, 4, 4)
    rows2 = table(s2, p25, 1, 100)
    by_rho2 = {r.rho: r for r in rows2}
    assert (by_rho2[100].dim, by_rho2[100].nu, by_rho2[100].d_ord) == (3913, 9, 9)


def test_table_dim_arithmetic(p25, s1):
    for row in table(s1, p25, 1, 150):
        assert row.dim == row.length - row.index
        assert row.rho == s1.nth_nongap(row.index)


def test_table_range_validation(p25, s1):
    with pytest.raises(ValueError):
        table(s1, p25, 0, 10)
    with pytest.raises(ValueError):
        table(s1, p25, 5, 4)


def test_table_default_window(p25, s1):
    # None stands for the default window's end: l_min = 1, l_max = 3g = 138
    full = table(s1, p25, 1, 138)
    assert table(s1, p25) == table(s1, p25, None, None) == full
    assert table(s1, p25, 100) == full[99:]
    assert table(s1, p25, l_max=10) == full[:10]


def test_threads_env_is_ignored(p25, s1, monkeypatch):
    monkeypatch.delenv("GK2_THREADS", raising=False)
    base = table(s1, p25, 1, 120)
    for raw in ("2", "-2", "zero"):
        monkeypatch.setenv("GK2_THREADS", raw)
        assert table(s1, p25, 1, 120) == base


def test_generic_semigroup_tail():
    sg = NumericalSemigroup.from_generators({5, 7, 9})
    for index in range(1, 30):
        assert nu(sg, index) == nu_bruteforce(sg, index)
        assert d_ord(sg, index) == d_ord_bruteforce(sg, index, top=90)


def table_per_row(sg, params, l_min, l_max):
    """Oracle: the former table, one nth_nongap and two profile reads per row."""
    length = params.rational_point_count - 1
    return [
        CodeTableRow(length, l, length - l, sg.nth_nongap(l), _read(sg, 0, l), _read(sg, 1, l))
        for l in range(l_min, l_max + 1)
    ]


def _table_windows(sg, length):
    """Row ranges that start and end on both sides of the cache and profile ends."""
    cached, profile = len(sg.nongaps_cached), 3 * sg.genus + 1
    windows = [(1, 3 * sg.genus), (1, length - 1), (length - 1, length - 1)]
    for edge in (cached, profile):
        windows += [(edge - 2, edge + 3), (edge, edge), (edge + 1, edge + 1), (1, edge),
                    (edge + 1, edge + 40)]
    windows.append((cached - 1, profile + 1))
    return windows


@pytest.mark.parametrize("q, n", [(2, 3), (2, 5)])
@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_table_matches_per_row_oracle(q, n, orbit):
    params = curve_params(q, n)
    sg = semigroup_o1(params) if orbit == "O1" else semigroup_o2(params)
    length = params.rational_point_count - 1
    for l_min, l_max in _table_windows(sg, length):
        rows = table(sg, params, l_min, l_max)
        assert rows == table_per_row(sg, params, l_min, l_max), (l_min, l_max)
        assert all(type(r) is CodeTableRow for r in rows)


def test_tail_law_check_fires_on_a_perturbed_gap_pair_count(monkeypatch, capsys):
    # one gap pair count off by one breaks the total g^2, whatever the slot
    real = fengrao._gap_pair_counts

    def one_slot_off(gap_bytes, genus):
        counts = list(real(gap_bytes, genus))
        counts[len(counts) // 2] += 1
        return counts

    monkeypatch.setattr(fengrao, "_gap_pair_counts", one_slot_off)
    params = curve_params(2, 3)
    sg = semigroup_o1(params)
    message = (f"Feng-Rao profile of {sg.generators} (g = {params.genus}) breaks the tail "
               "law nu(3g) = 2g or the gap pair total g^2")
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        nu(sg, 1)
    code = main(["fengrao-table", "--q", "2", "--n", "3", "--orbit", "O1"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"internal consistency failure: {message}\n")
