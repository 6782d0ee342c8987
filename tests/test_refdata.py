"""Every printed cell of the reference tables against computed values.

The expected discrepancy sets below are frozen: they are exactly the
printing artifacts of the source tables, re-derived by computation (see the
project notes for the analysis).  Any change here means either a regression
in the engines or an edit to the fixtures.
"""

import pytest

from gk2codes import refdata
from gk2codes.gk2 import curve_params, semigroup_o1, semigroup_o2
from gk2codes.quantum import quantum_table
from gk2codes.refdata import (
    _notes,
    compare_code_table,
    compare_quantum_table,
    has_reference,
    load_code_reference,
    load_quantum_reference,
)


@pytest.fixture(scope="module")
def p25():
    return curve_params(2, 5)


@pytest.fixture(scope="module")
def semigroups(p25):
    return {"O1": semigroup_o1(p25), "O2": semigroup_o2(p25)}


def test_fixture_shapes():
    assert len(load_code_reference("O1")) == 138
    assert len(load_code_reference("O2")) == 138
    assert len(load_quantum_reference("O1")) == 26
    assert len(load_quantum_reference("O2")) == 36


def test_has_reference(p25):
    assert has_reference(p25)
    assert not has_reference(curve_params(2, 3))
    with pytest.raises(ValueError):
        compare_code_table(curve_params(2, 3), semigroup_o1(curve_params(2, 3)), "O1")


def test_code_table_o1_cells_exact(p25, semigroups):
    comp = compare_code_table(p25, semigroups["O1"], "O1")
    assert comp.rows_checked == 138
    # zero value-level disagreement on every printed (k, rho, nu, d) cell
    assert comp.value_mismatches == []
    # printing artifacts, frozen: 23 lines carry a mistyped first column
    # (12 lines "39688", 11 lines "3868", each line spanning 3 fixture rows)
    printed = sorted({v for _, v in comp.first_column_typos})
    assert printed == [3868, 39688]
    assert len(comp.first_column_typos) == 69
    assert sum(1 for _, v in comp.first_column_typos if v == 39688) == 36
    assert sum(1 for _, v in comp.first_column_typos if v == 3868) == 33
    # one cell printed twice, one cell omitted (59 = 26 + 33 is a nongap:
    # the omitted row's neighbors' k-column confirms it was skipped)
    assert comp.duplicated_cells == [3962]
    assert comp.omitted_indices == [19]


def test_code_table_o2_cells_exact(p25, semigroups):
    comp = compare_code_table(p25, semigroups["O2"], "O2")
    assert comp.rows_checked == 138
    assert comp.value_mismatches == []
    assert comp.first_column_typos == []
    assert comp.duplicated_cells == []
    assert comp.omitted_indices == []
    assert comp.clean


def test_quantum_table_o1_cells(p25, semigroups):
    comp = compare_quantum_table(p25, semigroups["O1"], "O1")
    assert comp.rows_checked == 26
    assert comp.d_or_smax_mismatches == []
    # two published lower ends disagree with the formula; formula stays
    # normative and the differences are reported, never patched over
    flagged = {(m.index, m.computed, m.reference) for m in comp.s_min_mismatches}
    assert flagged == {(46, 46, 47), (63, 29, 28)}


def test_quantum_table_o2_cells(p25, semigroups):
    comp = compare_quantum_table(p25, semigroups["O2"], "O2")
    assert comp.rows_checked == 36
    assert comp.clean


@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_quantum_comparison_reads_one_table(monkeypatch, p25, semigroups, orbit):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2:])
        return quantum_table(*args, **kwargs)

    monkeypatch.setattr(refdata, "quantum_table", counted)
    assert compare_quantum_table(p25, semigroups[orbit], orbit).rows_checked
    assert calls == [(46, 105 if orbit == "O1" else 104)]  # the printed l-window


def test_order_bound_reference_discrepancy(p25, semigroups):
    row = {"l": 46, "d_ord": 6, "s_min": 47, "s_max": 3871}
    assert row in load_quantum_reference("O1")
    rows = quantum_table(p25, semigroups["O1"], 46, 46)
    assert _notes(p25, "O1", rows) == ["s_min computed 46 != published 47"]
    [rng] = rows  # formula output is normative: the record keeps its cells and no note
    assert (rng.s_min, rng.s_max, rng.discrepancy) == (46, 3871, None)


def test_omitted_o1_cell_values(p25, semigroups):
    # the skipped cell, re-derived: index 19, k = 3949, rho = 59, nu = 4, d = 3
    from gk2codes.fengrao import table

    row = {r.index: r for r in table(semigroups["O1"], p25, 19, 19)}[19]
    assert (row.dim, row.rho, row.nu, row.d_ord) == (3949, 59, 4, 3)
