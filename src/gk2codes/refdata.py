"""Published reference tables and the discrepancy report.

The CSV fixtures under data/ are verbatim transcriptions of the published
parameter tables for q=2, n=5 (classical dual-code tables per orbit and CSS
range tables per orbit), kept exactly as printed including typos.  Computed
values are never overwritten to match the reference: every cell where the
two disagree, and every structural oddity of the printed tables (first
column typos, a duplicated cell, an omitted cell), is reported side by side.

A computed row and its printed row are compared in one place,
_cell_mismatches, cell by cell in the order of a printed-column -> field map:
rho_l, nu_l, d_ord for the classical tables, d_ord, s_min, s_max for the CSS
ranges.  Its mismatches make the value mismatches of compare_code_table, the
discrepancy column of the CLI's quantum-table (_notes: one str per row, no
record rebuilt) and the two mismatch lists of compare_quantum_table; the
formula output is never altered to match the reference.
"""

from __future__ import annotations

import csv
from importlib import resources
from typing import NamedTuple

from .fengrao import table as fengrao_table
from .gk2 import REFERENCE_QN, CurveParams
from .quantum import QuantumRange, quantum_table
from .semigroup import NumericalSemigroup

_CODE_FILES = {"O1": "code_table_o1_q2_n5.csv", "O2": "code_table_o2_q2_n5.csv"}
_QUANTUM_FILES = {"O1": "quantum_table_o1_q2_n5.csv", "O2": "quantum_table_o2_q2_n5.csv"}


def _read_csv(name: str) -> list[dict[str, int]]:
    ref = resources.files("gk2codes.data").joinpath(name)
    with ref.open(newline="") as f:
        return [{k: int(v) for k, v in row.items()} for row in csv.DictReader(f)]


def has_reference(params: CurveParams) -> bool:
    return (params.q, params.n) == REFERENCE_QN


def load_code_reference(orbit: str) -> list[dict[str, int]]:
    """Rows with keys n_col, k, rho_l, nu_l, d_ord, exactly as printed."""
    return _read_csv(_CODE_FILES[orbit])


def load_quantum_reference(orbit: str) -> list[dict[str, int]]:
    """Rows with keys l, d_ord, s_min, s_max, exactly as printed."""
    return _read_csv(_QUANTUM_FILES[orbit])


class CellMismatch(NamedTuple):
    index: int
    column: str
    computed: int
    reference: int


# printed column -> field of the computed row, in comparison order
_CODE_CELLS = {"rho_l": "rho", "nu_l": "nu", "d_ord": "d_ord"}
_QUANTUM_CELLS = {"d_ord": "d_floor", "s_min": "s_min", "s_max": "s_max"}


def _cell_mismatches(row, printed: dict[str, int], cells: dict[str, str]) -> list[CellMismatch]:
    """The cells where a computed row and its printed row differ, in the order of cells."""
    return [CellMismatch(row.index, col, have, printed[col])
            for col, field in cells.items() if (have := getattr(row, field)) != printed[col]]


class CodeTableComparison:
    """Computed-vs-reference comparison for one orbit's classical table."""

    def __init__(self, orbit: str):
        self.orbit = orbit
        self.rows_checked = 0
        self.value_mismatches: list[CellMismatch] = []
        self.first_column_typos: list[tuple[int, int]] = []  # (row#, printed N)
        self.duplicated_cells: list[int] = []  # duplicated k values
        self.omitted_indices: list[int] = []  # l missing from the printout

    @property
    def clean(self) -> bool:
        return not self.value_mismatches

    def summary(self) -> dict:
        return {
            "orbit": self.orbit,
            "rows_checked": self.rows_checked,
            "value_mismatches": [m._asdict() for m in self.value_mismatches],
            "first_column_typos": [{"row": r, "printed": v} for r, v in self.first_column_typos],
            "duplicated_cells_k": self.duplicated_cells,
            "omitted_indices": self.omitted_indices,
        }


def compare_code_table(
    params: CurveParams, semigroup: NumericalSemigroup, orbit: str
) -> CodeTableComparison:
    """Check every printed cell of the classical reference table for one orbit."""
    if not has_reference(params):
        raise ValueError(f"no reference table for q={params.q}, n={params.n}")
    ref = load_code_reference(orbit)
    length = params.rational_point_count - 1
    l_max = max(length - r["k"] for r in ref)
    computed = {row.index: row for row in fengrao_table(semigroup, params, 1, l_max)}

    comp = CodeTableComparison(orbit=orbit)
    seen_k: set[int] = set()
    for row_no, r in enumerate(ref, start=2):  # header is line 1
        if r["n_col"] != length:
            comp.first_column_typos.append((row_no, r["n_col"]))
        k = r["k"]
        if k in seen_k:
            comp.duplicated_cells.append(k)
        seen_k.add(k)
        comp.rows_checked += 1
        comp.value_mismatches += _cell_mismatches(computed[length - k], r, _CODE_CELLS)
    printed_indices = {length - k for k in seen_k}
    comp.omitted_indices = sorted(set(range(1, l_max + 1)) - printed_indices)
    return comp


class QuantumTableComparison:
    """Computed-vs-reference comparison for one orbit's CSS range table."""

    def __init__(self, orbit: str):
        self.orbit = orbit
        self.rows_checked = 0
        self.d_or_smax_mismatches: list[CellMismatch] = []
        self.s_min_mismatches: list[CellMismatch] = []

    @property
    def clean(self) -> bool:
        return not self.d_or_smax_mismatches and not self.s_min_mismatches

    def summary(self) -> dict:
        return {
            "orbit": self.orbit,
            "rows_checked": self.rows_checked,
            "d_or_smax_mismatches": [m._asdict() for m in self.d_or_smax_mismatches],
            "s_min_mismatches": [m._asdict() for m in self.s_min_mismatches],
        }


def _notes(params: CurveParams, orbit: str, rows: list[QuantumRange]) -> list[str]:
    """Each row's note: "<cell> computed <value> != published <value>" over the
    cells that differ from its published row, joined by "; ", else ""."""
    if not has_reference(params):
        raise ValueError(f"no reference table for q={params.q}, n={params.n}")
    published = {r["l"]: r for r in load_quantum_reference(orbit)}
    return ["; ".join(f"{m.column} computed {m.computed} != published {m.reference}"
                      for m in _cell_mismatches(row, published[row.index], _QUANTUM_CELLS))
            if row.index in published else "" for row in rows]


def compare_quantum_table(
    params: CurveParams, semigroup: NumericalSemigroup, orbit: str
) -> QuantumTableComparison:
    """Check every printed CSS range row; the formula output stays normative.

    One quantum_table over the printed l-window gives the computed ranges.
    """
    if not has_reference(params):
        raise ValueError(f"no reference table for q={params.q}, n={params.n}")
    printed = load_quantum_reference(orbit)
    l_min = min(r["l"] for r in printed)
    rows = quantum_table(params, semigroup, l_min, max(r["l"] for r in printed))
    comp = QuantumTableComparison(orbit=orbit)
    comp.rows_checked = len(printed)
    for r in printed:
        for m in _cell_mismatches(rows[r["l"] - l_min], r, _QUANTUM_CELLS):
            (comp.s_min_mismatches if m.column == "s_min" else comp.d_or_smax_mismatches).append(m)
    return comp
