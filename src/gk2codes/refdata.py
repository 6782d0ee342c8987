"""Published reference tables and the discrepancy report.

The CSV fixtures under data/ are verbatim transcriptions of the published
parameter tables for q=2, n=5 (classical dual-code tables per orbit and CSS
range tables per orbit), kept exactly as printed including typos.  Computed
values are never overwritten to match the reference: every cell where the
two disagree, and every structural oddity of the printed tables (first
column typos, a duplicated cell, an omitted cell), is reported side by side.
"""

from __future__ import annotations

import csv
from importlib import resources
from typing import NamedTuple

from .fengrao import table as fengrao_table
from .gk2 import CurveParams
from .quantum import range_order_bound
from .semigroup import NumericalSemigroup

REFERENCE_QN = (2, 5)
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
        got = computed[length - k]
        comp.rows_checked += 1
        for col, want in (("rho_l", r["rho_l"]), ("nu_l", r["nu_l"]), ("d_ord", r["d_ord"])):
            have = {"rho_l": got.rho, "nu_l": got.nu, "d_ord": got.d_ord}[col]
            if have != want:
                comp.value_mismatches.append(CellMismatch(got.index, col, have, want))
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


def compare_quantum_table(
    params: CurveParams, semigroup: NumericalSemigroup, orbit: str
) -> QuantumTableComparison:
    """Check every printed CSS range row; the formula output stays normative."""
    if not has_reference(params):
        raise ValueError(f"no reference table for q={params.q}, n={params.n}")
    comp = QuantumTableComparison(orbit=orbit)
    for r in load_quantum_reference(orbit):
        rng = range_order_bound(params, semigroup, r["l"])
        comp.rows_checked += 1
        if rng.d_floor != r["d_ord"]:
            comp.d_or_smax_mismatches.append(CellMismatch(r["l"], "d_ord", rng.d_floor, r["d_ord"]))
        if rng.s_max != r["s_max"]:
            comp.d_or_smax_mismatches.append(CellMismatch(r["l"], "s_max", rng.s_max, r["s_max"]))
        if rng.s_min != r["s_min"]:
            comp.s_min_mismatches.append(CellMismatch(r["l"], "s_min", rng.s_min, r["s_min"]))
    return comp
