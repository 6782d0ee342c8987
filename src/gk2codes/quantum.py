"""CSS-construction parameter ranges for quantum codes from nested duals.

Two regimes, split by how the minimum-distance floor is obtained:

* high-degree: the base index l lies in [3g-1, N-g] and the floor is the
  genus bound l + 1 - g; the auxiliary dimension s ranges over [1, N-2l].
* order-bound: l lies in [g, 3g-1], the floor is the Feng-Rao designed
  distance, and s ranges over [max(2g-l, 1), min(N-2l, N-l-g+1-d)].

Both regimes take one path: _window is the one place the regime intervals
are written, _columns gives a window's fields as columns (the high-degree ones
expanded from the runs of _high_degree_runs, the one place their split is
written), and _rows zips them into the records that quantum_table and the
one-row forms range_* return.
"""

from __future__ import annotations

import operator
from itertools import chain, repeat
from operator import sub
from typing import NamedTuple

from .fengrao import d_ord
from .gk2 import CurveParams
from .semigroup import NumericalSemigroup

REGIME_HIGH_DEGREE = "high-degree"
REGIME_ORDER_BOUND = "order-bound"


class QuantumRange(NamedTuple):
    """Admissible [[N, s, D]] parameter range for one base index l.

    d_floor is the guaranteed lower bound for D; s runs over
    [s_min, s_max] inclusive (empty when s_max < s_min, flagged via empty).
    discrepancy carries a note on the row, such as "empty range" for an
    empty high-degree row; None when there is none.
    """

    length: int
    index: int
    d_floor: int
    s_min: int
    s_max: int
    regime: str
    discrepancy: str | None = None

    @property
    def empty(self) -> bool:
        return self.s_max < self.s_min


def range_high_degree(params: CurveParams, index: int) -> QuantumRange:
    """Genus-floor regime: l in [3g-1, N-g], s in [1, N-2l], D >= l+1-g."""
    index = operator.index(index)  # _window would read None as the regime's end
    return _rows(params, None, index, index, REGIME_HIGH_DEGREE)[0]


def range_order_bound(
    params: CurveParams, semigroup: NumericalSemigroup, index: int
) -> QuantumRange:
    """Feng-Rao-floor regime: l in [g, 3g-1].

    s_min = max(2g-l, 1); s_max = min(N-2l, N-l-g+1-d_ord); D >= d_ord.
    """
    index = operator.index(index)  # _window would read None as the regime's end
    return _rows(params, semigroup, index, index, REGIME_ORDER_BOUND)[0]


def _window(
    params: CurveParams, l_min: int | None, l_max: int | None, regime: str
) -> tuple[int, int]:
    """The checked [l_min, l_max] of a table; None stands for the regime's end."""
    g = params.genus
    if regime == REGIME_ORDER_BOUND:
        lo, hi = g, 3 * g - 1
    elif regime == REGIME_HIGH_DEGREE:
        lo, hi = 3 * g - 1, params.rational_point_count - 1 - g
    else:
        raise ValueError(f"unknown regime {regime!r}")
    l_min = lo if l_min is None else l_min
    l_max = hi if l_max is None else l_max
    if not lo <= l_min <= l_max <= hi:
        raise ValueError(f"need {lo} <= l_min <= l_max <= {hi}, got [{l_min}, {l_max}]")
    return l_min, l_max


def _columns(params: CurveParams, semigroup: NumericalSemigroup | None, l_min: int,
             l_max: int, regime: str) -> tuple:
    """The QuantumRange fields of the rows l in a window _window passed, as columns.

    Each column is a progression in l (a ``range``), a run of one value, a
    chain of those over the high-degree runs, or a ``map`` over them and the
    order-bound d_ord column, the one Python call per row.  The high-degree
    regime leaves semigroup unused.
    """
    if regime == REGIME_HIGH_DEGREE:
        runs = _high_degree_runs(params, l_min, l_max)
        counts = [count for count, _ in runs]
        return tuple(chain.from_iterable(map(_run_cells, cells, counts))
                     for cells in zip(*(fields for _, fields in runs)))
    g = params.genus
    length = params.rational_point_count - 1
    index = range(l_min, l_max + 1)
    n_minus_2l = range(length - 2 * l_min, length - 2 * l_max - 1, -2)
    d = list(map(d_ord, repeat(semigroup), index))
    s_min = map(max, range(2 * g - l_min, 2 * g - l_max - 1, -1), repeat(1))
    s_max = map(min, n_minus_2l, map(sub, range(length - l_min - g + 1, length - l_max - g, -1), d))
    return repeat(length), index, d, s_min, s_max, repeat(regime), repeat(None)


def _high_degree_runs(params: CurveParams, l_min: int, l_max: int) -> list[tuple]:
    """The high-degree rows l of a window _window passed, as one or two runs.

    A run is (row count, fields): the QuantumRange fields in order, each a
    ``range`` over the run's rows or one value constant over them.  s_max =
    N - 2l >= 1 exactly for l <= (N - 1) // 2; the rows past that have an
    empty range and make the second run, noted "empty range".
    """
    g = params.genus
    length = params.rational_point_count - 1
    split = min(max((length - 1) // 2 + 1, l_min), l_max + 1)
    return [(hi - lo, (length, range(lo, hi), range(lo + 1 - g, hi + 1 - g), 1,
                       range(length - 2 * lo, length - 2 * hi, -2), REGIME_HIGH_DEGREE, note))
            for lo, hi, note in ((l_min, split, None), (split, l_max + 1, "empty range"))
            if lo < hi]


def _run_cells(cells, count: int):
    """One field's cells over a run: its range, or its constant count times."""
    return cells if isinstance(cells, range) else repeat(cells, count)


def _rows(params: CurveParams, semigroup: NumericalSemigroup | None, l_min: int | None,
          l_max: int | None, regime: str) -> list[QuantumRange]:
    """The ranges for the window _window checks and completes, zipped from their columns.

    The records are made by ``tuple.__new__``, with no Python call per record.
    """
    l_min, l_max = _window(params, l_min, l_max, regime)
    columns = zip(*_columns(params, semigroup, l_min, l_max, regime))
    return list(map(tuple.__new__, repeat(QuantumRange), columns))


def quantum_table(
    params: CurveParams,
    semigroup: NumericalSemigroup,
    l_min: int | None = None,
    l_max: int | None = None,
    regime: str = REGIME_ORDER_BOUND,
) -> list[QuantumRange]:
    """Ranges for consecutive l; defaults to the full regime interval."""
    return _rows(params, semigroup, l_min, l_max, regime)
