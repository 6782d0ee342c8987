"""CSS-construction parameter ranges for quantum codes from nested duals.

Two regimes, split by how the minimum-distance floor is obtained:

* high-degree: the base index l lies in [3g-1, N-g] and the floor is the
  genus bound l + 1 - g; the auxiliary dimension s ranges over [1, N-2l].
* order-bound: l lies in [g, 3g-1], the floor is the Feng-Rao designed
  distance, and s ranges over [max(2g-l, 1), min(N-2l, N-l-g+1-d)].

Both regimes take one path: _window is the one place the regime intervals
are written, _runs gives a window's rows as runs of fields (the one place
the high-degree split is written; the CLI writes high-degree tables straight
from them), and quantum_table zips them into records.  The one-row forms
range_* return the one record of a one-index quantum_table.
"""

from __future__ import annotations

import operator
from itertools import repeat
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from .gk2 import CurveParams

if TYPE_CHECKING:
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
    return quantum_table(params, None, index, index, REGIME_HIGH_DEGREE)[0]


def range_order_bound(
    params: CurveParams, semigroup: NumericalSemigroup, index: int
) -> QuantumRange:
    """Feng-Rao-floor regime: l in [g, 3g-1].

    s_min = max(2g-l, 1); s_max = min(N-2l, N-l-g+1-d_ord); D >= d_ord.
    """
    index = operator.index(index)  # _window would read None as the regime's end
    return quantum_table(params, semigroup, index, index, REGIME_ORDER_BOUND)[0]


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


def _runs(params: CurveParams, semigroup: NumericalSemigroup | None, l_min: int | None,
          l_max: int | None, regime: str) -> list[tuple]:
    """The rows of the window _window checks and completes, as runs.

    A run is (row count, fields): the QuantumRange fields in order, each an
    int, str or None constant over the run, or an iterable over its cells.
    The order-bound regime is one run, whose d_ord column is the one Python
    call per row.  The high-degree regime leaves semigroup unused: s_max =
    N - 2l >= 1 exactly for l <= (N - 1) // 2, and the empty rows past that
    make a second run, noted "empty range".
    """
    l_min, l_max = _window(params, l_min, l_max, regime)
    g = params.genus
    length = params.rational_point_count - 1
    if regime == REGIME_HIGH_DEGREE:
        split = min(max((length - 1) // 2 + 1, l_min), l_max + 1)
        return [(hi - lo, (length, range(lo, hi), range(lo + 1 - g, hi + 1 - g), 1,
                           range(length - 2 * lo, length - 2 * hi, -2), regime, note))
                for lo, hi, note in ((l_min, split, None), (split, l_max + 1, "empty range"))
                if lo < hi]
    from .fengrao import d_ord  # only this regime runs the Feng-Rao floor

    index = range(l_min, l_max + 1)
    n_minus_2l = range(length - 2 * l_min, length - 2 * l_max - 1, -2)
    d = list(map(d_ord, repeat(semigroup), index))
    s_min = map(max, range(2 * g - l_min, 2 * g - l_max - 1, -1), repeat(1))
    s_max = map(min, n_minus_2l, map(sub, range(length - l_min - g + 1, length - l_max - g, -1), d))
    return [(len(index), (length, index, d, s_min, s_max, regime, None))]


def quantum_table(
    params: CurveParams,
    semigroup: NumericalSemigroup | None,
    l_min: int | None = None,
    l_max: int | None = None,
    regime: str = REGIME_ORDER_BOUND,
) -> list[QuantumRange]:
    """Ranges for consecutive l; defaults to the full regime interval.

    Each run's constant fields are repeated over it, and the records are
    made by ``tuple.__new__``, with no Python call per record.
    """
    rows = []
    for count, fields in _runs(params, semigroup, l_min, l_max, regime):
        columns = (repeat(f, count) if f is None or isinstance(f, (int, str)) else f
                   for f in fields)
        rows += map(tuple.__new__, repeat(QuantumRange), zip(*columns))
    return rows
