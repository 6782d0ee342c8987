"""Feng-Rao bound machinery for dual one-point evaluation codes.

nu(S, l) counts ordered pairs of nongaps summing to the l-th nongap rho_l;
the designed distance d_ord(S, l) is the minimum of nu over all indices >= l.
Both are read off one profile per semigroup, built on first use: by
inclusion-exclusion nu_l = 2l - 1 - rho_l + GG(rho_l), where GG(r) counts
ordered gap pairs summing to r, and one squaring of the gap indicator packed
into fixed-width slots of a Python int (Kronecker substitution) gives GG at
every r.  Gaps lie below the conductor c <= 2g, so GG vanishes from 4g - 1
on and nu_l = l - g for l >= 3g: the profile stops at l = 3g + 1.
"""

from __future__ import annotations

import sys
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .errors import InternalConsistencyError
from .gk2 import CurveParams
from .semigroup import NumericalSemigroup


class CodeTableRow(NamedTuple):
    """One row of a dual one-point code parameter table.

    length is the code length N, index the row index l, dim = N - l the dual
    code dimension, rho the l-th nongap, nu the Feng-Rao count and d_ord the
    designed minimum distance.
    """

    length: int
    index: int
    dim: int
    rho: int
    nu: int
    d_ord: int


def _gap_pair_counts(gap_bytes: bytes, genus: int) -> memoryview:
    """GG(r) for r in [0, 2c - 2]: ordered gap pairs summing to r.

    gap_bytes is the gap indicator on [0, c), c the conductor.
    """
    # a count is at most the genus, so 2-byte slots cannot carry into each other
    fmt, width = ("H", 2) if genus < 1 << 16 else ("I", 4)
    low = 0 if sys.byteorder == "little" else width - 1
    conductor = len(gap_bytes)
    packed = bytearray(width * conductor)
    packed[low::width] = gap_bytes
    square = int.from_bytes(packed, sys.byteorder) ** 2
    return memoryview(square.to_bytes(width * max(2 * conductor - 1, 0), sys.byteorder)).cast(fmt)


def _profile(semigroup: NumericalSemigroup) -> tuple[list[int], list[int]]:
    """(nu_l, min of nu_m over m >= l) for 1 <= l <= 3g + 1, kept on the instance."""
    prof = semigroup._feng_rao_profile
    if prof is None:
        g = semigroup.genus
        pairs = _gap_pair_counts(semigroup._gap_indicator(), g)
        nus = [
            2 * l - 1 - rho + (pairs[rho] if rho < len(pairs) else 0)
            for l, rho in enumerate(semigroup.nongaps_upto(4 * g), start=1)
        ]
        if g and (len(nus) != 3 * g + 1 or nus[3 * g - 1] != 2 * g or sum(pairs) != g * g):
            raise InternalConsistencyError(
                f"Feng-Rao profile of {semigroup.generators} (g = {g}) breaks the tail "
                "law nu(3g) = 2g or the gap pair total g^2"
            )
        prof = (nus, list(accumulate(reversed(nus), min))[::-1])
        object.__setattr__(semigroup, "_feng_rao_profile", prof)
    return prof


def _read(semigroup: NumericalSemigroup, column: int, index: int) -> int:
    # beyond the profile nu = index - genus, strictly increasing (the tail law)
    values = _profile(semigroup)[column]
    return values[index - 1] if index <= len(values) else index - semigroup.genus


def nu(semigroup: NumericalSemigroup, index: int) -> int:
    """Ordered pairs (i, j) of nongap indices with rho_i + rho_j = rho_index."""
    if index < 1:
        raise ValueError(f"nongap index must be >= 1, got {index}")
    return _read(semigroup, 0, index)


def d_ord(semigroup: NumericalSemigroup, index: int) -> int:
    """Designed minimum distance: min of nu over all indices >= index."""
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    return min(nu(semigroup, index), _read(semigroup, 1, index + 1))


def _column(values, l_min: int, l_max: int, shift: int):
    """values[l - 1] for l in [l_min, l_max]; past the end of values, l + shift."""
    past = range(max(l_min, len(values) + 1) + shift, l_max + 1 + shift)
    return chain(values[l_min - 1:l_max], past)


def _table_columns(
    semigroup: NumericalSemigroup, params: CurveParams, l_min: int | None, l_max: int | None
) -> tuple:
    """The CodeTableRow fields of the rows l in [l_min, l_max], as columns.

    None stands for the default window's end, 1 for l_min and 3g for l_max.
    rho, nu and d_ord are slices of the nongap cache and the profile,
    extended past their ends by the laws of nth_nongap and _read.
    """
    length = params.rational_point_count - 1
    l_min = 1 if l_min is None else l_min
    l_max = 3 * params.genus if l_max is None else l_max
    if not 1 <= l_min <= l_max <= length - 1:
        raise ValueError(f"need 1 <= l_min <= l_max <= N-1, got [{l_min}, {l_max}]")
    g = semigroup.genus
    nus, d_ords = _profile(semigroup)
    return (
        repeat(length),
        range(l_min, l_max + 1),
        range(length - l_min, length - l_max - 1, -1),
        _column(semigroup.nongaps_cached, l_min, l_max, g - 1),
        _column(nus, l_min, l_max, -g),
        _column(d_ords, l_min, l_max, -g),
    )


def table(
    semigroup: NumericalSemigroup,
    params: CurveParams,
    l_min: int | None = None,
    l_max: int | None = None,
) -> list[CodeTableRow]:
    """Parameter rows l in [l_min, l_max] (default [1, 3g]) for the duals of length N."""
    columns = zip(*_table_columns(semigroup, params, l_min, l_max))
    return list(map(tuple.__new__, repeat(CodeTableRow), columns))
