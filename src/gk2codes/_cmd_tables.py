"""The CLI's integer subcommands: semigroup, gaps, fengrao-table, quantum-table and frobenius.

None builds a field.  Each command imports the modules it runs: fengrao,
quantum, the table writer, and refdata only at the published (q, n).
"""

import sys
from itertools import compress
from operator import attrgetter

from ._render import _head, _payload
from .errors import UsageError
from .gk2 import (
    REFERENCE_QN,
    _holomorphic_gap_indicator,
    frobenius_dimension_gk1,
    frobenius_dimension_gk2,
    frobenius_dimensions_differ,
    orbit_semigroup,
    semigroup_o1,
)


def _require_printable(name, value, params):
    """Render value, the largest of a payload, before any write; name it past the digit limit."""
    try:
        "%d" % value
    except ValueError:
        raise UsageError(f"{name} at q={params.q}, n={params.n} has more than "
                         f"{sys.get_int_max_str_digits()} digits, the limit on int to str "
                         "conversion") from None


def _cmd_semigroup(args, params):
    sg = orbit_semigroup(params, args.orbit)
    payload = {
        **_head(args),
        "generators": list(sg.generators),
        "genus": sg.genus,
        "conductor": sg.conductor,
        "symmetric": sg.is_symmetric(),
        "first_nongaps": sg.first_nongaps(20),
    }
    return _payload(args.format, payload)


def _cmd_gaps(args, params):
    from ._table_writer import _table

    # streamed off gap bytes whose count is asserted to be g: no tuple of g ints
    if args.orbit == "O2":  # asserts |L| = g and L = complement
        gap_bytes = _holomorphic_gap_indicator(params)[0]
    else:
        gap_bytes = semigroup_o1(params)._gap_indicator()
    gaps = compress(range(len(gap_bytes)), gap_bytes)
    return _table(args.format, {**_head(args), "count": params.genus}, ["gap"],
                  [(params.genus, [gaps])])


def _cmd_fengrao_table(args, params):
    from . import fengrao
    from ._table_writer import _table

    sg = orbit_semigroup(params, args.orbit)
    _, index, dims, rhos, nus, d_ords = fengrao._table_columns(sg, params, args.lmin, args.lmax)
    meta = {**_head(args), "N": params.rational_point_count - 1}
    return _table(args.format, meta, ["k", "rho_l", "nu_l", "d_ord"],
                  [(len(index), [dims, rhos, nus, d_ords])])


def _cmd_quantum_table(args, params):
    from . import quantum
    from ._table_writer import _table

    length = params.rational_point_count - 1
    if args.regime == quantum.REGIME_HIGH_DEGREE:
        # one or two runs, s_min and the note constant over each: no record or semigroup
        _require_printable("N", length, params)  # no cell exceeds N in absolute value
        runs = [(count, [*fields[1:5], fields[6]]) for count, fields
                in quantum._runs(params, None, args.lmin, args.lmax, args.regime)]
    else:
        sg = orbit_semigroup(params, args.orbit)
        rows = quantum.quantum_table(params, sg, args.lmin, args.lmax, regime=args.regime)
        notes = None  # no published table: no row has a note
        if (params.q, params.n) == REFERENCE_QN:
            from . import refdata

            notes = refdata._notes(params, args.orbit, rows)
        fields = ("index", "d_floor", "s_min", "s_max")
        runs = [(len(rows), [*(map(attrgetter(f), rows) for f in fields), notes])]
    meta = {**_head(args), "regime": args.regime, "N": length}
    return _table(args.format, meta, ["l", "d_ord", "s_min", "s_max", "discrepancy"], runs,
                  text=("discrepancy",))


def _cmd_frobenius(args, params):
    differ = frobenius_dimensions_differ(args.q, args.n)
    gk1 = frobenius_dimension_gk1(params)
    _require_printable("gk1", gk1, params)  # the largest payload value
    payload = {
        **_head(args),
        "gk2": None if params.n < 5 else frobenius_dimension_gk2(params),
        "gk1": gk1,
        "isomorphic": "not-applicable" if differ is None else (not differ),
    }
    return _payload(args.format, payload)
