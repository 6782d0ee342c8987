"""Command-line front end.

Every subcommand is a thin wrapper over one library operation and writes
deterministic output (csv, json or md) to stdout or a file.  Exit codes:
0 success, 1 usage error, 2 internal-consistency failure (a proven identity
failed at runtime), 3 an evaluation needed local resolution.
"""

from __future__ import annotations

import argparse
import io
import sys
from itertools import chain, compress, islice, tee
from operator import attrgetter

# curve, gf, fengrao, quantum, refdata, csv and json are imported by the
# commands and renderers that use them, so each process compiles only what
# its subcommand runs.
from .errors import InternalConsistencyError, NeedsLocalResolutionError
from .gk2 import (
    _holomorphic_gap_indicator,
    curve_params,
    frobenius_dimension_gk1,
    frobenius_dimension_gk2,
    frobenius_dimensions_differ,
    holomorphic_gap_set,
    orbit_semigroup,
    semigroup_o1,
    semigroup_o2,
    verify_partition,
)
from .semigroup import telescopic_genus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_UNRESOLVED = 3

SCHEMA_VERSION = 1
MAX_CURVE_Q = 5
# quantum.REGIME_ORDER_BOUND and quantum.REGIME_HIGH_DEGREE, spelled out so
# that building the parser does not import quantum
_REGIMES = ("order-bound", "high-degree")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


def _add_common(sub, orbit=False, l_range=False):
    sub.add_argument("--q", type=int, required=True, help="prime power")
    sub.add_argument("--n", type=int, required=True, help="odd integer >= 3")
    if orbit:
        sub.add_argument("--orbit", choices=("O1", "O2"), required=True)
    if l_range:
        sub.add_argument("--lmin", type=int, default=None)
        sub.add_argument("--lmax", type=int, default=None)
    sub.add_argument("--format", choices=("csv", "json", "md"), default="json")
    sub.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    p = _Parser(prog="gk2codes", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("semigroup", help="orbit semigroup summary"), orbit=True)
    _add_common(subs.add_parser("gaps", help="gap sequence of an orbit semigroup"), orbit=True)
    _add_common(
        subs.add_parser("fengrao-table", help="dual code parameter rows"),
        orbit=True,
        l_range=True,
    )
    qt = subs.add_parser("quantum-table", help="CSS parameter ranges")
    _add_common(qt, orbit=True, l_range=True)
    qt.add_argument("--regime", choices=_REGIMES, default=_REGIMES[0])
    _add_common(subs.add_parser("frobenius", help="Frobenius dimensions of both families"))
    _add_common(subs.add_parser("points", help="rational point census"))
    cm = subs.add_parser("code-matrix", help="evaluation code generator matrix")
    cm.add_argument("--q", type=int, required=True)
    cm.add_argument("--n", type=int, required=True)
    cm.add_argument("--orbit", choices=("O1", "O2"), required=True)
    cm.add_argument("--l", type=int, required=True, help="number of basis rows")
    cm.add_argument("-o", "--output", default=None)
    _add_common(subs.add_parser("verify", help="full invariant suite for one (q, n)"))
    return p


def _require_curve_scale(q: int):
    if q > MAX_CURVE_Q:
        raise UsageError(f"curve subcommands support q <= {MAX_CURVE_Q}, got {q}")


# -- renderers ---------------------------------------------------------------


_BLOCK_ROWS = 4096


def _table(fmt, meta, nrows, columns, text=()):
    """Writer of one table of nrows rows, given its meta and its columns.

    columns maps each header to one iterable over that column's cells, the
    whole table long.  The cells are ints, but for the columns named in
    text, whose cells are strs.  The bytes are those of a csv writer, of
    ``json.dumps(indent=2)`` over ``{"schema", **meta, "rows": [one dict per
    row]}``, or of the Markdown lines; they go out in blocks of
    ``_BLOCK_ROWS`` rows, never as one string.
    """
    headers = list(columns)
    cols = list(columns.values())

    def write(stream):
        if fmt == "csv":
            # a block per write call: straight to an unbuffered stdout,
            # csv.writer would make one call per row
            stream.write(_csv_text([headers]))
            rows = zip(*cols)
            for _ in range(0, nrows, _BLOCK_ROWS):
                stream.write(_csv_text(islice(rows, _BLOCK_ROWS)))
        elif fmt == "json":
            _write_json_rows(stream, meta, nrows, headers, cols, text)
        else:
            stream.write("| " + " | ".join(headers) + " |\n|" + "---|" * len(headers) + "\n")
            row = "| " + " | ".join(["%s"] * len(headers)) + " |\n"
            _write_blocks(stream, nrows, cols, row, "")

    return write


def _write_blocks(stream, nrows, cols, row, sep):
    """Write nrows rows as copies of the row template joined by sep, one % per block.

    cols holds one iterable per column; each block takes its cells from one
    row-major chain over them.
    """
    cells = chain.from_iterable(zip(*cols))
    full = sep.join([row] * _BLOCK_ROWS)
    for i in range(0, nrows, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, nrows - i)
        template = full if n == _BLOCK_ROWS else sep.join([row] * n)
        stream.write((sep if i else "") + template % tuple(islice(cells, n * len(cols))))


def _csv_text(rows):
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write_json_rows(stream, meta, nrows, headers, cols, text):
    import json

    head = json.dumps({"schema": SCHEMA_VERSION, **meta, "rows": []}, indent=2)
    stream.write(head.removesuffix("[]\n}"))
    if not nrows:
        stream.write("[]\n}\n")
        return
    # each cell as json.dumps writes it: an int as %s does, a str quoted and escaped
    quote = json.encoder.encode_basestring_ascii
    cols = [map(quote, col) if h in text else col for h, col in zip(headers, cols)]
    keys = (json.dumps(h).replace("%", "%%") for h in headers)
    row = "    {\n" + ",\n".join(f"      {k}: %s" for k in keys) + "\n    }"
    stream.write("[\n")
    _write_blocks(stream, nrows, cols, row, ",\n")
    stream.write("\n  ]\n}\n")


def _render_payload(fmt, payload):
    if fmt == "json":
        import json

        return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2) + "\n"
    flat = _flatten(payload)
    if fmt == "csv":
        return _csv_text([["key", "value"], *flat])
    return "\n".join(f"- **{k}**: {v}" for k, v in flat) + "\n"


def _text(text):
    """Writer of a payload already rendered to one (small) string."""
    return lambda stream: stream.write(text)


def _flatten(payload, prefix=""):
    out = []
    for k, v in payload.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.extend(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            out.append((key, " ".join(str(x) for x in v)))
        else:
            out.append((key, v))
    return out


# -- subcommands --------------------------------------------------------------


def _cmd_semigroup(args):
    params = curve_params(args.q, args.n)
    sg = orbit_semigroup(params, args.orbit)
    payload = {
        "command": "semigroup",
        "q": params.q,
        "n": params.n,
        "orbit": args.orbit,
        "generators": list(sg.generators),
        "genus": sg.genus,
        "conductor": sg.conductor,
        "symmetric": sg.is_symmetric(),
        "first_nongaps": sg.first_nongaps(20),
    }
    return _text(_render_payload(args.format, payload))


def _cmd_gaps(args):
    # streamed off gap bytes whose count is asserted to be g: no tuple of g ints
    params = curve_params(args.q, args.n)
    if args.orbit == "O2":  # asserts |L| = g and L = complement
        gap_bytes = _holomorphic_gap_indicator(params)
    else:
        gap_bytes = semigroup_o1(params)._gap_indicator()
    gaps = compress(range(len(gap_bytes)), gap_bytes)
    meta = {"command": "gaps", "q": params.q, "n": params.n, "orbit": args.orbit,
            "count": params.genus}
    return _table(args.format, meta, params.genus, {"gap": gaps})


def _cmd_fengrao_table(args):
    from . import fengrao

    params = curve_params(args.q, args.n)
    sg = orbit_semigroup(params, args.orbit)
    _, index, dims, rhos, nus, d_ords = fengrao._table_columns(sg, params, args.lmin, args.lmax)
    meta = {
        "command": "fengrao-table",
        "q": params.q,
        "n": params.n,
        "orbit": args.orbit,
        "N": params.rational_point_count - 1,
    }
    columns = {"k": dims, "rho_l": rhos, "nu_l": nus, "d_ord": d_ords}
    return _table(args.format, meta, len(index), columns)


def _cmd_quantum_table(args):
    from . import quantum

    params = curve_params(args.q, args.n)
    sg = orbit_semigroup(params, args.orbit)
    if args.regime == quantum.REGIME_HIGH_DEGREE:
        # the columns alone: no QuantumRange record is built
        l_min, l_max = quantum._window(params, args.lmin, args.lmax, args.regime)
        _, index, d_floor, s_min, s_max, _, notes = quantum._columns(
            params, None, l_min, l_max, args.regime)
        nrows = len(index)
    else:
        from . import refdata

        rows = quantum.quantum_table(params, sg, args.lmin, args.lmax, regime=args.regime)
        rows = refdata._with_notes(params, args.orbit, rows)
        fields = ("index", "d_floor", "s_min", "s_max", "discrepancy")
        index, d_floor, s_min, s_max, notes = (map(attrgetter(f), rows) for f in fields)
        nrows = len(rows)
    meta = {
        "command": "quantum-table",
        "q": params.q,
        "n": params.n,
        "orbit": args.orbit,
        "regime": args.regime,
        "N": params.rational_point_count - 1,
    }
    columns = {"l": index, "d_ord": d_floor, "s_min": s_min, "s_max": s_max,
               "discrepancy": _blank_none(notes)}
    return _table(args.format, meta, nrows, columns, text=("discrepancy",))


_BLANK_NONE = {None: ""}


def _blank_none(notes):
    """The notes, with "" for None."""
    notes, again = tee(notes)
    # get(note, note): "" for None, the note itself otherwise
    return map(_BLANK_NONE.get, notes, again)


def _cmd_frobenius(args):
    params = curve_params(args.q, args.n)
    differ = frobenius_dimensions_differ(args.q, args.n)
    payload = {
        "command": "frobenius",
        "q": params.q,
        "n": params.n,
        "gk2": None if params.n < 5 else frobenius_dimension_gk2(params),
        "gk1": frobenius_dimension_gk1(params),
        "isomorphic": "not-applicable" if differ is None else (not differ),
    }
    return _text(_render_payload(args.format, payload))


def _cmd_points(args):
    from . import curve as curve_mod

    _require_curve_scale(args.q)
    params = curve_params(args.q, args.n)
    ctx = curve_mod.field_context(params)
    c = curve_mod.census(params, ctx)
    payload = {
        "command": "points",
        "q": params.q,
        "n": params.n,
        "field": {"p": ctx.p, "deg": ctx.deg, "order": ctx.order},
        "count": c.total,
        "orbit_sizes": {"O1": c.o1, "O2": c.o2, "generic": c.generic},
        "maximality_count": params.rational_point_count,
    }
    return _text(_render_payload(args.format, payload))


def _cmd_code_matrix(args):
    from . import curve as curve_mod

    _require_curve_scale(args.q)
    params = curve_params(args.q, args.n)
    if args.l < 1:
        raise UsageError(f"--l must be >= 1, got {args.l}")
    n_support = params.rational_point_count - 1
    if args.l > n_support:
        raise UsageError(f"--l must be <= N = {n_support} (the code length), got {args.l}")
    ctx = curve_mod.field_context(params)
    matrix = curve_mod.code_matrix(params, ctx, args.orbit, args.l)
    return lambda stream: curve_mod.write_matrix(stream, ctx, matrix)


def _cmd_verify(args):
    from . import curve as curve_mod
    from . import refdata
    from .gf import MAX_FIELD_SIZE

    _require_curve_scale(args.q)
    params = curve_params(args.q, args.n)
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    s1 = semigroup_o1(params)  # genus identity asserted inside
    s2 = semigroup_o2(params)
    check("o1_genus", s1.genus == params.genus, f"{s1.genus} == {params.genus}")
    check("o2_genus", s2.genus == params.genus, f"{s2.genus} == {params.genus}")
    top = params.q**params.n + 1
    check("qn_plus_1_nongap", s1.contains(top) and s2.contains(top), top)
    nonsym = not s1.is_symmetric() and not s2.is_symmetric()
    if params.n >= 5:
        check("not_symmetric", nonsym, f"2g-1 = {2*params.genus-1} is a nongap")
    else:
        check("symmetric_at_n3", not nonsym, "telescopic orbit semigroup at n = 3")

    gaps = holomorphic_gap_set(params)  # asserts size and complement equality
    check("differential_gap_set", len(gaps) == params.genus, f"|L| = {len(gaps)}")

    # verify_partition reports the genus of its sieve of this same sequence
    rep = verify_partition(params)
    seq = (params.m * params.q, params.m * params.q + params.q**2 - params.q, top)
    check("telescopic_genus_cross_check", rep.telescopic_genus == telescopic_genus(seq), seq)
    check("partition_inside", rep.sets_inside_h1_minus_s)
    check("partition_disjoint", rep.sets_pairwise_disjoint)
    check("partition_sizes", rep.set_sizes_match_formula)
    check(
        "partition_genus_count",
        rep.genus_count_matches,
        f"{rep.telescopic_genus} - {rep.partition_total} == {params.genus}",
    )

    if params.n >= 5:
        r2 = frobenius_dimension_gk2(params)
        count = s1.count_nongaps_upto(params.q**params.n) - 1
        check("frobenius_dim_counts_nongaps", r2 == count + 1, f"r = {r2}")
        check(
            "frobenius_dims_differ",
            frobenius_dimensions_differ(params.q, params.n) is True,
            f"gk1 = {frobenius_dimension_gk1(params)}, gk2 = {r2}",
        )

    field_size = params.q ** (2 * params.n)
    if field_size <= MAX_FIELD_SIZE:
        ctx = curve_mod.field_context(params)
        c = curve_mod.census(params, ctx)  # asserts totals internally
        check("point_count", c.total == params.rational_point_count, c.total)
        check("orbit_sizes", (c.o1, c.o2) == (params.q + 1, params.q**3 - params.q),
              f"({c.o1}, {c.o2})")
        if field_size <= 1 << 11:  # keep the staircase interactive-fast
            ok = True
            for orbit in ("O1", "O2"):
                try:  # code_matrix's rank profile, certified on its leading columns
                    ok &= curve_mod._rank_certificate(params, ctx, orbit, 10) == list(range(1, 11))
                except InternalConsistencyError:
                    ok = False
            check("rank_staircase_l_le_10", ok)

    if refdata.has_reference(params):
        for orbit, sg in (("O1", s1), ("O2", s2)):
            comp = refdata.compare_code_table(params, sg, orbit)
            check(
                f"reference_code_cells_{orbit}",
                not comp.value_mismatches,
                f"{comp.rows_checked} rows, "
                f"{len(comp.first_column_typos)} first-column typos, "
                f"duplicates k={comp.duplicated_cells}, omitted l={comp.omitted_indices}",
            )
            qcomp = refdata.compare_quantum_table(params, sg, orbit)
            check(
                f"reference_quantum_cells_{orbit}",
                not qcomp.d_or_smax_mismatches,
                f"{qcomp.rows_checked} rows, s_min flags: "
                f"{[(m.index, m.computed, m.reference) for m in qcomp.s_min_mismatches]}",
            )

    all_ok = all(c["ok"] for c in checks)
    payload = {
        "command": "verify",
        "q": params.q,
        "n": params.n,
        "all_ok": all_ok,
        "checks": checks,
    }
    if args.format == "md":
        lines = [f"# verify q={params.q} n={params.n}"]
        lines += [
            f"- [{'PASS' if c['ok'] else 'FAIL'}] {c['name']}"
            + (f" ({c['detail']})" if c["detail"] else "")
            for c in checks
        ]
        lines.append(f"- overall: {'PASS' if all_ok else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    else:
        text = _render_payload(args.format, payload)
    return _text(text), EXIT_OK if all_ok else EXIT_INCONSISTENT


_COMMANDS = {
    "semigroup": _cmd_semigroup,
    "gaps": _cmd_gaps,
    "fengrao-table": _cmd_fengrao_table,
    "quantum-table": _cmd_quantum_table,
    "frobenius": _cmd_frobenius,
    "points": _cmd_points,
    "code-matrix": _cmd_code_matrix,
    "verify": _cmd_verify,
}


def _emit(write, path, code):
    """Run a writer on the -o file, opened only now, or on stdout.

    Returns code, or EXIT_USAGE after a one-line error when the output
    cannot be written.  A reader that leaves early (``| head``) is not an
    error: the rest of the output is dropped.
    """
    if path:
        try:
            with open(path, "w") as f:
                write(f)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
        return code
    if sys.stdout is None:  # the interpreter started with fd 1 closed
        print("error: cannot write stdout", file=sys.stderr)
        return EXIT_USAGE
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # Point fd 1 at devnull so the interpreter's final flush of what is
        # still buffered cannot fail again (the Python signal docs' advice).
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = _COMMANDS[args.command](args)
        write, code = result if isinstance(result, tuple) else (result, EXIT_OK)
        return _emit(write, args.output, code)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NeedsLocalResolutionError as exc:
        print(f"needs local resolution: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
