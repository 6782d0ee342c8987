"""Command-line front end.

Every subcommand is a thin wrapper over one library operation and writes
deterministic output (csv, json or md) to stdout or a file.  Exit codes:
0 success, 1 usage error or out of memory, 2 internal-consistency failure
(a proven identity failed at runtime), 3 an evaluation needed local resolution.
"""

from __future__ import annotations

import sys
from itertools import chain, compress, islice, repeat
from operator import attrgetter
from types import SimpleNamespace

# curve, gf, fengrao, quantum and refdata are imported by the commands that
# use them, so each process compiles only what its subcommand runs.  json is
# imported only by _json_str and _dumps, for a value they do not write
# themselves.
from .errors import InternalConsistencyError, NeedsLocalResolutionError
from .gk2 import (
    _holomorphic_gap_indicator,
    curve_params,
    frobenius_dimension_gk1,
    frobenius_dimension_gk2,
    frobenius_dimensions_differ,
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


# Every subcommand's help line and options, in --help order.  An option is
# (flags, dest, type, choices, required, default, help); build_parser() and
# _parse() both read it.
_Q = (("--q",), "q", int, None, True, None, "prime power")
_N = (("--n",), "n", int, None, True, None, "odd integer >= 3")
_ORBIT = (("--orbit",), "orbit", str, ("O1", "O2"), True, None, None)
_LMIN = (("--lmin",), "lmin", int, None, False, None, None)
_LMAX = (("--lmax",), "lmax", int, None, False, None, None)
_FORMAT = (("--format",), "format", str, ("csv", "json", "md"), False, "json", None)
_OUTPUT = (("-o", "--output"), "output", str, None, False, None, "output path (default stdout)")
_OPTIONS = {
    "semigroup": ("orbit semigroup summary", (_Q, _N, _ORBIT, _FORMAT, _OUTPUT)),
    "gaps": ("gap sequence of an orbit semigroup", (_Q, _N, _ORBIT, _FORMAT, _OUTPUT)),
    "fengrao-table": ("dual code parameter rows",
                      (_Q, _N, _ORBIT, _LMIN, _LMAX, _FORMAT, _OUTPUT)),
    "quantum-table": ("CSS parameter ranges", (
        _Q, _N, _ORBIT, _LMIN, _LMAX, _FORMAT, _OUTPUT,
        (("--regime",), "regime", str, _REGIMES, False, _REGIMES[0], None))),
    "frobenius": ("Frobenius dimensions of both families", (_Q, _N, _FORMAT, _OUTPUT)),
    "points": ("rational point census", (_Q, _N, _FORMAT, _OUTPUT)),
    "code-matrix": ("evaluation code generator matrix", (
        (("--q",), "q", int, None, True, None, None),
        (("--n",), "n", int, None, True, None, None),
        _ORBIT,
        (("--l",), "l", int, None, True, None, "number of basis rows"),
        (("-o", "--output"), "output", str, None, False, None, None))),
    "verify": ("full invariant suite for one (q, n)", (_Q, _N, _FORMAT, _OUTPUT)),
}


def build_parser():
    """The argparse parser of the option table; a usage error raises UsageError."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit(2); route to exit code 1
            raise UsageError(message)

    p = _Parser(prog="gk2codes", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _OPTIONS.items():
        sub = subs.add_parser(command, help=summary)
        for flags, dest, kind, choices, required, default, text in options:
            sub.add_argument(*flags, dest=dest, type=kind, choices=choices,
                             required=required, default=default, help=text)
    return p


def _parse(argv):
    """The namespace build_parser() gives a plain command line, else None.

    Plain is ``<command> (<flag> <value>)*`` with every flag spelled as in
    the option table and given at most once, no value starting with "-",
    every int value decimal digits, every choice among its choices and every
    required option present.  Any other line (--help, a usage error, an
    abbreviation, ``--flag=value``, a repeat) is argparse's to answer.
    """
    if len(argv) % 2 != 1 or argv[0] not in _OPTIONS:
        return None
    options = _OPTIONS[argv[0]][1]
    by_flag = {flag: option for option in options for flag in option[0]}
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        option = by_flag.get(flag)
        if option is None or option[1] in given or value.startswith("-"):
            return None
        _, dest, kind, choices, *_ = option
        if kind is int:
            if not value.isdecimal():
                return None
            try:
                value = int(value)
            except ValueError:  # past the interpreter's limit on int digits
                return None
        elif choices is not None and value not in choices:
            return None
        given[dest] = value
    for _, dest, _, _, required, default, _ in options:
        if dest not in given:
            if required:
                return None
            given[dest] = default
    return SimpleNamespace(command=argv[0], **given)


def _require_curve_scale(q: int):
    if q > MAX_CURVE_Q:
        raise UsageError(f"curve subcommands support q <= {MAX_CURVE_Q}, got {q}")


def _require_printable(name, value, params):
    """Render value, the largest of a payload, before any write; name it past the digit limit."""
    try:
        "%d" % value
    except ValueError:
        raise UsageError(f"{name} at q={params.q}, n={params.n} has more than "
                         f"{sys.get_int_max_str_digits()} digits, the limit on int to str "
                         "conversion") from None


# -- renderers ---------------------------------------------------------------


def _json_str(s):
    """The JSON string literal of s, as ``json.dumps`` writes it (ASCII only)."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.encoder.encode_basestring_ascii(s)


def _json(obj, indent):
    """``json.dumps(obj, indent=2)`` at a depth whose line break is indent,
    for dicts with str keys, lists, tuples, strs, ints, bools and None;
    TypeError for any other value."""
    kind = type(obj)
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return "%d" % obj
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = indent + "  "
    if kind is dict and all(type(k) is str for k in obj):
        items, ends = [_json_str(k) + ": " + _json(v, inner) for k, v in obj.items()], "{}"
    elif kind is list or kind is tuple:
        items, ends = [_json(v, inner) for v in obj], "[]"
    else:
        raise TypeError(f"{kind.__name__} is left to json")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _dumps(obj):
    """Exactly ``json.dumps(obj, indent=2)``; json is imported only for a
    value that _json leaves to it."""
    try:
        return _json(obj, "\n")
    except TypeError:
        import json

        return json.dumps(obj, indent=2)


_BLOCK_ROWS = 4096


def _table(fmt, meta, headers, runs, text=()):
    """Writer of one table, given its meta, its headers and its rows as runs.

    Each run is (row count, cells), with one entry per header: an iterable
    over the column's cells in the run, or one cell constant over the run.
    The cells are ints, but for the columns named in text, whose cells are
    strs (a constant None is "").  The bytes are those of a csv writer
    (minimal quoting, "\n" line ends), of ``json.dumps(indent=2)`` over
    ``{"schema", **meta, "rows": [one dict per row]}``, or of the Markdown
    lines.

    Each run has one bytes row template: its constants written in by the
    format's cell rule, %d for an int column and %s for the quoted, encoded
    cells of a text column.  Its rows go out in blocks of ``_BLOCK_ROWS``,
    one bytes ``%`` each, to the stream's binary layer.
    """

    def write(stream):
        encoding, errors = stream.encoding or "utf-8", stream.errors or "strict"
        out = _binary_writer(stream, encoding, errors)
        sep = tail = ""
        if fmt == "json":
            quote = _json_str
            keys = [f"      {quote(h)}: ".replace("%", "%%") for h in headers]
            head = _dumps({"schema": SCHEMA_VERSION, **meta, "rows": []}) + "\n"
            if any(count for count, _ in runs):
                head, sep, tail = head.removesuffix("[]\n}\n") + "[\n", ",\n", "\n  ]\n}\n"

            def line(slots):
                return "    {\n" + ",\n".join(map(str.__add__, keys, slots)) + "\n    }"
        elif fmt == "csv":
            def quote(cell):  # as csv.writer quotes: minimal, with "\n" line ends
                if "," in cell or '"' in cell or "\n" in cell or (not cell and len(headers) == 1):
                    return '"' + cell.replace('"', '""') + '"'
                return cell

            def line(slots):
                return ",".join(slots) + "\n"

            head = line(map(quote, headers))
        else:
            quote = str

            def line(slots):
                return "| " + " | ".join(slots) + " |\n"

            head = line(headers) + "|" + "---|" * len(headers) + "\n"
        out(head.encode(encoding, errors))
        sep = sep.encode()
        first = True  # no separator before the table's first row
        for count, cells in runs:
            slots, args = [], []
            for header, cell in zip(headers, cells):
                if cell is None or isinstance(cell, (int, str)):  # constant over the run
                    cell = quote(cell or "") if header in text else "%d" % cell
                    slots.append(cell.replace("%", "%%"))
                elif header in text:
                    slots.append("%s")
                    args.append(map(str.encode, map(quote, cell), repeat(encoding),
                                    repeat(errors)))
                else:
                    slots.append("%d")
                    args.append(cell)
            template = sep + line(slots).encode(encoding, errors)
            full = template * min(count, _BLOCK_ROWS)
            cells = chain.from_iterable(zip(*args))
            for i in range(0, count, _BLOCK_ROWS):
                n = min(_BLOCK_ROWS, count - i)
                block = template * n if i and n < _BLOCK_ROWS else full  # a short last block
                if first:
                    block, first = block[len(sep):], False
                out(block % tuple(islice(cells, n * len(args))))
        out(tail.encode())

    return write


def _binary_writer(stream, encoding, errors):
    """A function that writes bytes whole, after all the text stream holds.

    The bytes go to the stream's binary layer, which under PYTHONUNBUFFERED
    is raw and may take part of a write; a stream with none (io.StringIO)
    gets them decoded.
    """
    raw = getattr(stream, "buffer", None)
    if raw is None:
        return lambda data: stream.write(data.decode(encoding, errors))
    stream.flush()

    def write(data):
        view = memoryview(data)
        while view:
            view = view[raw.write(view):]

    return write


def _payload(fmt, payload):
    """Writer of a payload: json, a key/value table (values as csv.writer writes them), or md."""
    if fmt == "json":
        return _text(_dumps({"schema": SCHEMA_VERSION, **payload}) + "\n")
    flat = _flatten(payload)
    if fmt == "csv":  # every cell rendered here, so a value that fails fails before a write
        keys, values = [k for k, _ in flat], ["" if v is None else str(v) for _, v in flat]
        return _table(fmt, {}, ["key", "value"], [(len(flat), [keys, values])],
                      text=("key", "value"))
    return _text("\n".join(f"- **{k}**: {v}" for k, v in flat) + "\n")


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
    return _payload(args.format, payload)


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
    return _table(args.format, meta, ["gap"], [(params.genus, [gaps])])


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
    return _table(args.format, meta, ["k", "rho_l", "nu_l", "d_ord"],
                  [(len(index), [dims, rhos, nus, d_ords])])


def _cmd_quantum_table(args):
    from . import quantum

    params = curve_params(args.q, args.n)
    length = params.rational_point_count - 1
    if args.regime == quantum.REGIME_HIGH_DEGREE:
        # one or two runs, s_min and the note constant over each: no record or semigroup
        _require_printable("N", length, params)  # no cell exceeds N in absolute value
        runs = [(count, [*fields[1:5], fields[6]]) for count, fields
                in quantum._runs(params, None, args.lmin, args.lmax, args.regime)]
    else:
        from . import refdata

        sg = orbit_semigroup(params, args.orbit)
        rows = quantum.quantum_table(params, sg, args.lmin, args.lmax, regime=args.regime)
        notes = None  # no published table: no row has a note
        if refdata.has_reference(params):
            notes = refdata._notes(params, args.orbit, rows)
        fields = ("index", "d_floor", "s_min", "s_max")
        runs = [(len(rows), [*(map(attrgetter(f), rows) for f in fields), notes])]
    meta = {
        "command": "quantum-table",
        "q": params.q,
        "n": params.n,
        "orbit": args.orbit,
        "regime": args.regime,
        "N": length,
    }
    return _table(args.format, meta, ["l", "d_ord", "s_min", "s_max", "discrepancy"], runs,
                  text=("discrepancy",))


def _cmd_frobenius(args):
    params = curve_params(args.q, args.n)
    differ = frobenius_dimensions_differ(args.q, args.n)
    gk1 = frobenius_dimension_gk1(params)
    _require_printable("gk1", gk1, params)  # the largest payload value
    payload = {
        "command": "frobenius",
        "q": params.q,
        "n": params.n,
        "gk2": None if params.n < 5 else frobenius_dimension_gk2(params),
        "gk1": gk1,
        "isomorphic": "not-applicable" if differ is None else (not differ),
    }
    return _payload(args.format, payload)


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
    return _payload(args.format, payload)


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

    n_gaps = _holomorphic_gap_indicator(params).count(1)  # asserts size and complement equality
    check("differential_gap_set", n_gaps == params.genus, f"|L| = {n_gaps}")

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
                    base = curve_mod.distinguished_point(params, ctx, orbit)
                    basis = curve_mod.build_basis(params, orbit, 10)
                    ok &= curve_mod._rank_certificate(params, ctx, base, basis) == [*range(1, 11)]
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
        write = _text("\n".join(lines) + "\n")
    else:
        write = _payload(args.format, payload)
    return write, EXIT_OK if all_ok else EXIT_INCONSISTENT


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
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv) or build_parser().parse_args(argv)
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
    except (ValueError, OverflowError) as exc:  # OverflowError: a sieve past the index range
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # an input too large to compute
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def _run() -> int:
    """Process entry of the ``gk2codes`` script and ``python -m``: returns ``main()``.

    On every way out, ``--help``'s ``SystemExit`` too, the heap is frozen
    into the collector's permanent generation, so interpreter shutdown runs
    no collection over the imported modules and the field tables.  Atexit
    handlers, stream flushes and reference-count frees still run; cycles
    alive at exit go with the process.  ``main()`` itself leaves the
    collector alone, for callers that keep running.
    """
    try:
        return main()
    finally:
        import gc  # here, so that importing this module loads nothing more

        gc.freeze()


if __name__ == "__main__":
    sys.exit(_run())
