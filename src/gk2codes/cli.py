"""Command-line front end.

Every subcommand is a thin wrapper over one library operation and writes
deterministic output (csv, json or md) to stdout or a file.  Exit codes:
0 success, 1 usage error, 2 internal-consistency failure (a proven identity
failed at runtime), 3 an evaluation needed local resolution.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import curve as curve_mod
from . import fengrao, quantum, refdata
from .errors import InternalConsistencyError, NeedsLocalResolutionError
from .gf import MAX_FIELD_SIZE
from .gk2 import (
    curve_params,
    frobenius_dimension_gk1,
    frobenius_dimension_gk2,
    frobenius_dimensions_differ,
    holomorphic_gap_set,
    orbit_semigroup,
    prime_power_decompose,
    semigroup_o1,
    semigroup_o2,
    verify_partition,
)
from .semigroup import NumericalSemigroup, telescopic_genus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_UNRESOLVED = 3

SCHEMA_VERSION = 1
MAX_CURVE_Q = 5


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
    qt.add_argument(
        "--regime",
        choices=(quantum.REGIME_ORDER_BOUND, quantum.REGIME_HIGH_DEGREE),
        default=quantum.REGIME_ORDER_BOUND,
    )
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


def _render_table(fmt, meta, headers, rows):
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(headers)
        w.writerows(rows)
        return buf.getvalue()
    if fmt == "json":
        payload = {"schema": SCHEMA_VERSION, **meta, "rows": [dict(zip(headers, r)) for r in rows]}
        return json.dumps(payload, indent=2) + "\n"
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(str(v) for v in r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def _render_payload(fmt, payload):
    if fmt == "json":
        return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2) + "\n"
    flat = _flatten(payload)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["key", "value"])
        w.writerows(flat)
        return buf.getvalue()
    return "\n".join(f"- **{k}**: {v}" for k, v in flat) + "\n"


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
        "first_nongaps": [sg.nth_nongap(i) for i in range(1, 21)],
    }
    return _render_payload(args.format, payload)


def _cmd_gaps(args):
    params = curve_params(args.q, args.n)
    if args.orbit == "O2":
        gaps = holomorphic_gap_set(params)  # asserts |L| = g and L = complement
    else:
        gaps = semigroup_o1(params).gaps
    meta = {"command": "gaps", "q": params.q, "n": params.n, "orbit": args.orbit,
            "count": len(gaps)}
    return _render_table(args.format, meta, ["gap"], [[g] for g in gaps])


def _cmd_fengrao_table(args):
    params = curve_params(args.q, args.n)
    sg = orbit_semigroup(params, args.orbit)
    l_min = 1 if args.lmin is None else args.lmin
    l_max = 3 * params.genus if args.lmax is None else args.lmax
    rows = fengrao.table(sg, params, l_min, l_max)
    meta = {
        "command": "fengrao-table",
        "q": params.q,
        "n": params.n,
        "orbit": args.orbit,
        "N": params.rational_point_count - 1,
    }
    out = [[r.dim, r.rho, r.nu, r.d_ord] for r in rows]
    return _render_table(args.format, meta, ["k", "rho_l", "nu_l", "d_ord"], out)


def _cmd_quantum_table(args):
    params = curve_params(args.q, args.n)
    sg = orbit_semigroup(params, args.orbit)
    rows = quantum.quantum_table(params, sg, args.lmin, args.lmax, regime=args.regime)
    if refdata.has_reference(params) and args.regime == quantum.REGIME_ORDER_BOUND:
        ref = {r["l"]: r for r in refdata.load_quantum_reference(args.orbit)}
        rows = [
            quantum.range_order_bound(params, sg, r.index, reference_row=ref.get(r.index))
            for r in rows
        ]
    meta = {
        "command": "quantum-table",
        "q": params.q,
        "n": params.n,
        "orbit": args.orbit,
        "regime": args.regime,
        "N": params.rational_point_count - 1,
    }
    out = [
        [r.index, r.d_floor, r.s_min, r.s_max, r.discrepancy or ""]
        for r in rows
    ]
    return _render_table(args.format, meta, ["l", "d_ord", "s_min", "s_max", "discrepancy"], out)


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
    return _render_payload(args.format, payload)


def _cmd_points(args):
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
    return _render_payload(args.format, payload)


def _cmd_code_matrix(args):
    _require_curve_scale(args.q)
    params = curve_params(args.q, args.n)
    if args.l < 1:
        raise UsageError(f"--l must be >= 1, got {args.l}")
    n_support = params.rational_point_count - 1
    if args.l > n_support:
        raise UsageError(f"--l must be <= N = {n_support} (the code length), got {args.l}")
    ctx = curve_mod.field_context(params)
    matrix = curve_mod.code_matrix(params, ctx, args.orbit, args.l)
    buf = io.StringIO()
    curve_mod.write_matrix(buf, ctx, matrix)
    return buf.getvalue()


def _cmd_verify(args):
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

    seq = (params.m * params.q, params.m * params.q + params.q**2 - params.q, top)
    check(
        "telescopic_genus_cross_check",
        telescopic_genus(seq) == NumericalSemigroup.from_generators(seq).genus,
        seq,
    )

    rep = verify_partition(params)
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

    p, e = prime_power_decompose(params.q)
    field_size = p ** (e * 2 * params.n)
    if field_size <= MAX_FIELD_SIZE:
        ctx = curve_mod.field_context(params)
        c = curve_mod.census(params, ctx)  # asserts totals internally
        check("point_count", c.total == params.rational_point_count, c.total)
        check("orbit_sizes", (c.o1, c.o2) == (params.q + 1, params.q**3 - params.q),
              f"({c.o1}, {c.o2})")
        if field_size <= 1 << 11:  # keep the staircase interactive-fast
            ok = True
            for orbit in ("O1", "O2"):
                try:  # code_matrix checks that the rank profile is 1..10
                    curve_mod.code_matrix(params, ctx, orbit, 10)
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
    return text, EXIT_OK if all_ok else EXIT_INCONSISTENT


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fengrao._check_threads_env()
        result = _COMMANDS[args.command](args)
        code = EXIT_OK
        if isinstance(result, tuple):
            result, code = result
        if args.output:
            try:
                with open(args.output, "w") as f:
                    f.write(result)
            except OSError as exc:
                print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
                return EXIT_USAGE
        else:
            sys.stdout.write(result)
        return code
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
