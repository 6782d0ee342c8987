"""Frontier ladder: the time of each layer's entry point over a (q, n) ladder.

Informational, and not part of the timed benchmark.  Run from the
repository root:

    python3 perfbench/ladder.py --out perfbench/results/ladder.json

Each entry runs in a fresh interpreter, so no field or semigroup cache
carries over; its prerequisites (the field, the semigroup) are built
untimed, then the entry point is timed with perf_counter.  An entry is
repeated up to REPEATS times and the minimum is kept.  A timed call that
passes BUDGET_S seconds is interrupted and recorded as over budget, never
dropped.  The largest rung that finishes within the budget is the frontier.
Times are raw seconds on the machine that runs it, not scaled.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import sys
import time

BUDGET_S = 10.0  # aim 1's frontier: the largest rung each layer finishes within this
REPEATS = 3  # k of min-of-k

FIELD_LADDER = [(2, 3), (2, 5), (3, 3), (2, 7), (3, 5), (4, 5)]
INTEGER_LADDER = FIELD_LADDER + [(3, 7), (5, 5), (4, 7)]

# (layer, op, ladder); ops are defined in _entry below.
ENTRIES = [
    ("semigroup", "semigroup_o1", INTEGER_LADDER),
    ("semigroup", "semigroup_o2", INTEGER_LADDER),
    ("gk2", "holomorphic_gap_set", INTEGER_LADDER),
    ("fengrao", "table", INTEGER_LADDER),
    ("quantum", "quantum_table", INTEGER_LADDER),
    ("gf", "make_field", FIELD_LADDER),
    ("curve", "census", FIELD_LADDER),
    ("curve", "enumerate_points", FIELD_LADDER),
    ("curve", "code_matrix_O1_l30", FIELD_LADDER),
    ("cli", "verify", FIELD_LADDER),
]


class OverBudget(Exception):
    pass


def _entry(op: str, q: int, n: int):
    """(untimed prerequisites, timed call, sizes) for one ladder entry."""
    from gk2codes import cli, curve, fengrao, gf, gk2, quantum

    params = gk2.curve_params(q, n)
    sizes = {"g": params.genus, "points": params.rational_point_count}
    p, e = gk2.prime_power_decompose(q)
    if op in ("census", "enumerate_points", "code_matrix_O1_l30", "make_field"):
        sizes["field_order"] = p ** (e * 2 * n)
    if op == "semigroup_o1":
        return lambda: None, lambda _: gk2.semigroup_o1(params), sizes
    if op == "semigroup_o2":
        return lambda: None, lambda _: gk2.semigroup_o2(params), sizes
    if op == "holomorphic_gap_set":
        # includes the O2 sieve it checks itself against
        return lambda: None, lambda _: gk2.holomorphic_gap_set(params), sizes
    if op == "table":
        return (lambda: gk2.semigroup_o1(params),
                lambda sg: fengrao.table(sg, params, 1, 3 * params.genus), sizes)
    if op == "quantum_table":
        return (lambda: gk2.semigroup_o1(params),
                lambda sg: quantum.quantum_table(params, sg), sizes)
    if op == "make_field":
        return lambda: None, lambda _: gf.make_field(p, e * 2 * n), sizes
    if op == "census":
        return lambda: curve.field_context(params), lambda ctx: curve.census(params, ctx), sizes
    if op == "enumerate_points":
        return (lambda: curve.field_context(params),
                lambda ctx: curve.enumerate_points(params, ctx), sizes)
    if op == "code_matrix_O1_l30":
        return (lambda: curve.field_context(params),
                lambda ctx: curve.code_matrix(params, ctx, "O1", 30), sizes)
    if op == "verify":
        def run(_):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["verify", "--q", str(q), "--n", str(n)])
        return lambda: None, run, sizes
    raise ValueError(f"unknown ladder op {op!r}")


def child(op: str, q: int, n: int, budget_s: float) -> dict:
    """Time one entry in this process; the timer interrupts it at the budget."""
    prepare, run, sizes = _entry(op, q, n)
    arg = prepare()

    def expire(signum, frame):
        raise OverBudget

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    t0 = time.perf_counter()
    try:
        run(arg)
        seconds = time.perf_counter() - t0
        status = "ok"
    except OverBudget:
        seconds, status = None, "over_budget"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"status": status, "seconds": seconds, **sizes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="JSON report path (default: stdout only)")
    ap.add_argument("--child", nargs=3, metavar=("OP", "Q", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        op, q, n = args.child
        # stderr, because the runner hashes stdout rather than keeping it
        print(json.dumps(child(op, int(q), int(n), BUDGET_S)), file=sys.stderr)
        return 0

    from jobs import Runner
    from run import environment

    runner = Runner()
    env = environment()
    entries = []
    for layer, op, ladder in ENTRIES:
        for q, n in ladder:
            argv_child = [sys.executable, __file__, "--child", op, str(q), str(n)]
            times, rec = [], None
            for _ in range(REPEATS):
                # prerequisites such as the 2^20 field take up to ~15 s untimed
                res = runner.run(argv_child, budget_s=BUDGET_S + 60)
                if res.failed or res.exit_code != 0:
                    rec = {"status": "failed", "why": res.failure or res.stderr[-500:]}
                    break
                rec = json.loads(res.stderr.strip().splitlines()[-1])
                if rec["status"] != "ok":
                    break
                times.append(rec["seconds"])
                if sum(times) > BUDGET_S:
                    break
            entry = {"layer": layer, "op": op, "q": q, "n": n,
                     **{k: v for k, v in rec.items() if k != "seconds"},
                     "seconds_min": min(times) if times and rec["status"] == "ok" else None,
                     "repeats": len(times)}
            entries.append(entry)
            shown = f"{entry['seconds_min']:.3f}s" if entry["seconds_min"] is not None else entry["status"]
            print(f"{layer:9s} {op:20s} q={q} n={n} g={rec.get('g', '?'):>7} {shown}", flush=True)
    env["loadavg_after"] = list(os.getloadavg())
    report = {"budget_s": BUDGET_S, "repeats": REPEATS, "env": env, "entries": entries}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
