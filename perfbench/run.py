"""Benchmark of the gk2codes CLI: fixed job lists run as fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 36 --trace 0

One client runs one job at a time (a closed loop), each job a fresh
``python -m gk2codes.cli`` process, so each pays its own imports and field
tables as a user's invocation does.  Every job's stdout sha256 and exit code
are checked against ``perfbench/golden.json``; a mismatch or an overrun is a
failed job.  The seed only shuffles the job order within each pass.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs each job untraced and then traced (``perfbench/tracer.py``) and
reports per-layer metrics.  Times are reported at the reference machine
speed (see ``jobs.REF_CALIB_S``).  The last line of stdout is the result
object; every run is also appended to ``perfbench/results/<workload>.jsonl``
with its environment record and raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from jobs import BENCH_DIR, ROOT, SRC, WORKLOADS, Runner, load_golden, run_job

SETUP_SPAWNS = 5  # before the timed loop; one more follows every job
RUN_DEADLINE_S = 150.0  # no job starts, and every running job is killed, past this

# Per-layer metrics read from the traced jobs' records.
LAYER_TIMES = [
    "gf.make_field", "gf.rank", "semigroup.from_generators", "gk2.holomorphic_gap_set",
    "gk2.verify_partition", "fengrao.nu", "fengrao.table", "fengrao.d_ord",
    "quantum.quantum_table", "curve.census", "curve.enumerate_points", "curve.eval_basis",
    "curve.code_matrix", "refdata.compare", "cli",
]
LAYER_CALLS = [
    "semigroup.from_generators", "fengrao.nu", "curve.enumerate_points", "curve.eval_basis",
]
LAYER_COUNTS = [
    "gf.fields_built", "gf.rank_cells", "semigroup.genus_sieved", "quantum.rows",
    "curve.points_enumerated",
]


def source_digest() -> str:
    """sha256 over the program's source files, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = SRC / "gk2codes"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    ncores = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": ncores,
        "cpu_model": cpu_model(),
        "loadavg_before": list(load),
        "load_above_cores": load[0] > ncores,
    }


def import_time(runner: Runner) -> float:
    """Time for a fresh interpreter to import gk2codes.cli, at reference speed."""
    res = runner.run([sys.executable, "-c", "import gk2codes.cli"])
    if res.failed or res.exit_code != 0:
        raise SystemExit(f"setup failed: cannot import gk2codes.cli\n{res.failure or res.stderr}")
    return res.wall_s * res.speed_scale


def run_passes(runner, jobs, golden, seed, seconds, traced_pairs, after_job=None):
    """Closed loop over shuffled passes until `seconds` have elapsed.

    The first pass always completes.  With traced_pairs each job runs
    untraced and traced back to back, in an order that alternates by pass.
    after_job, if given, is called after every job.
    Returns (untraced results, traced results).
    """
    rng = random.Random(seed)
    plain, traced = [], []
    t0 = time.perf_counter()
    pass_no = 0
    while True:
        order = list(jobs)
        rng.shuffle(order)
        for job in order:
            if pass_no and time.perf_counter() - t0 >= seconds:
                return plain, traced
            if not traced_pairs:
                plain.append(run_job(runner, job, golden))
            elif pass_no % 2 == 0:
                plain.append(run_job(runner, job, golden))
                traced.append(run_job(runner, job, golden, traced=True))
            else:
                traced.append(run_job(runner, job, golden, traced=True))
                plain.append(run_job(runner, job, golden))
            if after_job is not None:
                after_job()
        pass_no += 1


def job_sum(results, value, middle=statistics.median):
    """Sum over jobs of middle(value(result) over that job's samples)."""
    by_job: dict[str, list] = {}
    for r in results:
        by_job.setdefault(r.key, []).append(value(r))
    return sum(middle(v) for v in by_job.values())


def count_sum(results, value) -> int:
    """job_sum for counts, which repeat exactly: the median is a sample, not a mean of two."""
    return job_sum(results, value, statistics.median_low)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(results, setup_s):
    return {
        "wall_s": metric(job_sum(results, lambda r: r.wall_s * r.speed_scale), "s"),
        "cpu_s": metric(job_sum(results, lambda r: r.cpu_s * r.speed_scale), "s"),
        "peak_rss_mb": metric(max(r.maxrss_kb for r in results) / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def layer_metrics(plain, traced):
    ok = [r for r in traced if r.trace is not None]

    def layer(r, name, field):
        return r.trace["layers"].get(name, {}).get(field, 0)

    out = {}
    for name in LAYER_TIMES:
        label = "cli.self" if name == "cli" else name
        out[f"{label}_s"] = metric(
            job_sum(ok, lambda r: layer(r, name, "self_s") * r.speed_scale), "s")
    for name in LAYER_CALLS:
        out[f"{name}_calls"] = metric(count_sum(ok, lambda r: layer(r, name, "calls")), "count")
    counts = {
        name: count_sum(ok, lambda r: r.trace["counts"].get(name, 0))
        for name in LAYER_COUNTS + ["quantum.nu_calls_in_table", "quantum.order_bound_rows"]
    }
    for name in LAYER_COUNTS:
        out[name] = metric(counts[name], "count")
    rows = counts["quantum.order_bound_rows"]
    out["quantum.nu_calls_per_row"] = metric(
        counts["quantum.nu_calls_in_table"] / rows if rows else 0.0, "count")
    out["cli.output_bytes"] = metric(count_sum(ok, lambda r: r.stdout_bytes), "bytes")
    plain_wall = job_sum(plain, lambda r: r.wall_s * r.speed_scale)
    traced_wall = job_sum(traced, lambda r: r.wall_s * r.speed_scale)
    out["trace.overhead_frac"] = metric(traced_wall / plain_wall - 1, "frac")
    return out


def top_self_layer(result) -> str:
    layers = result.trace["layers"]
    name = max(layers, key=lambda k: layers[k]["self_s"])
    return f"{name} {layers[name]['self_s']:.3f}s"


def samples(results):
    """Raw per-job samples, for the run record."""
    by_job: dict[str, dict] = {}
    for r in results:
        s = by_job.setdefault(r.key, {"wall_s": [], "cpu_s": [], "maxrss_kb": [], "calib_s": []})
        s["wall_s"].append(r.wall_s)
        s["cpu_s"].append(r.cpu_s)
        s["maxrss_kb"].append(r.maxrss_kb)
        s["calib_s"].append(r.calib_s)
    return by_job


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gk2codes" / "cli.py").is_file():
        print(f"perfbench: no gk2codes sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden()
    env = environment()
    if env["load_above_cores"]:
        print(f"perfbench: warning: load average {env['loadavg_before'][0]:.2f} is above "
              f"{env['nproc']} cores at start; this run is flagged", file=sys.stderr)

    runner = Runner(deadline=time.perf_counter() + RUN_DEADLINE_S)
    jobs = WORKLOADS[args.workload]
    if args.trace:
        plain, traced = run_passes(runner, jobs, golden, args.seed, args.seconds, True)
        metrics = layer_metrics(plain, traced)
    else:
        # Import times are sampled before the loop and after every job, so
        # that their median spans the whole run rather than one moment of it.
        import_time(runner)  # writes the bytecode cache
        setup = [import_time(runner) for _ in range(SETUP_SPAWNS)]
        plain, traced = run_passes(runner, jobs, golden, args.seed, args.seconds, False,
                                   after_job=lambda: setup.append(import_time(runner)))
        metrics = end_to_end_metrics(plain, statistics.median(setup))
    done = plain + traced
    env["loadavg_after"] = list(os.getloadavg())

    failures = [
        {"job": r.key, "traced": traced_run, "why": r.failure, "stderr": r.stderr[-2000:]}
        for runs, traced_run in ((plain, False), (traced, True))
        for r in runs if r.failed
    ]
    result = {
        "correct": not failures,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "samples": samples(plain),
        "traced_samples": samples(traced), "failures": failures,
        "top_self_layer": {r.key: top_self_layer(r) for r in traced if r.trace},
        "result": result,
    }
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")

    print(json.dumps({"env": env}))
    for key, s in record["samples"].items():
        print(f"job {statistics.median(s['wall_s']):8.3f}s raw x{len(s['wall_s'])}  {key}")
    for key, top in record["top_self_layer"].items():
        print(f"top self-time layer  {top}  in  {key}")
    for fl in failures:
        print(f"FAILED {fl['job']}: {fl['why']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
