"""Tests of the benchmark's own wiring.  Run from the repository root:

    python3 -m pytest perfbench/test_wiring.py -q
"""

from __future__ import annotations

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import gk2codes  # noqa: E402
from jobs import Runner, cli_argv, job_env, job_key, run_job  # noqa: E402
from tracer import LAYERS, MODULES, TRACE_MARKER, UNWRAPPED, resolve_owner  # noqa: E402


def _key(obj, name):
    return f"{obj.__module__.removeprefix('gk2codes.')}.{name}"


def test_every_exported_name_is_wrapped_or_listed():
    missing = [
        name for name in gk2codes.__all__
        if _key(getattr(gk2codes, name), name) not in LAYERS.keys() | UNWRAPPED.keys()
    ]
    assert not missing, f"neither wrapped nor listed as unwrapped: {missing}"


def test_every_module_function_is_wrapped_or_listed():
    missing = []
    for short in MODULES:
        mod = importlib.import_module(f"gk2codes.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                    and f"{short}.{name}" not in LAYERS.keys() | UNWRAPPED.keys()):
                missing.append(f"{short}.{name}")
    assert not missing, f"neither wrapped nor listed as unwrapped: {missing}"


def test_every_listed_name_exists():
    for key in LAYERS.keys() | UNWRAPPED.keys():
        owner, attr = resolve_owner(key)
        assert attr in vars(owner), key
    assert not LAYERS.keys() & UNWRAPPED.keys()


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR.parent, env=job_env(),
                          capture_output=True, text=True, timeout=60)


def test_install_replaces_every_reference():
    code = f"""
import sys
sys.path.insert(0, {str(BENCH_DIR)!r})
import tracer
originals = {{}}
for key in tracer.LAYERS:
    owner, attr = tracer.resolve_owner(key)
    originals[key] = getattr(owner, attr)
tracer.Tracer().install()
left = []
for name, mod in list(sys.modules.items()):
    if name == "gk2codes" or name.startswith("gk2codes."):
        for attr, value in vars(mod).items():
            if any(value is fn for fn in originals.values()):
                left.append(f"{{name}}.{{attr}}")
owner, attr = tracer.resolve_owner("semigroup.NumericalSemigroup.from_generators")
if getattr(owner, attr).__func__ is originals["semigroup.NumericalSemigroup.from_generators"].__func__:
    left.append("NumericalSemigroup.from_generators")
print(left)
"""
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _golden_of(job):
    res = Runner().run(cli_argv(job))
    return {job_key(job): {"exit_code": res.exit_code, "stdout_sha256": res.stdout_sha256,
                           "stdout_bytes": res.stdout_bytes}}


def test_traced_stdout_is_byte_identical_and_records_layers():
    for job, layers in [
        (("verify", "--q", "2", "--n", "3"), {"cli", "gf.rank", "curve.census", "gk2.verify_partition"}),
        (("code-matrix", "--q", "2", "--n", "3", "--orbit", "O2", "--l", "6"),
         {"gf.make_field", "gf.rank", "curve.eval_basis", "curve.code_matrix"}),
        (("quantum-table", "--q", "2", "--n", "3", "--orbit", "O1"), {"fengrao.nu", "quantum.quantum_table"}),
    ]:
        golden = _golden_of(job)
        res = run_job(Runner(), job, golden, traced=True)
        assert res.failure is None, res.failure
        assert layers <= res.trace["layers"].keys()
        assert TRACE_MARKER not in res.stderr


def test_trace_counts():
    res = run_job(Runner(), ("quantum-table", "--q", "2", "--n", "3", "--orbit", "O2"),
                  _golden_of(("quantum-table", "--q", "2", "--n", "3", "--orbit", "O2")), traced=True)
    counts, layers = res.trace["counts"], res.trace["layers"]
    g = 10  # genus at q=2, n=3
    assert counts["quantum.rows"] == counts["quantum.order_bound_rows"] == 2 * g
    assert counts["quantum.nu_calls_in_table"] == layers["fengrao.nu"]["calls"]
    assert layers["semigroup.from_generators"]["calls"] == 1
    assert counts["semigroup.genus_sieved"] == g
    for rec in layers.values():
        assert rec["self_s"] <= rec["total_s"] + 1e-9


def test_output_mismatch_is_a_failure():
    job = ("semigroup", "--q", "2", "--n", "3", "--orbit", "O1")
    golden = _golden_of(job)
    golden[job_key(job)]["stdout_sha256"] = "0" * 64
    res = run_job(Runner(), job, golden)
    assert res.failed and "sha256" in res.failure


def test_overrunning_job_is_killed_and_failed():
    res = Runner().run([sys.executable, "-c", "import time; time.sleep(30)"], budget_s=0.5)
    assert res.over_budget and res.failed
    assert res.wall_s < 10


def test_golden_file_covers_every_job():
    from jobs import GOLDEN_PATH, WORKLOADS

    golden = json.loads(GOLDEN_PATH.read_text())
    keys = {job_key(job) for jobs in WORKLOADS.values() for job in jobs}
    assert keys == golden.keys()
    assert all(g["exit_code"] == 0 for g in golden.values())
