"""Workload job lists and the one-job-at-a-time process runner.

A job is one CLI invocation, run as its own fresh ``python -m gk2codes.cli``
process (or, in a traced run, ``python perfbench/tracer.py`` with the same
arguments).  The runner reads the child's stdout through a pipe, hashes it,
reaps the child with ``os.wait4`` for its resource usage, and kills its
process group when it overruns its time budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TRACE_MARKER

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

# A job that runs longer than this is killed and counted as failed.  The
# slowest job takes about 6 s on a 2-core Xeon virtual machine.
JOB_BUDGET_S = 20.0

# The speed of a shared machine drifts by up to 2x over tens of seconds, and
# the CPU time of a process drifts with it.  So the runner times a fixed
# pure-Python loop just before and just after every child, and times are
# reported at a reference speed: scaled by REF_CALIB_S / (mean loop time).
# REF_CALIB_S is about the loop's median time on a shared 2-core Xeon VM.
REF_CALIB_S = 0.016


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the speed of the machine right now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(120_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0

WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    # Integer layers only: no finite field is built.  The semigroup sieve,
    # fengrao.nu and CLI rendering of a 7.9 MB table do the work.
    "tables": [
        ("semigroup", "--q", "4", "--n", "7", "--orbit", "O1"),
        ("fengrao-table", "--q", "3", "--n", "5", "--orbit", "O1"),
        ("quantum-table", "--q", "2", "--n", "7", "--orbit", "O2"),
        ("gaps", "--q", "3", "--n", "7", "--orbit", "O2"),
        ("quantum-table", "--q", "2", "--n", "7", "--orbit", "O1", "--regime", "high-degree"),
    ],
    # The gf and curve layers in both characteristics (add/sub differ
    # between p = 2 and odd p); the semigroups are tiny.
    "field": [
        ("points", "--q", "3", "--n", "5"),
        ("points", "--q", "2", "--n", "7"),
        ("code-matrix", "--q", "3", "--n", "3", "--orbit", "O1", "--l", "16"),
        ("code-matrix", "--q", "2", "--n", "5", "--orbit", "O2", "--l", "30"),
    ],
    # The composed user command: rank_profile instead of matrix_rank,
    # census at (3,5), the refdata comparisons, and the CLI's second pass
    # over reference quantum rows.
    "verify": [
        ("verify", "--q", "2", "--n", "5"),
        ("verify", "--q", "3", "--n", "3"),
        ("verify", "--q", "3", "--n", "5"),
        ("quantum-table", "--q", "2", "--n", "5", "--orbit", "O1"),
    ],
}


def job_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def job_env() -> dict[str, str]:
    """The environment of a user's invocation from a source checkout.

    GK2_THREADS is dropped because it switches table generation onto a
    thread pool, which is another code path.
    """
    env = {k: v for k, v in os.environ.items() if k != "GK2_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@dataclass
class JobResult:
    key: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int | None
    stdout_sha256: str
    stdout_bytes: int
    over_budget: bool
    calib_s: float = REF_CALIB_S
    stderr: str = ""
    trace: dict | None = None
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def speed_scale(self) -> float:
        """Factor that converts this job's times to the reference speed."""
        return REF_CALIB_S / self.calib_s


@dataclass
class Runner:
    """Spawns one child at a time; every child is reaped before returning."""

    env: dict[str, str] = field(default_factory=job_env, init=False)
    deadline: float = float("inf")  # perf_counter time after which no job may run

    def run(self, argv: list[str], budget_s: float = JOB_BUDGET_S) -> JobResult:
        budget_s = min(budget_s, self.deadline - time.perf_counter())
        key = job_key(tuple(argv))
        if budget_s <= 0:
            return JobResult(key, 0.0, 0.0, 0, None, "", 0, True,
                             failure="not started: run deadline reached")
        digest = hashlib.sha256()
        nbytes = 0
        err = bytearray()
        calib_before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        over = False
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            open_streams = 2
            while open_streams:
                left = t0 + budget_s - time.perf_counter()
                if left <= 0:
                    over = True
                    os.killpg(proc.pid, signal.SIGKILL)
                    break
                for sk, _ in sel.select(timeout=left):
                    chunk = os.read(sk.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(sk.fileobj)
                        open_streams -= 1
                    elif sk.fileobj is proc.stdout:
                        digest.update(chunk)
                        nbytes += len(chunk)
                    else:
                        err += chunk
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        calib_s = (calib_before + calibrate()) / 2
        return JobResult(
            key=key,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            exit_code=None if over else proc.returncode,
            stdout_sha256=digest.hexdigest(),
            stdout_bytes=nbytes,
            over_budget=over,
            calib_s=calib_s,
            stderr=err.decode(errors="replace"),
            failure=f"over budget ({budget_s:.1f} s), killed" if over else None,
        )


def cli_argv(job: tuple[str, ...], traced: bool = False) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH_DIR / "tracer.py"), *job]
    return [sys.executable, "-m", "gk2codes.cli", *job]


def run_job(runner: Runner, job: tuple[str, ...], golden: dict, traced: bool = False) -> JobResult:
    """Run one job and check its stdout hash and exit code against the golden record."""
    res = runner.run(cli_argv(job, traced))
    res.key = job_key(job)
    if traced and not res.failed:
        lines = res.stderr.splitlines()
        found = [ln for ln in lines if ln.startswith(TRACE_MARKER)]
        if found:
            res.trace = json.loads(found[-1][len(TRACE_MARKER):])
        res.stderr = "\n".join(ln for ln in lines if not ln.startswith(TRACE_MARKER))
        if res.trace is None:
            res.failure = "traced job wrote no trace record"
    if res.failed:
        return res
    want = golden.get(res.key)
    if want is None:
        res.failure = "no golden record for this job"
    elif res.exit_code != want["exit_code"]:
        res.failure = f"exit code {res.exit_code} != golden {want['exit_code']}"
    elif res.stdout_sha256 != want["stdout_sha256"]:
        res.failure = (
            f"stdout sha256 {res.stdout_sha256[:12]}... ({res.stdout_bytes} bytes) "
            f"!= golden {want['stdout_sha256'][:12]}... ({want['stdout_bytes']} bytes)"
        )
    return res
