"""Record the golden stdout sha256 and exit code of every benchmark job.

Run from the repository root at the commit whose outputs are normative:

    python3 perfbench/record_golden.py

It writes ``perfbench/golden.json``.  The CLI's bytes are frozen, so this is
re-run only when a job list changes, never to accept a changed output.
"""

from __future__ import annotations

import json
import sys

from jobs import GOLDEN_PATH, WORKLOADS, Runner, cli_argv, job_key


def main() -> int:
    runner = Runner()
    golden = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            res = runner.run(cli_argv(job))
            if res.failed:
                print(f"{job_key(job)}: {res.failure}", file=sys.stderr)
                return 1
            golden[job_key(job)] = {
                "exit_code": res.exit_code,
                "stdout_sha256": res.stdout_sha256,
                "stdout_bytes": res.stdout_bytes,
            }
            print(f"{res.wall_s:7.3f}s exit {res.exit_code} {res.stdout_bytes:>9} B  {job_key(job)}")
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
