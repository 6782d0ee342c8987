import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest

from gk2codes import cli, curve, fengrao, gk2, quantum, refdata, semigroup
from gk2codes.cli import main
from gk2codes.gk2 import curve_params, holomorphic_gap_set, orbit_semigroup, semigroup_o1
from gk2codes.semigroup import NumericalSemigroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_points_json(capsys):
    code, out, _ = run_cli(capsys, "points", "--q", "2", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["count"] == 225
    assert payload["orbit_sizes"] == {"O1": 3, "O2": 6, "generic": 216}


def test_points_deterministic_bytes(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "points", "--q", "2", "--n", "3", "--format", "csv")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_points_at_the_field_cap_golden_bytes(capsys):
    # (4, 5) is over F_{2^20}, the largest field the table arithmetic builds
    code, out, _ = run_cli(capsys, "points", "--q", "4", "--n", "5")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "05520c2356d1571abe1fc84fa35409f1f681a930e552e218f19ea6c3a2ab0a2c")


def test_frobenius_json(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--q", "2", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert (payload["gk2"], payload["gk1"], payload["isomorphic"]) == (7, 9, False)


def test_frobenius_n3_marker(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--q", "2", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["gk2"] is None
    assert payload["isomorphic"] == "not-applicable"


def test_semigroup_payload(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--q", "2", "--n", "5", "--orbit", "O1")
    payload = json.loads(out)
    assert payload["generators"] == [22, 24, 26, 28, 30, 32, 33]
    assert payload["genus"] == 46
    assert payload["symmetric"] is False


def test_gaps_csv(capsys):
    code, out, _ = run_cli(capsys, "gaps", "--q", "2", "--n", "3", "--orbit", "O2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gap"
    assert [int(v) for v in lines[1:]] == [1, 2, 3, 4, 5, 7, 10, 11, 13, 19]


def test_fengrao_table_csv_header_and_rows(capsys):
    code, out, _ = run_cli(
        capsys, "fengrao-table", "--q", "2", "--n", "5", "--orbit", "O1",
        "--lmax", "100", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,rho_l,nu_l,d_ord"
    assert lines[1] == "3967,0,1,1"
    rows = {tuple(map(int, ln.split(","))) for ln in lines[1:]}
    assert (3943, 65, 4, 4) in rows
    assert (3959, 44, 3, 3) in rows
    assert len(lines) == 101


def test_quantum_table_includes_discrepancies(capsys):
    code, out, _ = run_cli(
        capsys, "quantum-table", "--q", "2", "--n", "5", "--orbit", "O1",
        "--lmin", "46", "--lmax", "63", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,d_ord,s_min,s_max,discrepancy"
    row46 = lines[1].split(",")
    assert row46[:4] == ["46", "6", "46", "3871"]
    assert "published 47" in row46[4]
    row63 = lines[-1].split(",")
    assert row63[:4] == ["63", "25", "29", "3835"]
    assert "published 28" in row63[4]


def test_quantum_table_high_degree(capsys):
    code, out, _ = run_cli(
        capsys, "quantum-table", "--q", "2", "--n", "3", "--orbit", "O1",
        "--regime", "high-degree", "--lmin", "29", "--lmax", "29", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["rows"] == [
        {"l": 29, "d_ord": 20, "s_min": 1, "s_max": 166, "discrepancy": ""}
    ]


def test_code_matrix_output(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code, out, _ = run_cli(
        capsys, "code-matrix", "--q", "2", "--n", "3", "--orbit", "O1",
        "--l", "2", "-o", str(path),
    )
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0] == "N=224 L=2 p=2 deg=6"
    assert len(lines) == 3
    assert all(v == "1" for v in lines[1].split(" "))


# sha256 of the code-matrix stdout; the point order and the field encoding
# are normative (README, "Matrix file format"), so these bytes are frozen.
MATRIX_SHA256 = {
    (2, 3, "O1", 30): "1795e57ef69fa9747460f02e6c1e7e570fa3d12163fdce4f804aace5a99991d5",
    (2, 3, "O2", 30): "6d34186524824af8f2b554ea5a06ed7c8de762273c4ed7534d15f35f60faa155",
    (3, 3, "O1", 16): "f6186443bc2e533d7a35ce108067674977993079fa7a4eae53f53fc672657719",
    (3, 3, "O2", 10): "a297312fe1ecf0ee48a6da4b4b0e948f1edda97986c5b8e6fdb3448e000ff80e",
    (2, 5, "O1", 10): "df3b984180388e699f4771d02d5aeb9dc56a41d398ca86636a5dcb040af16ac4",
    # the only p = 5 pin: odd-characteristic Zech additions in both den and rank
    (5, 3, "O2", 3): "4a6b7f607d4cc005e606b80197a85510d5fbbc8e1f6245e62405474d8c47279a",
    # N = 65 024 columns over F_{2^14}
    (2, 7, "O1", 30): "30d70000771d63ac65818c6485e785548e98fa5d3194c4f70d5f87efd70c71aa",
}


@pytest.mark.parametrize("q,n,orbit,l", sorted(MATRIX_SHA256))
def test_code_matrix_golden_bytes(capsys, q, n, orbit, l):
    code, out, _ = run_cli(
        capsys, "code-matrix", "--q", str(q), "--n", str(n), "--orbit", orbit, "--l", str(l)
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_SHA256[q, n, orbit, l]


# sha256 of semigroup and gaps stdout at g = 937 450 and 198 765, where the
# nongaps and gaps reach past every small-case test
SEMIGROUP_SHA256 = {
    ("semigroup", 5, 7, "O1", "json"): "bec0ef971fa10738b3ee4becc4acff390f0aede01282dfd8c82029f3ff5d6906",
    ("semigroup", 5, 7, "O1", "csv"): "a02c5e432ca63ebb6a1863f011f77a04f1fc6829b9e1506283169305615dfcde",
    ("semigroup", 5, 7, "O1", "md"): "905da1bd2d5a6b05d050a3a1e9454e7533e49ba4bcd9a497e1a73e5230a27868",
    ("semigroup", 5, 7, "O2", "json"): "2ab0f2c530e0036220351263052fc7629480bb1eafad788124f775beff50a29e",
    ("semigroup", 5, 7, "O2", "csv"): "114fdc8d06ea87647748cf28661ac0fc32fbbb5a6bdb342ab01aee32e7fd249f",
    ("semigroup", 5, 7, "O2", "md"): "66cb2f4c4bfbdb35394755a35defa529a7b4d2f46fea6dc983addf51f3081284",
    ("gaps", 4, 7, "O1", "json"): "1cb5d16abcad043c5d147988fed0ec6e4b7c48ddaffd68fa61fae1334761b254",
}


@pytest.mark.parametrize("command,q,n,orbit,fmt", sorted(SEMIGROUP_SHA256))
def test_semigroup_golden_bytes(capsys, command, q, n, orbit, fmt):
    code, out, _ = run_cli(
        capsys, command, "--q", str(q), "--n", str(n), "--orbit", orbit, "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEMIGROUP_SHA256[command, q, n, orbit, fmt]


# sha256 of table and verify stdout: order-bound quantum-table jobs (the
# (2, 5) one carries the reference notes), a fengrao-table window open at the
# top, and the verify check lists with their detail strings
TABLE_SHA256 = {
    "quantum-table --q 3 --n 5 --orbit O1":
        "856c24aefdf8c8e6e1357bad33629c7ee762e9653c9f352f13fd3eafe384b89b",
    "quantum-table --q 3 --n 5 --orbit O2 --format csv":
        "1aea5a2210aba9e5d98ed8d2b8623eea1543ecf72bf3c53d9d9c167d70f713c0",
    "quantum-table --q 2 --n 5 --orbit O1 --format md":
        "e8caf643e37bf7c8a34d451bbfb9b2071ad27e730f7321e93ffff79656a82f53",
    "quantum-table --q 4 --n 5 --orbit O2 --lmin 8000 --lmax 8100 --format md":
        "22556033d116311104eed85eb98710b9f85016eea118e34f3f4d2cf1de8d8113",
    "fengrao-table --q 3 --n 5 --orbit O2 --lmin 100 --format csv":
        "3121eb9f430fb2e6b7efd98032c37ef3ae72bbaff64e921722caa6c9b0f76c2c",
    "verify --q 2 --n 3 --format csv":
        "7638664ba2cc4970dce95138061902570d7ae75f912f5bdef408c1b6903c5d51",
    "verify --q 3 --n 5 --format md":
        "43ee20dfd48ba36d71796d01b45a6b597f0c6a34da0865c172af5c93fe14b8f7",
    # the one verify that runs the reference comparisons; the json sha256 is
    # the one recorded for it in perfbench/golden.json
    "verify --q 2 --n 5":
        "99db12d0634da31acff38a08e7ab6b8d5ea66a5b2dacce1bd41c5888b48476f3",
    "verify --q 2 --n 5 --format csv":
        "a3993bc8cede0c584ebe01ed9bce097212b708f8bd22a51d3f166f0b042a6d88",
    "verify --q 2 --n 5 --format md":
        "0438e541e9ed67d1b108c3a36771a4185e331e7db738793f9b078847bee77d93",
    # partitions with nonempty sets past the reference rung, no field built
    "verify --q 3 --n 7":
        "a7a626abbda222863f4549c55f7ae3ea8341d875c7acfe288e16d7a57fa6ed36",
    "verify --q 3 --n 7 --format csv":
        "fd3921ee2660d1ef8cd6ed4c32d1b042a438246e3b04df5fa9d7c5e55f6d088f",
    "verify --q 3 --n 7 --format md":
        "0725b5d6485d01443e0aa1f2d3489a9604ffb98b84ea6f6d5b38e0fa248e5e38",
    "verify --q 5 --n 5":
        "9f3a7c5162d539e6e15b1ffc941057145d893f8995ea13bd2bc608da73f25964",
    "verify --q 5 --n 5 --format csv":
        "c374ad29bc4942a69a4e7ffad87418cbaa9eb075fb76fc2a87226dc4534310bf",
    "verify --q 5 --n 5 --format md":
        "7f4ac3ba2802389d5208f6da5d24a1e2cd8a237df4df89d74551152a9a43138b",
}


@pytest.mark.parametrize("argv", sorted(TABLE_SHA256))
def test_table_and_verify_golden_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[argv]


@pytest.mark.parametrize("l", ["225", "100000"])
def test_code_matrix_rows_beyond_code_length_rejected_fast(l):
    # N = 224 at (2, 3); the bound is checked before the field is built
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "gk2codes.cli", "code-matrix", "--q", "2", "--n", "3",
         "--orbit", "O1", "--l", l],
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("usage error: ") and out.stderr.count("\n") == 1
    assert out.stdout == ""


# One small job per subcommand, keyed by the subcommand and then any variant;
# lazy imports hide a command's imports from a probe that only imports the
# module, so the probe runs each job.
_IMPORT_PROBE_JOBS = {
    "semigroup": ("--q", "2", "--n", "5", "--orbit", "O1"),
    "gaps": ("--q", "2", "--n", "5", "--orbit", "O2", "--format", "csv"),
    "fengrao-table": ("--q", "2", "--n", "3", "--orbit", "O1", "--format", "md"),
    "quantum-table": ("--q", "2", "--n", "5", "--orbit", "O1"),
    "quantum-table high-degree": ("--q", "2", "--n", "5", "--orbit", "O1",
                                  "--regime", "high-degree"),
    "frobenius": ("--q", "2", "--n", "5", "--format", "csv"),
    "points": ("--q", "2", "--n", "3"),
    "code-matrix": ("--q", "2", "--n", "3", "--orbit", "O1", "--l", "4"),
    "verify": ("--q", "2", "--n", "5"),
    "verify no-reference": ("--q", "3", "--n", "3"),
}
_NOT_LOADED_BY = {
    "points": {"gk2codes.fengrao", "gk2codes.quantum", "gk2codes.refdata"},
    "code-matrix": {"gk2codes.fengrao", "gk2codes.quantum", "gk2codes.refdata"},
    "semigroup": {"gk2codes.gf", "gk2codes.curve"},
    "gaps": {"gk2codes.gf", "gk2codes.curve"},
    "fengrao-table": {"gk2codes.gf", "gk2codes.curve"},
    "quantum-table": {"gk2codes.gf", "gk2codes.curve"},
    # reference rows exist only for the order-bound regime
    "quantum-table high-degree": {"gk2codes.gf", "gk2codes.curve", "gk2codes.refdata", "csv"},
    # no published tables at (3, 3): the reference machinery is not loaded
    "verify no-reference": {"gk2codes.fengrao", "gk2codes.quantum", "csv"},
}


def test_cli_imports_only_the_standard_library():
    # site hooks may preload third-party modules, so only new imports count
    probe = (
        "import os, sys\n"
        "before = set(sys.modules)\n"
        "from gk2codes.cli import main\n"
        "code = main(sys.argv[1:] + ['-o', os.devnull])\n"
        "print(code, ' '.join(sorted(set(sys.modules) - before)))\n"
    )
    for job, args in _IMPORT_PROBE_JOBS.items():
        out = subprocess.run([sys.executable, "-c", probe, job.split()[0], *args],
                             capture_output=True, text=True)
        assert out.returncode == 0, (job, out.stderr)
        code, *new = out.stdout.split()
        assert code == "0", (job, out.stderr)
        third_party = {name.split(".")[0] for name in new} - set(sys.stdlib_module_names)
        assert third_party <= {"gk2codes"}, (job, third_party)
        assert "dataclasses" not in new, job
        assert not _NOT_LOADED_BY.get(job, set()) & set(new), (job, new)
        assert "gk2codes.cli" in new, job


def test_regime_choices_are_the_quantum_regimes():
    assert cli._REGIMES == (quantum.REGIME_ORDER_BOUND, quantum.REGIME_HIGH_DEGREE)


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "partition_genus_count" in names and "point_count" in names


def test_usage_errors(capsys):
    assert run_cli(capsys, "points", "--q", "2", "--n", "4")[0] == 1
    assert run_cli(capsys, "points", "--q", "7", "--n", "3")[0] == 1  # q > 5
    assert run_cli(capsys, "frobenius", "--q", "6", "--n", "3")[0] == 1
    assert run_cli(capsys, "fengrao-table", "--q", "2", "--n", "5", "--orbit", "O3")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1


def test_threads_env_is_ignored(capsys, monkeypatch):
    # GK2_THREADS once picked a thread pool; every value now gives the same run
    argv = ("fengrao-table", "--q", "2", "--n", "5", "--orbit", "O1", "--lmax", "40")
    monkeypatch.delenv("GK2_THREADS", raising=False)
    base = run_cli(capsys, *argv)
    assert base[0] == 0
    for raw in ("2", "-2", "zero"):
        monkeypatch.setenv("GK2_THREADS", raw)
        assert run_cli(capsys, *argv) == base


def test_package_reads_no_environment():
    import ast
    from pathlib import Path

    import gk2codes

    readers = []
    for path in sorted(Path(gk2codes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # attribute (os.environ), bare name (environ) or imported alias
            names = {getattr(node, field, None) for field in ("attr", "id", "name")}
            if names & {"environ", "getenv", "environb", "getenvb"}:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_unwritable_output_is_a_one_line_error(tmp_path):
    target = str(tmp_path / "missing" / "x")
    cases = [
        (["semigroup", "--q", "2", "--n", "3", "--orbit", "O1", "-o", target], None),
        (["gaps", "--q", "3", "--n", "5", "--orbit", "O2", "-o", target], None),
    ]
    if os.path.exists("/dev/full"):  # a file that opens but cannot be written
        gaps = ["gaps", "--q", "3", "--n", "5", "--orbit", "O2"]
        small = ["semigroup", "--q", "2", "--n", "3", "--orbit", "O1"]  # fits one buffer
        cases += [(gaps + ["-o", "/dev/full"], None), (gaps, "/dev/full"), (small, "/dev/full")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv, stdout_path in cases:
        with open(stdout_path or os.devnull, "w") as stdout:
            out = subprocess.run(
                [sys.executable, "-m", "gk2codes.cli", *argv],
                stdout=stdout if stdout_path else subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,  # stdout buffered, as a user runs it
            )
        assert out.returncode == 1, argv
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert not out.stdout


def test_console_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "gk2codes.cli", "points", "--q", "2", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["count"] == 225


# -- streamed tables against the former whole-string renderer -----------------


def _render_table(fmt, meta, headers, rows):
    """The former table renderer: one string per output, kept as the oracle."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(headers)
        w.writerows(rows)
        return buf.getvalue()
    if fmt == "json":
        payload = {"schema": 1, **meta, "rows": [dict(zip(headers, r)) for r in rows]}
        return json.dumps(payload, indent=2) + "\n"
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(str(v) for v in r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def _reference_note(reference_row, d, s_min, s_max):
    """The former quantum._reference_note: how (d, s_min, s_max) differs from its printed row."""
    if reference_row is None:
        return None
    diffs = [
        f"{key} computed {have} != published {reference_row[key]}"
        for key, have in (("d_ord", d), ("s_min", s_min), ("s_max", s_max))
        if reference_row.get(key) != have
    ]
    return "; ".join(diffs) if diffs else None


def _oracle_table(command, q, n, orbit, fmt, lmin=None, lmax=None,
                  regime=quantum.REGIME_ORDER_BOUND):
    """The former gaps, fengrao-table and quantum-table subcommands."""
    params = curve_params(q, n)
    if command == "gaps":
        gaps = holomorphic_gap_set(params) if orbit == "O2" else semigroup_o1(params).gaps
        meta = {"command": "gaps", "q": q, "n": n, "orbit": orbit, "count": len(gaps)}
        return _render_table(fmt, meta, ["gap"], [[g] for g in gaps])
    sg = orbit_semigroup(params, orbit)
    length = params.rational_point_count - 1
    if command == "fengrao-table":
        rows = fengrao.table(sg, params, 1 if lmin is None else lmin,
                             3 * params.genus if lmax is None else lmax)
        meta = {"command": command, "q": q, "n": n, "orbit": orbit, "N": length}
        return _render_table(fmt, meta, ["k", "rho_l", "nu_l", "d_ord"],
                             [[r.dim, r.rho, r.nu, r.d_ord] for r in rows])
    rows = quantum.quantum_table(params, sg, lmin, lmax, regime=regime)
    if refdata.has_reference(params) and regime == quantum.REGIME_ORDER_BOUND:
        ref = {r["l"]: r for r in refdata.load_quantum_reference(orbit)}
        notes = [_reference_note(ref.get(r.index), r.d_floor, r.s_min, r.s_max) for r in rows]
        rows = [r._replace(discrepancy=note) for r, note in zip(rows, notes)]
    meta = {"command": command, "q": q, "n": n, "orbit": orbit, "regime": regime, "N": length}
    return _render_table(fmt, meta, ["l", "d_ord", "s_min", "s_max", "discrepancy"],
                         [[r.index, r.d_floor, r.s_min, r.s_max, r.discrepancy or ""]
                          for r in rows])


TABLE_JOBS = [
    ("gaps", 2, 5, "O1", {}),
    ("gaps", 2, 5, "O2", {}),
    ("fengrao-table", 2, 3, "O2", {}),
    ("fengrao-table", 2, 5, "O1", {"lmin": 3, "lmax": 150}),
    # the (2, 5) O1 reference rows, with "s_min computed ... != published ..."
    ("quantum-table", 2, 5, "O1", {}),
    ("quantum-table", 2, 5, "O2", {"lmin": 50, "lmax": 60}),
    # "empty range" notes past l = N/2
    ("quantum-table", 2, 3, "O1", {"regime": quantum.REGIME_HIGH_DEGREE}),
    # 9001 rows: three blocks of the streamed renderer
    ("quantum-table", 2, 7, "O1",
     {"regime": quantum.REGIME_HIGH_DEGREE, "lmin": 30000, "lmax": 39000}),
]


def _table_argv(command, q, n, orbit, opts):
    argv = [command, "--q", str(q), "--n", str(n), "--orbit", orbit]
    for key, value in opts.items():
        argv += [f"--{key}", str(value)]
    return argv


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
@pytest.mark.parametrize("job", TABLE_JOBS, ids=lambda j: " ".join(_table_argv(*j)))
def test_streamed_table_matches_former_renderer(capsys, tmp_path, job, fmt):
    command, q, n, orbit, opts = job
    want = _oracle_table(command, q, n, orbit, fmt, **opts)
    argv = _table_argv(*job) + ["--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == want
    path = tmp_path / "t.out"
    assert run_cli(capsys, *argv, "-o", str(path)) == (0, "", "")
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_gaps_o1_streams_off_the_sieve(capsys, monkeypatch, fmt):
    # the O1 column is read off the sieve bytes: the gaps tuple is never built
    want = _oracle_table("gaps", 2, 5, "O1", fmt)

    def unread(self):
        raise AssertionError("NumericalSemigroup.gaps read")

    monkeypatch.setattr(NumericalSemigroup, "gaps", property(unread))
    code, out, err = run_cli(capsys, "gaps", "--q", "2", "--n", "5", "--orbit", "O1",
                             "--format", fmt)
    assert (code, err, out) == (0, "", want)


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_gaps_o2_streams_off_the_checked_bytes(capsys, monkeypatch, fmt):
    # the O2 column is read off the checked gap bytes: no tuple of the gaps is built
    want = _oracle_table("gaps", 2, 5, "O2", fmt)

    def unbuilt(params):
        raise AssertionError("holomorphic_gap_set called")

    monkeypatch.setattr(gk2, "holomorphic_gap_set", unbuilt)
    monkeypatch.setattr(cli, "holomorphic_gap_set", unbuilt)
    code, out, err = run_cli(capsys, "gaps", "--q", "2", "--n", "5", "--orbit", "O2",
                             "--format", fmt)
    assert (code, err, out) == (0, "", want)


def test_verify_closes_the_telescopic_sequence_once(capsys, monkeypatch):
    # verify_partition's sieve of S serves the genus cross-check: one closure
    params = curve_params(2, 5)
    step = params.q**2 - params.q
    seq = sorted((params.m * params.q, params.m * params.q + step, params.q**params.n + 1))
    closed = []
    real = semigroup.closure_table

    def counted(generators, bound):
        closed.append(sorted(set(generators)))
        return real(generators, bound)

    monkeypatch.setattr(semigroup, "closure_table", counted)
    monkeypatch.setattr(gk2, "closure_table", counted, raising=False)
    assert run_cli(capsys, "verify", "--q", "2", "--n", "5")[0] == 0
    assert closed.count(seq) == 1


# stdout of verify --q 2 --n 3 when the basis repeats its last function, so
# that neither orbit's first 10 rows have rank profile 1..10
DEPENDENT_ROW_SHA256 = {
    "json": "ac64970b71b427963aede9e19a5e984644e48859b431038cdd1df7d1396de657",
    "csv": "dab653a7ff56334cbcfbf1763914c552d44cc08b0a5314f0d9104b920ca4f54b",
    "md": "0ac8cc5a833e8e64b9b8c7b8e22f45c3f6866474714ea4316c05780b139967cc",
}


@pytest.mark.parametrize("fmt", sorted(DEPENDENT_ROW_SHA256))
def test_verify_staircase_fails_on_a_dependent_row(capsys, monkeypatch, fmt):
    real = curve.build_basis

    def repeat_last(params, orbit, count):
        basis = real(params, orbit, count - 1)
        return basis + basis[-1:]

    monkeypatch.setattr(curve, "build_basis", repeat_last)
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "3", "--format", fmt)
    assert code == 2
    assert "rank_staircase_l_le_10" in out
    assert hashlib.sha256(out.encode()).hexdigest() == DEPENDENT_ROW_SHA256[fmt]


CELLS = {
    "empty": [],
    "one": [[0, ""]],
    "escapes": [[7, 'quote " backslash \\ e-acute \u00e9 percent %s'], [-3, "x"]],
    # cells that are neither int nor str: csv and Markdown write any cell, the
    # JSON writer only ints and the strs of the columns it is told about
    "other-types": [[2, None], [True, 2.5]],
    # seven rows: a short last block for blocks of 2, 3 and 4096, exact for 1 and 7
    "seven": [[i, f'%d "{i}" \\ %% \u00e9' * i] for i in range(7)],
}


def _renderer_cases():
    for fmt in ("csv", "json", "md"):
        for name, rows in CELLS.items():
            if fmt == "json" and name == "other-types":
                continue
            for block in (1, 2, 3, 7, 4096):
                yield pytest.param(fmt, rows, block, id=f"{fmt}-{name}-{block}")


@pytest.mark.parametrize("fmt, rows, block", _renderer_cases())
def test_table_renderer_matches_former_renderer(monkeypatch, fmt, rows, block):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
    headers, meta = ["k", "note %d"], {"command": "t", "q": 2, "note": "\u00e9"}
    cols = list(zip(*rows)) or [(), ()]
    text = [h for h, col in zip(headers, cols) if col and all(type(c) is str for c in col)]
    # one pass over each column: the writer gets iterators, not sequences
    columns = {h: iter(col) for h, col in zip(headers, cols)}
    buf = io.StringIO()
    cli._table(fmt, meta, len(rows), columns, text=text)(buf)
    assert buf.getvalue() == _render_table(fmt, meta, headers, rows)


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_payload_output_is_the_rendered_payload(capsys, tmp_path, fmt):
    argv = ["frobenius", "--q", "2", "--n", "5", "--format", fmt]
    payload = {"command": "frobenius", "q": 2, "n": 5, "gk2": 7, "gk1": 9, "isomorphic": False}
    want = cli._render_payload(fmt, payload)
    assert run_cli(capsys, *argv) == (0, want, "")
    path = tmp_path / "p.out"
    assert run_cli(capsys, *argv, "-o", str(path)) == (0, "", "")
    assert path.read_bytes() == want.encode()


def test_high_degree_cli_builds_no_records(capsys, monkeypatch):
    argv = ("quantum-table", "--q", "2", "--n", "5", "--orbit", "O1", "--regime", "high-degree",
            "--lmin", "1900", "--lmax", "2100")
    want = _oracle_table("quantum-table", 2, 5, "O1", "json", lmin=1900, lmax=2100,
                         regime=quantum.REGIME_HIGH_DEGREE)

    def no_records(*args):
        raise AssertionError("the high-degree CLI path built QuantumRange records")

    monkeypatch.setattr(quantum, "_rows", no_records)
    monkeypatch.setattr(quantum, "range_high_degree", no_records)
    assert run_cli(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("argv", [
    "quantum-table --q 2 --n 5 --orbit O1",  # the reference notes
    "quantum-table --q 3 --n 3 --orbit O2 --lmin 150 --lmax 296",
    "quantum-table --q 2 --n 3 --orbit O1 --regime high-degree",
    "verify --q 2 --n 5",  # the reference comparisons
])
def test_cli_tables_call_no_one_row_form(capsys, monkeypatch, argv):
    argv = [*argv.split(), "--format", "csv"]
    want = run_cli(capsys, *argv)
    assert want[0] == 0

    def one_row(*args, **kwargs):
        raise AssertionError("the table was built through a one-row form")

    # every name the one-row forms are bound to, in quantum and in refdata
    forms = (quantum.range_order_bound, quantum.range_high_degree)
    for mod in (quantum, refdata):
        for name, value in list(vars(mod).items()):
            if any(value is form for form in forms):
                monkeypatch.setattr(mod, name, one_row)
    assert run_cli(capsys, *argv) == want


@pytest.mark.parametrize("lmin, lmax", [(5, 40), (40, 30), (None, 10000)])
def test_high_degree_window_rejected_with_its_message(capsys, lmin, lmax):
    # (2, 3): g = 10, N = 224, so the high-degree regime is [29, 214]
    argv = ["quantum-table", "--q", "2", "--n", "3", "--orbit", "O1", "--regime", "high-degree"]
    for key, value in (("--lmin", lmin), ("--lmax", lmax)):
        if value is not None:
            argv += [key, str(value)]
    shown = [29 if lmin is None else lmin, 214 if lmax is None else lmax]
    assert run_cli(capsys, *argv) == (
        1, "", f"usage error: need 29 <= l_min <= l_max <= 214, got {shown}\n")


@pytest.mark.parametrize("lmin, lmax", [(50, None), (None, 300), (0, 3), (40, 30)])
def test_fengrao_window_rejected_with_its_message(capsys, lmin, lmax):
    # (2, 3): g = 10, so the default window is [1, 30]; N - 1 = 223
    argv = ["fengrao-table", "--q", "2", "--n", "3", "--orbit", "O1"]
    for key, value in (("--lmin", lmin), ("--lmax", lmax)):
        if value is not None:
            argv += [key, str(value)]
    shown = [1 if lmin is None else lmin, 30 if lmax is None else lmax]
    assert run_cli(capsys, *argv) == (
        1, "", f"usage error: need 1 <= l_min <= l_max <= N-1, got {shown}\n")


def test_reference_notes_cost_no_second_pass(capsys, monkeypatch):
    # (2, 5) has published quantum rows: the notes go onto the 2g rows that
    # quantum_table built, so d_ord runs once per row
    calls = []
    d_ord = quantum.d_ord
    monkeypatch.setattr(quantum, "d_ord", lambda *args: calls.append(args) or d_ord(*args))
    code, out, _ = run_cli(capsys, "quantum-table", "--q", "2", "--n", "5", "--orbit", "O1")
    assert code == 0
    assert len(calls) == 2 * 46
    assert out == _oracle_table("quantum-table", 2, 5, "O1", "json")


@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_reference_notes_match_the_former_note_formula(monkeypatch, orbit):
    # every order-bound row at (2, 5) against printed rows that differ from it
    # in 0, 1, 2 or 3 cells; every fifth row has no printed row
    params = curve_params(2, 5)
    rows = quantum.quantum_table(params, orbit_semigroup(params, orbit))
    subsets = [cells for k in range(4) for cells in combinations(("d_ord", "s_min", "s_max"), k)]
    for shift in range(len(subsets)):
        printed = {}
        for i, r in enumerate(rows):
            cells = subsets[(i + shift) % len(subsets)]
            computed = {"d_ord": r.d_floor, "s_min": r.s_min, "s_max": r.s_max}
            printed[r.index] = {"l": r.index, **{key: value + (key in cells) * (1 - 2 * (i % 2))
                                                 for key, value in computed.items()}}
        for l in list(printed)[::5]:
            del printed[l]
        monkeypatch.setattr(refdata, "load_quantum_reference", lambda orb: list(printed.values()))
        noted = refdata._with_notes(params, orbit, rows)
        assert [r.discrepancy for r in noted] == [
            _reference_note(printed.get(r.index), r.d_floor, r.s_min, r.s_max) for r in rows]
        assert [r._replace(discrepancy=None) for r in noted] == rows


def test_high_degree_table_golden_bytes(capsys):
    # the largest table job of the benchmark, 64 266 rows; the sha256 is the
    # one recorded for it in perfbench/golden.json
    code, out, _ = run_cli(capsys, "quantum-table", "--q", "2", "--n", "7", "--orbit", "O1",
                           "--regime", "high-degree")
    assert code == 0 and len(out) == 7875931
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "ecaaa4cee35e4135d6304e85aa9dbaf7d5eb708caa93a0f034e5fd403de5f108")


# -- output contract: where the bytes go when the reader or the file fails ----

CLI = [sys.executable, "-m", "gk2codes.cli"]


# main() run by a caller that writes to stdout after it, as a wrapper would
CALLER = [sys.executable, "-c",
          "import sys; from gk2codes.cli import main; code = main(sys.argv[1:]); "
          "print('after'); sys.stdout.flush(); sys.exit(code)"]


PIPE_JOBS = {
    # 7.9 MB: the reader takes 10 bytes and leaves while rows are being written
    "big-csv": (["quantum-table", "--q", "2", "--n", "7", "--orbit", "O1",
                 "--regime", "high-degree", "--format", "csv"], 10),
    "big-json": (["quantum-table", "--q", "2", "--n", "7", "--orbit", "O1",
                  "--regime", "high-degree"], 10),
    # one buffer: the reader is gone before anything is written
    "small": (["semigroup", "--q", "2", "--n", "3", "--orbit", "O1"], 0),
}


def _env(buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", [CLI, CALLER], ids=["cli", "caller"])
@pytest.mark.parametrize("job", sorted(PIPE_JOBS))
def test_reader_closing_the_pipe_early_is_not_an_error(entry, job, buffered):
    argv, nread = PIPE_JOBS[job]
    proc = subprocess.Popen(entry + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(buffered))
    assert len(proc.stdout.read(nread)) == nread
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_closed_stdout_is_a_one_line_error():
    out = subprocess.run(
        CLI + ["semigroup", "--q", "2", "--n", "3", "--orbit", "O1"],
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
    )
    assert out.returncode == 1
    assert out.stderr == "error: cannot write stdout\n"


@pytest.mark.parametrize("command", ["fengrao-table", "quantum-table"])
def test_failed_computation_never_creates_the_output_file(tmp_path, command):
    path = tmp_path / "never"
    out = subprocess.run(
        CLI + [command, "--q", "2", "--n", "5", "--orbit", "O1", "--lmin", "5", "--lmax", "4",
               "-o", str(path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1
    assert out.stderr.startswith("usage error: ") and out.stderr.count("\n") == 1
    assert not path.exists()
