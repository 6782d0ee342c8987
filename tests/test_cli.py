import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from importlib import import_module
from itertools import chain, combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gk2codes import (
    _cmd_tables,
    _render,
    _table_writer,
    cli,
    curve,
    fengrao,
    gk2,
    quantum,
    refdata,
    semigroup,
)
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
    # S = <13108, 13120, 16385> has genus 21 508 584: its sieve is read in place
    "verify --q 4 --n 7":
        "2a9d1b30904e5a9d16ec58866aad18ec82ad86e30ec92cfbb9248bb97e3c0f8b",
    "verify --q 4 --n 7 --format csv":
        "43959d8d8a73889046ebf5d1bcaaeb78bdf24f09afc58ce7e97529010270137a",
    "verify --q 4 --n 7 --format md":
        "4c1cc0d288df085fbd5a7c4be1342a822a8d9791445656811719cda30ef69b16",
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


# sha256 of each format of the payload and table jobs that no pin above
# covers, so the output head (command, q, n, orbit) is pinned in every
# command and format; frobenius at n = 3 has the null and not-applicable cells
FORMAT_SHA256 = {
    "points --q 2 --n 3 --format json":
        "3a18552d75f93d75aaed0fe4ec17cda8198eb8bd1b3e6c737881a7a48b8a5942",
    "points --q 2 --n 3 --format csv":
        "78f18049dd40f93dbd25256ba6ba215f2c864513d249d844568d24a5231d0d3a",
    "points --q 2 --n 3 --format md":
        "675fadccccc2e8d84e211f3d628039e9edee1822b1391fa28cc1e351a2e45014",
    "frobenius --q 2 --n 5 --format json":
        "07e311f0936a57aeb090caf37934a9d5914c784f5747b085ae37d55981f0c3bc",
    "frobenius --q 2 --n 5 --format csv":
        "6e3b18f183a627bc55dded8a2206d9a6fad6afd9a520a4580d70116c3825cee9",
    "frobenius --q 2 --n 5 --format md":
        "796230813f15aaa8a0c3d40e6c8aaf6a9d3202db85c121bad9cab71748eec8a5",
    "frobenius --q 2 --n 3 --format json":
        "8ea7b163bb67e03d33654136012fe002ab115bf13f1e85a921f3b78f72b3152a",
    "frobenius --q 2 --n 3 --format csv":
        "34a086409cfb540db4cabc23dbd3fa6bfac821577282fd378ddffb32cc62d3e0",
    "frobenius --q 2 --n 3 --format md":
        "1c6826fbbbf591181978aad20b9cfac54d5adb1c141dfafdc83e3ed409096433",
    "gaps --q 2 --n 5 --orbit O2 --format json":
        "1c5087eaf0df1e9149d5071ecaf10f96b1e83d926759b22ab6df963612d81259",
    "gaps --q 2 --n 5 --orbit O2 --format csv":
        "62102048eb2678c1e11dec2f4c9c14d166b98277934a33f02688a2281957d823",
    "gaps --q 2 --n 5 --orbit O2 --format md":
        "d9cba86b0c56f9c2d00d1d2fa8ac9d7f7b162249788a18b87b4825b84a5ac994",
    "fengrao-table --q 2 --n 5 --orbit O1 --format json":
        "fcf20f044b935414adf612a23811de9a05d51617b1fbe6d0bdbe856ea936ce4b",
    "fengrao-table --q 2 --n 5 --orbit O1 --format csv":
        "2eec6517635c38e21e9be7d77ac9283ed909495f428801273269b3efc8cc4cde",
    "fengrao-table --q 2 --n 5 --orbit O1 --format md":
        "b6056ee05a5b36fd9e9eaea7d2a0e3d841f59561f060c1e92b8f2da40d427658",
}


@pytest.mark.parametrize("argv", sorted(FORMAT_SHA256))
def test_every_format_golden_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_SHA256[argv]


def test_verify_reads_the_gap_count_off_the_checked_indicator(capsys, monkeypatch):
    # |L| comes from the indicator whose size and complement checks ran: no
    # tuple of g gap ints is built
    def no_gap_tuple(params):
        raise AssertionError("verify built the holomorphic gap tuple")

    monkeypatch.setattr(gk2, "holomorphic_gap_set", no_gap_tuple)
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256["verify --q 2 --n 5"]


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
    "quantum-table no-reference": ("--q", "2", "--n", "3", "--orbit", "O1"),
    "verify": ("--q", "2", "--n", "5"),
    "verify no-reference": ("--q", "3", "--n", "3"),
    "verify above the table cap": ("--q", "4", "--n", "7"),
}
_NOT_LOADED_BY = {
    # the census reads the curve's scalars only: no sieve, and no table
    "points": {"gk2codes.fengrao", "gk2codes.quantum", "gk2codes.refdata",
               "gk2codes.semigroup", "gk2codes._table_writer"},
    # the matrix has its own writer
    "code-matrix": {"gk2codes.fengrao", "gk2codes.quantum", "gk2codes.refdata",
                    "gk2codes._render", "gk2codes._table_writer"},
    "semigroup": {"gk2codes.gf", "gk2codes.curve", "gk2codes._table_writer"},
    "gaps": {"gk2codes.gf", "gk2codes.curve"},
    "fengrao-table": {"gk2codes.gf", "gk2codes.curve"},
    "quantum-table": {"gk2codes.gf", "gk2codes.curve"},
    # reference rows exist only for the order-bound regime, and high-degree
    # rows run neither the Feng-Rao floor nor the sieve
    "quantum-table high-degree": {"gk2codes.gf", "gk2codes.curve", "gk2codes.refdata", "csv",
                                  "gk2codes.fengrao", "gk2codes.semigroup"},
    # no published tables at (2, 3): the reference machinery is not loaded
    "quantum-table no-reference": {"gk2codes.gf", "gk2codes.curve", "gk2codes.refdata", "csv"},
    "verify": {"gk2codes._table_writer"},
    # no published tables at (3, 3): the reference machinery is not loaded
    "verify no-reference": {"gk2codes.fengrao", "gk2codes.quantum", "gk2codes.refdata", "csv",
                            "gk2codes._table_writer"},
    # F_{4^14} is past the table cap, which gk2 states: no census, so no curve
    # and no field module; no published tables
    "verify above the table cap": {"gk2codes.curve", "gk2codes.gf", "gk2codes.fengrao",
                                   "gk2codes.quantum", "gk2codes.refdata", "csv",
                                   "gk2codes._table_writer"},
}

# the module of each subcommand's command family, which holds its body
_FAMILY = {command: f"gk2codes.{module}" for command, (_, module, _) in cli._OPTIONS.items()}


# what argparse loads: a well-formed command line parses without it
_PARSER_MODULES = {"argparse", "gettext", "locale"}


# table and payload jobs at (2, 3), which has no published tables to read
_CSV_PROBE_JOBS = (
    "gaps --q 2 --n 3 --orbit O1",
    "gaps --q 2 --n 3 --orbit O2",
    "fengrao-table --q 2 --n 3 --orbit O1",
    "quantum-table --q 2 --n 3 --orbit O1",
    "quantum-table --q 2 --n 3 --orbit O1 --regime high-degree",
    "semigroup --q 2 --n 3 --orbit O1",
    "frobenius --q 2 --n 3",
    "points --q 2 --n 3",
    "verify --q 2 --n 3",
)


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
        assert not _PARSER_MODULES & set(new), (job, new)
        assert "gk2codes.cli" in new, job
    # nor does importing the module; --help still reaches argparse
    out = subprocess.run(
        [sys.executable, "-c", "import sys\nbefore = set(sys.modules)\nimport gk2codes.cli\n"
         "print(' '.join(set(sys.modules) - before))"], capture_output=True, text=True)
    assert out.returncode == 0 and "gk2codes.cli" in out.stdout.split(), out.stderr
    assert not _PARSER_MODULES & set(out.stdout.split()), out.stdout
    out = subprocess.run([sys.executable, "-m", "gk2codes.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.startswith("usage: gk2codes"), out.stderr
    # no table or payload job loads csv, in any format: all csv goes through
    # the one bytes writer
    probe = (
        "import os, sys\n"
        "from gk2codes.cli import main\n"
        "for fmt in ('csv', 'json', 'md'):\n"
        "    for job in sys.argv[1:]:\n"
        "        code = main(job.split() + ['--format', fmt, '-o', os.devnull])\n"
        "        print(job, fmt, code, 'csv' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe, *_CSV_PROBE_JOBS],
                         capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    assert len(lines) == 3 * len(_CSV_PROBE_JOBS)
    assert all(line.endswith(" 0 False") for line in lines), lines


def test_quantum_loads_neither_the_feng_rao_module_nor_the_sieve():
    # the order-bound floor imports fengrao when it runs; semigroup is a type only
    out = subprocess.run([sys.executable, "-c", "import sys\nimport gk2codes.quantum\n"
                          "print(*sorted(m for m in sys.modules if m.startswith('gk2codes')))"],
                         capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.split() == ["gk2codes", "gk2codes.errors", "gk2codes.gk2", "gk2codes.quantum"]


def test_plain_jobs_never_load_json():
    # json is the renderer's fallback for values it does not write itself
    probe = (
        "import os, sys\n"
        "from gk2codes.cli import main\n"
        "for job in sys.argv[1:]:\n"
        "    code = main(job.split() + ['-o', os.devnull])\n"
        "    print(job, code, 'json' in sys.modules)\n"
    )
    jobs = ("semigroup --q 2 --n 3 --orbit O1", "gaps --q 2 --n 3 --orbit O2",
            "points --q 2 --n 3", "verify --q 2 --n 3")
    out = subprocess.run([sys.executable, "-c", probe, *jobs], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == [f"{job} 0 False" for job in jobs]


# Runs the module as `python -m gk2codes.cli` does and prints, at exit, the
# gk2codes modules the job loaded: the entry module itself is __main__.
_ENTRY_MODULES_PROBE = (
    "import atexit, os, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith('gk2codes'))))\n"
    "sys.argv += ['-o', os.devnull]\n"
    "runpy.run_module('gk2codes.cli', run_name='__main__')\n"
)


@pytest.mark.parametrize("job", sorted(_IMPORT_PROBE_JOBS))
def test_each_subcommand_loads_only_its_own_code(job):
    command = job.split()[0]
    out = subprocess.run([sys.executable, "-c", _ENTRY_MODULES_PROBE, command,
                          *_IMPORT_PROBE_JOBS[job]], capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stderr) == (0, ""), job
    loaded = set(out.stdout.split())
    # a command module that imported gk2codes.cli would run the entry module twice
    assert "gk2codes.cli" not in loaded, job
    assert loaded & set(_FAMILY.values()) == {_FAMILY[command]}, (job, loaded)
    assert not _NOT_LOADED_BY.get(job, set()) & loaded, (job, loaded)


def test_each_command_body_is_named_by_one_option_row():
    # main calls the row's family module's _cmd_<command with - as _>: every
    # row names a body there, and every body is named by a row
    named = set()
    for command, (_, module, _) in cli._OPTIONS.items():
        name = "_cmd_" + command.replace("-", "_")
        assert callable(getattr(import_module(f"gk2codes.{module}"), name, None)), command
        named.add((module, name))
    defined = {(module, name) for module in ("_cmd_curve", "_cmd_tables", "_cmd_verify")
               for name, value in vars(import_module(f"gk2codes.{module}")).items()
               if name.startswith("_cmd_") and callable(value)}
    assert defined == named


@pytest.mark.parametrize("argv", [
    # the q bound, raised in the entry module itself
    "points --q 7 --n 3",
    # --l < 1, raised in _cmd_curve
    "code-matrix --q 2 --n 3 --orbit O1 --l 0",
    # a ValueError from quantum._window, which the entry module maps to exit 1
    "quantum-table --q 2 --n 5 --orbit O1 --lmin 5 --lmax 4",
    # gk1 past the digit limit, raised in _cmd_tables._require_printable
    "frobenius --q 4 --n 8001",
    # the q bound again: _cmd_verify raises no UsageError
    "verify --q 7 --n 3",
    # l > N = 224, raised in _cmd_curve
    pytest.param("code-matrix --q 2 --n 3 --orbit O1 --l 225", id="code-matrix-l-past-N"),
    # N past the digit limit, raised in _cmd_tables._require_printable
    pytest.param("quantum-table --q 4 --n 8001 --orbit O1 --regime high-degree",
                 id="quantum-table-N-past-digit-limit"),
], ids=lambda argv: argv.split()[0])
def test_usage_error_in_each_command_module_exits_1(argv):
    # an error raised in a command module is caught by the entry module
    # running as __main__: both must see the one UsageError class
    out = subprocess.run([sys.executable, "-m", "gk2codes.cli", *argv.split()],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1, out.stderr
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.startswith("usage error: ") and out.stderr.count("\n") == 1, out.stderr


@pytest.mark.parametrize("argv,message", [
    # the q bound of the commands that build a field comes before curve_params
    ("points --q 6 --n 3", "curve subcommands support q <= 5, got 6"),
    ("code-matrix --q 7 --n 4 --orbit O1 --l 4", "curve subcommands support q <= 5, got 7"),
    ("verify --q 9 --n 4", "curve subcommands support q <= 5, got 9"),
    # the table commands build no field and have no q bound
    ("semigroup --q 6 --n 3 --orbit O1", "q = 6 is not a prime power"),
    ("frobenius --q 6 --n 3", "q = 6 is not a prime power"),
], ids=["points", "code-matrix", "verify", "semigroup", "frobenius"])
def test_an_input_failing_two_checks_gets_the_first_ones_message(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (1, "", f"usage error: {message}\n")


def test_every_benchmark_job_matches_its_golden_record_through_the_entry_point():
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
    for key, want in json.loads(golden.read_text()).items():
        out = subprocess.run([sys.executable, "-m", "gk2codes.cli", *key.split()],
                             capture_output=True, timeout=60)
        assert out.returncode == want["exit_code"], (key, out.stderr[-500:])
        assert len(out.stdout) == want["stdout_bytes"], key
        assert hashlib.sha256(out.stdout).hexdigest() == want["stdout_sha256"], key


# printable ASCII with the two characters JSON escapes in it, then control
# characters, DEL and non-ASCII, then any text
_JSON_TEXT = (st.text(alphabet='ab /"\\', max_size=4)
              | st.text(alphabet='a\x00\x08\n\x1f\x7f\u00e9\u2028\U0001f600', max_size=4)
              | st.text(max_size=6))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | _JSON_TEXT,
    lambda values: (st.lists(values, max_size=3) | st.lists(values, max_size=3).map(tuple)
                    | st.dictionaries(_JSON_TEXT, values, max_size=3)),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
@example({"\\": "a\\b", '"': ['say "x"', "\x7f"]})
def test_json_renderer_is_json_dumps(obj):
    assert _render._dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", [{}, [], ""], {"": {"a": []}},
    1.5, [1, 2.5], {"a": {1: "int key"}}, {"a": [float("nan")]}, True, None,
])
def test_json_renderer_falls_back_to_json_exactly(obj):
    assert _render._dumps(obj) == json.dumps(obj, indent=2)


def test_json_renderer_raises_as_json_past_the_digit_limit():
    obj = {"gk1": [10**4400]}
    with pytest.raises(ValueError) as ours:
        _render._dumps(obj)
    with pytest.raises(ValueError) as theirs:
        json.dumps(obj, indent=2)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_payload_past_the_digit_limit_writes_nothing(tmp_path, fmt, to_file):
    # gk1 at (4, 8001) has more digits than an int may convert to str
    path = tmp_path / "never"
    out = subprocess.run(CLI + ["frobenius", "--q", "4", "--n", "8001", "--format", fmt]
                         + (["-o", str(path)] if to_file else []),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("usage error: ") and out.stderr.count("\n") == 1
    assert "q=4, n=8001" in out.stderr and "set_int_max_str_digits" not in out.stderr
    assert not path.exists()


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


# -- the option table against the former parser ------------------------------


def _former_parser():
    """The parser build_parser() made before the option table, kept as the oracle."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise cli.UsageError(message)

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

    p = _Parser(prog="gk2codes", description=cli.__doc__)
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
    qt.add_argument("--regime", choices=("order-bound", "high-degree"), default="order-bound")
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


_SUBCOMMANDS = ("semigroup", "gaps", "fengrao-table", "quantum-table", "frobenius", "points",
                "code-matrix", "verify")


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in _SUBCOMMANDS],
                         ids=["top", *_SUBCOMMANDS])
def test_help_is_the_former_parsers(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as former:
        _former_parser().parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as now:
        main(argv)
    got = capsys.readouterr()
    assert want.out.startswith("usage: gk2codes")
    assert (now.value.code, got.out, got.err) == (former.value.code, want.out, want.err)


@pytest.mark.parametrize("argv", [
    "points --n 3",
    "fengrao-table --q 2 --n 5 --orbit O3",
    "points --q x --n 3",
    "nonsense --q 2",
    "fengrao-table --q 2 --n 5 --orbit O1 --lmin=-1",
    "code-matrix --q 2 --n 3 --orbit O1 --l 2 --format md",
])
def test_usage_errors_are_the_former_parsers(capsys, monkeypatch, argv):
    got = run_cli(capsys, *argv.split())
    monkeypatch.setattr(cli, "_parse", lambda argv: None)
    monkeypatch.setattr(cli, "build_parser", _former_parser)
    want = run_cli(capsys, *argv.split())
    assert want[0] == 1 and want[2].startswith("usage error: ") and want[2].count("\n") == 1
    assert got == want


_ODD_VALUES = ("-1", "+5", "5_0", "٣", "²", "-", " 7", "1" * 5000)


def _draw_argv(data):
    """A command line drawn from the option table, and whether it was left well formed."""
    command = data.draw(st.sampled_from([*cli._OPTIONS, "nonsense"]))
    pairs = []
    for flags, _, kind, choices, required, _, _ in cli._OPTIONS.get(command, ("", "", ()))[2]:
        if required or data.draw(st.booleans()):
            if choices:
                value = data.draw(st.sampled_from(choices))
            elif kind is int:
                value = str(data.draw(st.integers(0, 10**6)))
            else:
                value = data.draw(st.sampled_from(["out.txt", os.devnull, "a b", ""]))
            pairs.append([data.draw(st.sampled_from(flags)), value])
    pairs = data.draw(st.permutations(pairs))
    changes = data.draw(st.lists(st.sampled_from(
        ["drop", "bad-choice", "duplicate", "equals", "abbreviate", "odd-value"]), max_size=3))
    for change in changes:
        if not pairs:
            break
        i = data.draw(st.integers(0, len(pairs) - 1))
        if len(pairs[i]) == 1:  # already joined by "equals"
            continue
        flag, value = pairs[i]
        if change == "drop":
            del pairs[i]
        elif change == "bad-choice":
            pairs[i] = [flag, data.draw(st.sampled_from(["O3", "xml", "low-degree", "o1"]))]
        elif change == "duplicate":
            pairs.insert(data.draw(st.integers(0, len(pairs))), list(pairs[i]))
        elif change == "equals":
            pairs[i] = [f"{flag}={value}"]
        elif change == "abbreviate" and len(flag) > 3:
            pairs[i] = [flag[:data.draw(st.integers(3, len(flag) - 1))], value]
        elif change == "odd-value":
            pairs[i] = [flag, data.draw(st.sampled_from(_ODD_VALUES))]
    return [command, *chain.from_iterable(pairs)], command != "nonsense" and not changes


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fast_parse_is_argparse_or_none(data):
    argv, well_formed = _draw_argv(data)
    try:
        want = vars(cli.build_parser().parse_args(argv))
    except cli.UsageError:
        want = None
    got = cli._parse(argv)
    if want is None or not well_formed:
        assert got is None or vars(got) == want, argv
    else:  # a plain command line never builds the parser
        assert got is not None and vars(got) == want, argv


def test_every_benchmark_job_parses_on_the_fast_path():
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
    for key in json.loads(golden.read_text()):
        argv = key.split()
        got = cli._parse(argv)
        assert got is not None, key
        assert vars(got) == vars(cli.build_parser().parse_args(argv)), key


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


def test_console_entry_point_subprocess(capsys):
    # both `python -m` launchers against in-process main, on exit 0 and exit 1
    for argv, want_code in ((["points", "--q", "2", "--n", "3"], 0),
                            (["points", "--q", "2", "--n", "4"], 1)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == want_code
        assert code or json.loads(out)["count"] == 225
        for module in ("gk2codes", "gk2codes.cli"):
            proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True)
            assert (proc.returncode, proc.stdout) == (code, out.encode()), (module, argv)
            assert b"Traceback" not in proc.stderr


def test_script_entry_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"gk2codes": "gk2codes.cli:_run"}


def test_main_leaves_the_collector_alone(capsys):
    # tests, the benchmark tracer and library callers run main() in a
    # process that goes on, so its heap must stay collectable
    before = gc.get_freeze_count()
    assert run_cli(capsys, "points", "--q", "2", "--n", "3")[0] == 0
    assert run_cli(capsys, "points", "--q", "2", "--n", "4")[0] == 1
    assert gc.get_freeze_count() == before


# Runs the module as `python -m gk2codes.cli` does, after registering an
# atexit handler: the handler must still run (no os._exit), after the stdout
# bytes, and find the heap frozen.
_EXIT_PROBE = (
    "import atexit, gc, runpy\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
    "runpy.run_module('gk2codes.cli', run_name='__main__')\n"
)


@pytest.mark.parametrize("argv", [
    ["semigroup", "--q", "2", "--n", "3", "--orbit", "O1"],
    ["semigroup", "--q", "2", "--n", "4", "--orbit", "O1"],  # usage error
    ["--help"],  # argparse leaves main() by SystemExit
], ids=["ok", "usage-error", "help"])
def test_process_entry_freezes_the_heap_before_atexit(capsys, argv):
    proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, *argv],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert proc.stdout.endswith("frozen True\n"), proc.stdout[-200:]
    if argv == ["--help"]:
        assert proc.returncode == 0 and proc.stdout.startswith("usage: gk2codes")
        return
    code, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out + "frozen True\n")


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
    # windows across that split: N = 224, so the noted rows start at l = 112
    ("quantum-table", 2, 3, "O1",
     {"regime": quantum.REGIME_HIGH_DEGREE, "lmin": 111, "lmax": 112}),
    ("quantum-table", 2, 3, "O1",
     {"regime": quantum.REGIME_HIGH_DEGREE, "lmin": 112, "lmax": 112}),
    ("quantum-table", 2, 3, "O1",
     {"regime": quantum.REGIME_HIGH_DEGREE, "lmin": 29, "lmax": 111}),
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
    assert run_cli(capsys, "verify", "--q", "2", "--n", "5")[0] == 0
    assert closed.count(seq) == 1


@pytest.mark.parametrize("q,n,o2_sieves", [(3, 5, 1), (4, 7, 1), (2, 5, 2)])
def test_verify_sieves_o2_once_outside_the_staircase(capsys, monkeypatch, q, n, o2_sieves):
    # the gap-family check hands verify the O2 semigroup it sieved; only the
    # staircase of a field within 2^11, (2, 5) here, sieves it again in
    # build_basis.  (3, 3) is left out: O1 and O2 have the same generators
    gens = gk2.o2_generators(curve_params(q, n))
    sieve = NumericalSemigroup.from_generators.__func__
    sieved = []

    def counted(cls, generators, *args, **kwargs):
        sieved.append(tuple(generators))
        return sieve(cls, generators, *args, **kwargs)

    monkeypatch.setattr(NumericalSemigroup, "from_generators", classmethod(counted))
    assert run_cli(capsys, "verify", "--q", str(q), "--n", str(n))[0] == 0
    assert sieved.count(gens) == o2_sieves


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
    # seven rows: a short last block for blocks of 2, 3 and 4096, exact for 1 and 7
    "seven": [[i, f'%d "{i}" \\ %% \u00e9' * i] for i in range(7)],
}


def _renderer_cases():
    for fmt in ("csv", "json", "md"):
        for name, rows in CELLS.items():
            for block in (1, 2, 3, 7, 4096):
                yield pytest.param(fmt, rows, block, id=f"{fmt}-{name}-{block}")


@pytest.mark.parametrize("fmt, rows, block", _renderer_cases())
def test_table_renderer_matches_former_renderer(monkeypatch, fmt, rows, block):
    monkeypatch.setattr(_table_writer, "_BLOCK_ROWS", block)
    headers, meta = ["k", "note %d"], {"command": "t", "q": 2, "note": "\u00e9"}
    cols = list(zip(*rows)) or [(), ()]
    text = [h for h, col in zip(headers, cols) if col and all(type(c) is str for c in col)]
    # one pass over each column: the writer gets iterators, not sequences
    runs = [(len(rows), [iter(col) for col in cols])]
    buf = io.StringIO()  # no binary layer: the writer decodes its bytes
    _table_writer._table(fmt, meta, headers, runs, text=text)(buf)
    assert buf.getvalue() == _render_table(fmt, meta, headers, rows)


# strs that exercise every cell rule: csv quoting, JSON escapes, Markdown as
# is, a "%" in a bytes template and a non-ASCII character to encode
_TEXT = st.text(alphabet='ab %sd",\r\n\\\u00e9\u20ac', max_size=5)
_INTS = st.integers(-2**70, 2**70)


@st.composite
def _runs_tables(draw):
    """headers, meta, text columns and runs of one table, and its rows expanded."""
    headers = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    text = [h for h in headers if draw(st.booleans())]
    meta = draw(st.dictionaries(_TEXT.filter(lambda k: k != "rows"), _TEXT | _INTS, max_size=2))
    runs, rows = [], []
    for count in draw(st.lists(st.integers(0, 9), max_size=4)):
        cells, columns = [], []
        for h in headers:
            values = _TEXT if h in text else _INTS
            if draw(st.booleans()):  # one cell constant over the run
                cell = draw(values)
                cells.append(cell)
                columns.append([cell] * count)
            else:
                cells.append(draw(st.lists(values, min_size=count, max_size=count)))
                columns.append(cells[-1])
        runs.append((count, cells))
        rows += zip(*columns)
    return headers, meta, text, runs, [list(r) for r in rows]


@settings(max_examples=40, deadline=None)
@given(_runs_tables())
def test_run_writer_matches_former_renderer(table):
    headers, meta, text, runs, rows = table
    for fmt in ("csv", "json", "md"):
        want = _render_table(fmt, meta, headers, rows).encode()
        for block in (1, 2, 3, 7, 4096):
            # one pass over each column: the writer gets iterators, not lists
            once = [(count, [c if isinstance(c, (int, str)) else iter(c) for c in cells])
                    for count, cells in runs]
            stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
            stream.write("before\n")  # still in the text layer when the writer starts
            with mock.patch.object(_table_writer, "_BLOCK_ROWS", block):
                _table_writer._table(fmt, meta, headers, once, text=text)(stream)
            stream.write("after\n")
            stream.flush()
            assert stream.buffer.getvalue() == b"before\n" + want + b"after\n", (fmt, block)


def _former_payload(fmt, payload):
    """The former payload renderer, csv through csv.writer: one string, kept as the oracle."""
    if fmt == "json":
        return json.dumps({"schema": 1, **payload}, indent=2) + "\n"
    flat = _render._flatten(payload)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([["key", "value"], *flat])
        return buf.getvalue()
    return "\n".join(f"- **{k}**: {v}" for k, v in flat) + "\n"


_SCALARS = st.none() | st.booleans() | _INTS | _TEXT
_PAYLOADS = st.dictionaries(_TEXT, st.recursive(
    _SCALARS | st.lists(_SCALARS, max_size=3),
    lambda values: st.dictionaries(_TEXT, values, max_size=3), max_leaves=6), max_size=4)


@settings(max_examples=60, deadline=None)
@given(_PAYLOADS)
def test_payload_writer_matches_former_renderer(payload):
    for fmt in ("csv", "json", "md"):
        want = _former_payload(fmt, payload)
        stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
        stream.write("before\n")  # still in the text layer when the writer starts
        _render._payload(fmt, payload)(stream)
        stream.write("after\n")
        stream.flush()
        assert stream.buffer.getvalue() == b"before\n" + want.encode() + b"after\n", fmt
        buf = io.StringIO()  # no binary layer
        _render._payload(fmt, payload)(buf)
        assert buf.getvalue() == want, fmt


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_payload_output_is_the_rendered_payload(capsys, tmp_path, fmt):
    argv = ["frobenius", "--q", "2", "--n", "5", "--format", fmt]
    payload = {"command": "frobenius", "q": 2, "n": 5, "gk2": 7, "gk1": 9, "isomorphic": False}
    want = _former_payload(fmt, payload)
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

    monkeypatch.setattr(quantum, "quantum_table", no_records)
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
    d_ord = fengrao.d_ord
    monkeypatch.setattr(fengrao, "d_ord", lambda *args: calls.append(args) or d_ord(*args))
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
        notes = refdata._notes(params, orbit, rows)
        assert notes == [_reference_note(printed.get(r.index), r.d_floor, r.s_min, r.s_max) or ""
                         for r in rows]
        assert rows == quantum.quantum_table(params, orbit_semigroup(params, orbit))


# the largest table job of the benchmark, 64 266 rows: its size and sha256 in
# each format (json's is the one recorded for it in perfbench/golden.json)
HIGH_DEGREE_ARGV = ["quantum-table", "--q", "2", "--n", "7", "--orbit", "O1",
                    "--regime", "high-degree"]
HIGH_DEGREE_SHA256 = {
    "json": "ecaaa4cee35e4135d6304e85aa9dbaf7d5eb708caa93a0f034e5fd403de5f108",
    "csv": "9b4d112426460bf1d772c7f28411b030903570b7d256e8acd746f851674ae3de",
    "md": "9ccbe5074dad380c2705bfd27b2045e53a1cd33834d0ca77292f17f2f43dcf4a",
}


def test_high_degree_table_golden_bytes(capsys):
    for fmt, sha in HIGH_DEGREE_SHA256.items():
        code, out, _ = run_cli(capsys, *HIGH_DEGREE_ARGV, "--format", fmt)
        assert code == 0 and (fmt != "json" or len(out) == 7875931), fmt
        assert hashlib.sha256(out.encode()).hexdigest() == sha, fmt


def test_unbuffered_process_writes_the_golden_bytes():
    # under PYTHONUNBUFFERED=1, as in the benchmark, stdout's binary layer is
    # a raw FileIO, whose writes to a pipe may be short
    out = subprocess.run(CLI + HIGH_DEGREE_ARGV, capture_output=True, env=_env(buffered=False))
    assert (out.returncode, out.stderr) == (0, b"")
    assert hashlib.sha256(out.stdout).hexdigest() == HIGH_DEGREE_SHA256["json"]


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


# q = 1000003 at n = 3: every sieve bound is past the largest index, so the
# first sieve allocation raises OverflowError
@pytest.mark.parametrize("argv", [
    "semigroup --q 1000003 --n 3 --orbit O1",
    "semigroup --q 1000003 --n 3 --orbit O2",
    "gaps --q 1000003 --n 3 --orbit O1",
    "fengrao-table --q 1000003 --n 3 --orbit O1",
    "quantum-table --q 1000003 --n 3 --orbit O1",
])
def test_sieve_past_the_index_range_is_a_one_line_usage_error(argv):
    out = subprocess.run(CLI + argv.split(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("usage error: ") and out.stderr.count("\n") == 1
    assert out.stdout == ""


def test_high_degree_table_needs_no_sieve(capsys):
    # the same (q, n) as above: the closed-form rows read no semigroup
    params = curve_params(1000003, 3)
    g, length = params.genus, params.rational_point_count - 1
    argv = ["quantum-table", "--q", "1000003", "--n", "3", "--orbit", "O1", "--regime",
            "high-degree", "--lmin", str(3 * g - 1), "--lmax", str(3 * g + 1), "--format", "csv"]
    want = "l,d_ord,s_min,s_max,discrepancy\n" + "".join(
        f"{l},{l + 1 - g},1,{length - 2 * l},\n" for l in range(3 * g - 1, 3 * g + 2))
    assert run_cli(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_high_degree_table_past_the_digit_limit_writes_nothing(tmp_path, fmt, to_file):
    # N at (4, 8001) has more digits than an int may convert to str, and so
    # has every l of the regime; the table fails before its header
    path = tmp_path / "never"
    out = subprocess.run(CLI + ["quantum-table", "--q", "4", "--n", "8001", "--orbit", "O1",
                                "--regime", "high-degree", "--format", fmt]
                         + (["-o", str(path)] if to_file else []),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("usage error: ") and out.stderr.count("\n") == 1
    assert "q=4, n=8001" in out.stderr and "set_int_max_str_digits" not in out.stderr
    assert not path.exists()


def test_memory_error_is_a_one_line_error(capsys, monkeypatch):
    def exhausted(args, params):
        raise MemoryError

    monkeypatch.setattr(_cmd_tables, "_cmd_semigroup", exhausted)
    assert run_cli(capsys, "semigroup", "--q", "2", "--n", "3", "--orbit", "O1") == (
        1, "", "error: out of memory\n")


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
