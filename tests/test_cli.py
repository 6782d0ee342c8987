import hashlib
import json
import subprocess
import sys
import time

import pytest

from gk2codes.cli import main


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
}


@pytest.mark.parametrize("q,n,orbit,l", sorted(MATRIX_SHA256))
def test_code_matrix_golden_bytes(capsys, q, n, orbit, l):
    code, out, _ = run_cli(
        capsys, "code-matrix", "--q", str(q), "--n", str(n), "--orbit", orbit, "--l", str(l)
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_SHA256[q, n, orbit, l]


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


def test_cli_imports_only_the_standard_library():
    # site hooks may preload third-party modules, so only new imports count
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gk2codes.cli\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(n for n in new\n"
        "                      if n not in sys.stdlib_module_names and n != 'gk2codes')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


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


def test_threads_env_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GK2_THREADS", "-2")
    assert run_cli(capsys, "frobenius", "--q", "2", "--n", "5")[0] == 1
    monkeypatch.setenv("GK2_THREADS", "2")
    assert run_cli(capsys, "frobenius", "--q", "2", "--n", "5")[0] == 0


def test_unwritable_output_is_a_one_line_error(tmp_path):
    target = tmp_path / "missing" / "x"
    out = subprocess.run(
        [sys.executable, "-m", "gk2codes.cli", "semigroup", "--q", "2", "--n", "3",
         "--orbit", "O1", "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert out.stdout == ""


def test_console_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "gk2codes.cli", "points", "--q", "2", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["count"] == 225
