import json
import math
import subprocess
import sys

from plusforms.cli import main


def run_cli(args):
    from io import StringIO

    buf = StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_basis_empty_space_exits_zero(tmp_path):
    out = tmp_path / "basis.json"
    code, _ = run_cli(["basis", "--k", "5/2", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rows"] == []
    assert payload["meta"]["dim"] == 0


def test_basis_csv_13_2():
    code, text = run_cli(["basis", "--k", "13/2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[1] == "form,index,numerator,denominator"
    assert "0,1,1,1" in lines and "0,4,-56,1" in lines


def test_invalid_weight_usage_error():
    code, _ = run_cli(["basis", "--k", "3/2"])
    assert code != 0
    code, _ = run_cli(["basis", "--k", "7/3"])
    assert code != 0


def test_uncaught_error_is_named_check(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise NotImplementedError("injected failure")

    monkeypatch.setattr("plusforms.cli.eigenbasis_plus", broken)
    code, _ = run_cli(["eigen", "--k", "13/2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED check: eigen: NotImplementedError: ")
    assert "Traceback" not in err


def test_counts_table():
    code, text = run_cli(["counts", "--z", "i", "--L", "9", "--delta-grid", "0.5,2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[1].split(",") == ["y", "l", "delta", "M", "Mstar", "Mu", "Mp"]
    assert len(lines) == 2 + 6  # squares l in {1, 4, 9}, two deltas each
    # l = 1, delta = 0.5 row: six parabolic-class matrices at z = i
    assert lines[2].split(",")[:4] == ["1", "1", "0.5", "6"]


def test_deterministic_output():
    code1, text1 = run_cli(["counts", "--z", "i", "--L", "25", "--delta-grid", "1"])
    code2, text2 = run_cli(["counts", "--z", "i", "--L", "25", "--delta-grid", "1"])
    assert code1 == code2 == 0 and text1 == text2


def test_eigen_json():
    code, text = run_cli(["eigen", "--k", "13/2", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    row = payload["rows"][0]
    assert row["partner_w"] == 12
    assert row["eigenvalues"]["9"] == "252"
    assert row["charpoly"] == ["-252", "1"]


def test_eigen_cubic_weight():
    from plusforms.hecke import hecke_matrix_level1
    from plusforms.linalg import charpoly_exact

    code, text = run_cli(["eigen", "--k", "37/2", "--format", "json"])
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 3
    cp = [str(c) for c in charpoly_exact(hecke_matrix_level1(36, 3))]
    assert all(row["charpoly"] == cp for row in rows)


def test_shimura_check_cmd():
    code, text = run_cli(["shimura-check", "--k", "13/2", "--D-max", "8", "--n-max", "6"])
    assert code == 0
    assert "True" in text


def test_kernel_check_cmd():
    code, text = run_cli(["kernel-check", "--k", "13/2", "--prec", "200", "--format", "json"])
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 5
    assert all(r["rel_err"] < 1e-3 for r in rows)


def test_supnorm_cmd():
    code, text = run_cli(["supnorm", "--k", "13/2", "--format", "json"])
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 1
    row = rows[0]
    assert row["frame"] in ("I", "W4", "V4")
    assert math.sqrt(3.0) / 8.0 <= row["y"] <= 12.0 * 6.5 / math.pi
    assert math.isfinite(row["log_sup"])


def test_amplify_cmd():
    code, text = run_cli(["amplify", "--k", "13/2", "--Lambda", "3", "--format", "json"])
    assert code == 0
    rows = json.loads(text)["rows"]
    assert [r["kind"] for r in rows] == ["M1", "M2"]
    # each row is ok: the literal amplified inequality at the scan's argmax
    assert all(r["lhs"] <= r["rhs"] * (1.0 + 1e-6) for r in rows)


def test_scaling_cmd():
    code, text = run_cli(["scaling", "--k-range", "13/2:21/2"])
    assert code == 0
    assert "slope" in text


def test_kz_cmd_small():
    code, text = run_cli(["kz", "--k", "13/2", "--D", "1,5", "--primes", "20000"])
    assert code == 0
    lines = text.splitlines()
    assert lines[1].split(",") == [
        "k", "D", "L_central", "L_err", "sym2", "norm_F", "norm_f", "kz_discrepancy"
    ]
    assert len(lines) == 4


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "plusforms.cli", "basis", "--k", "5/2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
