import json
import math
import os
import subprocess
import sys

import pytest

import plusforms
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


@pytest.mark.parametrize("k", ["5/2", "7/2"])
def test_kernel_check_empty_cusp_space_prints_empty_table(k):
    code, text = run_cli(["kernel-check", "--k", k])
    assert code == 0
    assert text == f"# check=kernel-spectral-vs-group-sum; k={k}\nempty\n"


@pytest.mark.parametrize("z", ["0.3-2i", "0.3"])
def test_counts_rejects_point_off_upper_half_plane(z):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--z", z, "--L", "4"])
    assert str(exc.value.code).startswith("usage error: z must lie in the upper half-plane")
    assert run_cli(["counts", "--z", z, "--L", "4"]) == (1, "")


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


@pytest.mark.parametrize("command", ["supnorm", "amplify"])
def test_default_precision_covers_weight_49_2(command):
    """At 49/2, 900 coefficients leave the Fricke and V frames one term short
    of the guard at y = sqrt(3)/8; the default precision covers all four
    forms."""
    code, text = run_cli([command, "--k", "49/2", "--format", "json"])
    assert code == 0
    assert {row["form"] for row in json.loads(text)["rows"]} == set(range(4))


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


def test_kz_takes_negative_discriminants_after_a_space():
    """At 19/2 the discriminants are negative: a comma list that starts with
    a minus sign parses after a space as after '=', one row per D."""
    args = ["kz", "--k", "19/2", "--primes", "20000"]
    code, text = run_cli(args + ["--D", "-3,-4,-7,-8"])
    assert code == 0
    rows = text.splitlines()[2:]
    assert [row.split(",")[1] for row in rows] == ["-3", "-4", "-7", "-8"]
    assert run_cli(args + ["--D=-3,-4,-7,-8"]) == (0, text)


def test_kz_builds_the_plus_rows_once_to_the_largest_discriminant(monkeypatch):
    """At 19/2 every D is negative: the plus-space rows are built once, to
    max |D| + 1, not once more per D as each fhat(|D|) is read.  The rows of
    the generator spaces they are built from have weights of their own and
    are not counted."""
    from plusforms import qexp

    builds = []
    build = qexp._FormRows._build_rows

    def spy(rows, frame, prec):
        if rows.r == 19:
            builds.append(prec)
        return build(rows, frame, prec)

    monkeypatch.setattr(qexp._FormRows, "_build_rows", spy)
    qexp._spaces.cache_clear()
    code, _ = run_cli(["kz", "--k", "19/2", "--D", "-1003,-1007,-1011", "--primes", "20000"])
    assert code == 0
    assert [prec for prec in builds if prec > 700] == [1012]


@pytest.mark.parametrize("args", [
    ["basis", "--k", "13/2", "--tol", "0.5"],
    ["eigen", "--k", "13/2", "--tol", "0.5"],
    ["shimura-check", "--k", "13/2", "--tol", "0.5"],
    ["supnorm", "--k", "13/2", "--tol", "0.5"],
    ["amplify", "--k", "13/2", "--tol", "0.5"],
    ["counts", "--tol", "123"],
    ["counts", "--prec", "7"],
    ["scaling", "--k-range", "13/2:17/2", "--tol", "9"],
    ["scaling", "--k-range", "13/2:17/2", "--prec", "5"],
])
def test_flags_a_command_does_not_read_are_usage_errors(args):
    assert run_cli(args) == (2, "")


@pytest.mark.parametrize("args, code", [
    (["kz", "--k", "13/2", "--D", "1", "--primes", "20000", "--tol", "1e-2"], 0),
    (["kz", "--k", "13/2", "--D", "1,17", "--primes", "20000", "--tol", "1e-300"], 1),
    (["kernel-check", "--k", "13/2", "--prec", "200", "--tol", "1e-2"], 0),
    (["kernel-check", "--k", "13/2", "--prec", "200", "--tol", "1e-12"], 1),
    (["kernel-check", "--k", "13/2", "--prec", "200", "--tol", "0"], 1),
])
def test_tol_is_read_by_kz_and_kernel_check(args, code):
    """--tol 0 is a tolerance of 0, not the default; D = 1 alone agrees
    exactly at 13/2, so the 1e-300 case also reads D = 17."""
    assert run_cli(args)[0] == code


def test_kernel_check_at_49_2():
    """The 'full S' Gram matrix at 49/2 has scaled condition number about
    1e15, so the kernel identity there reads the rounding of the Parseval
    strips: it holds to 1e-4 (to 2e-4 with the strips by quadrature up to
    y = 64)."""
    code, text = run_cli(["kernel-check", "--k", "49/2"])
    assert code == 0
    rel = [float(line.rsplit(",", 1)[1]) for line in text.splitlines()[2:]]
    assert len(rel) == 5 and max(rel) < 1e-4


def test_kz_rejects_discriminant_of_wrong_sign(capsys):
    """At 13/2 the identity holds for D > 0 only: D = -4 is a named failure,
    not a skipped row."""
    code, _ = run_cli(["kz", "--k", "13/2", "--D", "-4"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED check: kz: ValueError: discriminant sign must satisfy")


def test_kz_rejects_prime_limit_below_2(capsys):
    """--primes 1 leaves the Euler product no prime and its tail estimate a
    division by log 1 = 0: a named failure."""
    code, _ = run_cli(["kz", "--k", "13/2", "--D", "1", "--primes", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED check: kz: ValueError: prime_limit must be at least 2")


def test_counts_rejects_non_finite_delta(capsys):
    """A NaN in the delta grid is a named failure of the enumerator."""
    code, _ = run_cli(["counts", "--z", "0.3+2i", "--L", "4", "--delta-grid", "nan"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED check: counts: ValueError: z, w and delta must be finite")


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "plusforms.cli", "basis", "--k", "5/2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy alone would double the
    # cold-start time of every command
    src = os.path.dirname(os.path.dirname(os.path.abspath(plusforms.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, plusforms, plusforms.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("args, name", [
    (["basis", "--k", "13/2", "--format", "json"], "basis_13_2.json"),
    (["eigen", "--k", "13/2"], "eigen_13_2.txt"),
    (["eigen", "--k", "61/2"], "eigen_61_2.txt"),
    (["shimura-check", "--k", "13/2", "--D-max", "24", "--n-max", "30"], "shimura_check_13_2.txt"),
    (["kz", "--k", "13/2", "--D", "1,5,8,12,13,17"], "kz_13_2.txt"),
    (["supnorm", "--k", "13/2"], "supnorm_13_2.txt"),
    (["counts", "--z", "0.3+2i", "--L", "81", "--delta-grid", "0.1,1,10"], "counts_L81.txt"),
    (["kernel-check", "--k", "13/2"], "kernel_check_13_2.txt"),
    (["amplify", "--k", "13/2", "--Lambda", "3"], "amplify_13_2.txt"),
])
def test_readme_commands_match_golden_output(args, name):
    """README commands print exactly the bytes recorded in tests/golden."""
    code, text = run_cli(args)
    assert code == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        assert text == fh.read()
