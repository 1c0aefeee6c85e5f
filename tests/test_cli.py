import json
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1]


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "ktasep.cli", *args],
        capture_output=True,
        text=True,
        cwd=PKG,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("params") / "p.json"
    p.write_text(
        json.dumps({"x": ["1/5", "1/4"], "pi": ["1/2", "1/3", "1/7", "1/5"]})
    )
    return str(p)


def test_kernel_single_value(params_file):
    proc = run_cli(
        "kernel", "--case", "A", "--n", "1", "--mu", "[]", "--lambda", "[1]",
        "--params", params_file, "--ell", "3",
    )
    out = json.loads(proc.stdout)
    # pi1 x1 prod_j (1 - pi_j x1) = 51/625
    assert out["payload"]["prob"] == {"num": "51", "den": "625"}
    assert out["conventions"].startswith("alpha_by_column")


def test_kernel_table_with_tail(params_file):
    proc = run_cli(
        "kernel", "--case", "C", "--n", "2", "--mu", "[1,1]",
        "--params", params_file, "--cap", "3", "--ell", "3",
    )
    out = json.loads(proc.stdout)
    assert out["payload"]["tail_bound"]["num"] != "0"
    assert len(out["payload"]["table"]) > 5


def test_usage_error_exit_code(params_file):
    proc = run_cli(
        "kernel", "--case", "A", "--n", "1", "--mu", "[1,2]", "--lambda", "[1]",
        "--params", params_file, check=False,
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "usage"


def test_unknown_case_is_usage_error(params_file):
    proc = run_cli(
        "kernel", "--case", "Z", "--n", "1", "--mu", "[]", "--lambda", "[1]",
        "--params", params_file, check=False,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {"error": "usage", "message": "unknown case 'Z'"}


def test_constraint_error_exit_code(tmp_path, params_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x": ["3"], "pi": ["1/2", "1/2", "1/2", "1/2"]}))
    proc = run_cli(
        "kernel", "--case", "A", "--n", "1", "--mu", "[]", "--lambda", "[1]",
        "--params", str(bad), check=False,
    )
    assert proc.returncode == 2


def test_zero_rate_operator_route_is_usage_error(tmp_path):
    # a zero rate is admissible (the particle is frozen), but the operator
    # route reads 1/pi_2: that is no constraint violation, so not exit 2
    params = tmp_path / "zero_rate.json"
    params.write_text(json.dumps({"x": ["1/10", "1/12"], "rho": ["1/2", "0", "1/3"]}))
    proc = run_cli(
        "kernel", "--case", "D", "--n", "2", "--mu", "[]", "--lambda", "[1]", "--ell", "3",
        "--route", "operator", "--params", str(params), check=False,
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "usage" and "pi_2" in err["message"]


def test_op_word(params_file):
    proc = run_cli("op", "--word", "U2 U1 U1", "--start", "[1,1]")
    out = json.loads(proc.stdout)
    partitions = [tuple(t["partition"]) for t in out["payload"]["terms"]]
    assert (3, 2) in partitions and (1, 1) in partitions


def test_tableaux_listing():
    proc = run_cli("tableaux", "--family", "g", "--shape", "[2,1]", "--n", "2", "--count")
    out = json.loads(proc.stdout)
    assert out["payload"]["count"] == 5


@pytest.mark.parametrize("family", ["g", "j", "G", "Gds"])
def test_tableaux_list_matches_count(family):
    proc = run_cli(
        "tableaux", "--family", family, "--shape", "[2,1]", "--n", "2", "--list", "--count"
    )
    payload = json.loads(proc.stdout)["payload"]
    assert len(payload["tableaux"]) == payload["count"]
    if family == "g":
        assert payload["count"] == 5
        assert all(len(filling) == 3 for filling in payload["tableaux"])


@pytest.mark.parametrize(
    "family,shape,flag",
    [
        pytest.param("g", "[5,4,4]", "--list", id="g-[5,4,4]"),
        pytest.param("flagged", "[2,1]", "--list", id="flagged-[2,1]"),
        # count_tableaux has no flagged family; the count must be refused,
        # not taken from another family
        pytest.param("flagged", "[2,1]", "--count", id="flagged-[2,1]-count"),
    ],
)
def test_tableaux_list_usage_errors(family, shape, flag):
    proc = run_cli(
        "tableaux", "--family", family, "--shape", shape, "--n", "2", flag, check=False
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "usage"


def test_tableaux_parser_declares_list(capsys):
    from ktasep import cli

    base = ["tableaux", "--family", "g", "--shape", "[2,1]", "--n", "2"]
    assert cli.build_parser().parse_args(base).list is False
    assert cli.build_parser().parse_args(base + ["--list"]).list is True
    # no `tableaux` key unless --list is given
    assert cli.main(base + ["--count"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert set(payload) == {"family", "outer", "inner", "terms", "count"}


def test_sample_csv(tmp_path):
    out = tmp_path / "traj.csv"
    run_cli(
        "sample", "--case", "A", "--ell", "5", "--n", "4", "--seed", "42",
        "--x", "0.3", "--rate", "0.9", "--out", str(out),
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,p1,p2,p3,p4,p5"
    assert len(lines) == 6
    run_cli(
        "sample", "--continuous", "--ell", "3", "--t", "2.5", "--seed", "1",
        "--out", str(out),
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,p1,p2,p3"
    assert len(lines) == 2 and lines[1].startswith("2.5,")


def test_validate_smoke_exit_zero():
    proc = run_cli("validate", "--grid", "smoke")
    out = json.loads(proc.stdout)
    assert out["payload"]["failures"] == []


def test_multipoint_cli(params_file):
    proc = run_cli(
        "multipoint", "--case", "C", "--dir", "ge", "--thresholds", "[2,1]",
        "--start", "[]", "--n", "2", "--ell", "2", "--params", params_file,
    )
    out = json.loads(proc.stdout)
    assert 0 <= out["payload"]["value_float"] <= 1


MP_C = ["--case", "C", "--dir", "ge"]


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param(MP_C + ["--contour", "3"], id="contour-without-r"),
        pytest.param(MP_C + ["--contour", "r=abc"], id="contour-bad-radius"),
        pytest.param(MP_C + ["--contour", "r=3,q=0"], id="contour-zero-points"),
        pytest.param(MP_C + ["--contour", "r=3,s=8"], id="contour-unknown-field"),
        pytest.param(["--case", "A", "--dir", "le", "--contour", "r=3"], id="contour-case-A"),
        pytest.param(["--case", "B", "--dir", "ge", "--contour", "r=3"], id="contour-case-B"),
        pytest.param(["--case", "D", "--dir", "le", "--contour", "r=3"], id="contour-case-D"),
        pytest.param(["--case", "CanonicalC", "--dir", "ge", "--contour", "r=3"],
                     id="contour-case-CanonicalC"),
        pytest.param(MP_C + ["--mode", "residue"], id="mode-without-contour"),
        pytest.param(["--case", "Z", "--dir", "ge"], id="unknown-case"),
        pytest.param(["--case", "CanonicalB", "--dir", "ge"], id="case-CanonicalB"),
        pytest.param(["--case", "A", "--dir", "ge"], id="dir-contradicts-case"),
    ],
)
def test_multipoint_usage_errors(params_file, extra):
    proc = run_cli(
        "multipoint", *extra, "--thresholds", "[2,1]", "--start", "[]", "--n", "2",
        "--ell", "2", "--params", params_file, check=False,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "usage"


def test_multipoint_contour_defaults_to_residue(params_file):
    base = ["multipoint", *MP_C, "--thresholds", "[2,1]", "--start", "[]", "--n", "2",
            "--ell", "2", "--params", params_file]
    series = json.loads(run_cli(*base).stdout)["payload"]
    residue = json.loads(run_cli(*base, "--contour", "r=3").stdout)["payload"]
    assert residue["error_bound"] == 0.0
    assert abs(residue["value_float"] - series["value_float"]) <= series["error_bound"] + 1e-12


@pytest.mark.parametrize("case,direction", [("A", "le"), ("C", "ge"), ("CanonicalC", "ge")])
def test_multipoint_checks_admissibility(tmp_path, case, direction):
    # pi_1 x_1 = 1: the geometric weights do not sum
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x": ["2"], "pi": ["1/2", "1/3", "1/7"]}))
    proc = run_cli(
        "multipoint", "--case", case, "--dir", direction, "--thresholds", "[2,1]",
        "--start", "[]", "--n", "1", "--ell", "3", "--params", str(bad), check=False,
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "constraint" and "pi_1*x_1" in err["message"]


ALPHA = '{"form": "constant", "value": "1/10"}'


@pytest.mark.parametrize(
    "extra,code",
    [
        pytest.param(["--case", "CanonicalC", "--alpha", ALPHA], 0, id="alpha-CanonicalC"),
        # sample has no way to set beta: CanonicalB would silently run case B
        pytest.param(["--case", "CanonicalB"], 1, id="CanonicalB"),
        pytest.param(["--case", "C", "--alpha", ALPHA], 1, id="alpha-case-C"),
        pytest.param(["--continuous", "--t", "1", "--alpha", ALPHA], 1, id="alpha-continuous"),
    ],
)
def test_sample_inputs_it_cannot_read(extra, code):
    proc = run_cli("sample", "--ell", "3", "--n", "2", "--seed", "1", *extra, check=False)
    assert proc.returncode == code
    if code:
        assert json.loads(proc.stderr)["error"] == "usage"


def test_version_prints_convention_fingerprint():
    proc = run_cli("--version", check=False)
    assert "alpha_by_column+geometric_descending" in proc.stdout


PINNED = [
    ["kernel", "--case", "A", "--n", "1", "--mu", "[]", "--lambda", "[1]", "--ell", "3"],
    ["kernel", "--case", "B", "--n", "1", "--mu", "[1,1]", "--lambda", "[2,1]", "--ell", "3"],
    ["kernel", "--case", "C", "--n", "2", "--mu", "[1]", "--cap", "3", "--ell", "3"],
    ["kernel", "--case", "D", "--n", "2", "--mu", "[]", "--cap", "3", "--ell", "3"],
    ["multipoint", "--case", "C", "--dir", "ge", "--thresholds", "[1,1]", "--start", "[]", "--n", "1", "--ell", "2"],
    ["multipoint", "--case", "A", "--dir", "le", "--thresholds", "[2,1]", "--start", "[]", "--n", "1", "--ell", "2"],
    ["op", "--word", "U2 U1 U1", "--start", "[1,1]"],
    ["op", "--word", "u1", "--start", "[]", "--cap", "4"],
    ["tableaux", "--family", "g", "--shape", "[2,1]", "--n", "2"],
    ["sample", "--case", "A", "--ell", "4", "--n", "3", "--seed", "42"],
]


def needs_params(cmd):
    return cmd[0] in ("kernel", "multipoint")


def test_pinned_commands_byte_stable(params_file):
    # fixed seed => byte-identical output across runs and thread counts
    for cmd in PINNED:
        full = list(cmd) + (["--params", params_file] if needs_params(cmd) else [])
        out1 = run_cli(*full).stdout
        out2 = run_cli(*full).stdout
        out3 = run_cli("--threads", "8", *full).stdout
        assert out1 == out2 == out3, cmd
