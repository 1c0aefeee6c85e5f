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


def test_short_rate_list_is_constraint_error(tmp_path):
    # three particles and one rate: a failed constraint check (exit 2),
    # not particles 2 and 3 frozen at rate 0
    params = tmp_path / "short.json"
    params.write_text(json.dumps({"x": ["1/10"], "pi": ["1/2"]}))
    proc = run_cli(
        "kernel", "--case", "A", "--n", "1", "--mu", "[]", "--ell", "3", "--cap", "3",
        "--params", str(params), check=False,
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "constraint" and "pi_2 missing" in err["message"]


@pytest.mark.parametrize("beta,message", [("10", "beta_1*x_1 = 2 > 1"),
                                          ("-1", "beta_1+rho_3 = -6/7 < 0")],
                         ids=["beta_x_above_1", "beta_plus_rho_below_0"])
def test_canonical_b_beta_outside_its_rule_is_constraint_error(tmp_path, beta, message):
    # CanonicalB's jump succeeds with (rho_j + beta_k) x / (1 + rho_j x):
    # beta_k x > 1 or beta_k + rho_j < 0 leaves [0, 1], and the table
    # printed negative "probabilities" (-75/88) with exit 0
    params = tmp_path / "beta.json"
    params.write_text(json.dumps({"x": ["1/5"], "pi": ["1/2", "1/3", "1/7"],
                                  "beta": ["0"] + [beta] * 5}))
    proc = run_cli(
        "kernel", "--case", "CanonicalB", "--n", "1", "--mu", "[1]", "--ell", "3", "--cap", "3",
        "--params", str(params), check=False,
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err == {"error": "constraint", "message": message}


def test_negative_continuous_rate_is_constraint_error():
    # a clock rate below 0 fails the constraint check (exit 2); before,
    # the run printed positions as if particle 1 had rung twice
    proc = run_cli("sample", "--continuous", "--ell", "3", "--t", "2", "--rate", "-1",
                   check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "constraint" and "pi_1 = -1.0" in err["message"]


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
        # the count is the listing's length, under the same 12-cell limit
        pytest.param("g", "[5,4,4]", "--count", id="g-[5,4,4]-count"),
        pytest.param("flagged", "[2,1]", "--list", id="flagged-[2,1]"),
        # flagged tableaux have no listing; the count must be refused, not
        # taken from another family
        pytest.param("flagged", "[2,1]", "--count", id="flagged-[2,1]-count"),
    ],
)
def test_tableaux_list_usage_errors(family, shape, flag):
    proc = run_cli(
        "tableaux", "--family", family, "--shape", shape, "--n", "2", flag, check=False
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "usage"


def test_tableaux_listing_refused_past_its_bound(monkeypatch, capsys):
    # each row of four cells is weakly increasing in 1..6, C(9, 4) = 126
    # ways, so up to 126^3 = 2,000,376 reverse plane partitions fill [4,4,4]:
    # refused before the generating function and the enumeration (38 s)
    from ktasep import cli

    monkeypatch.setattr(cli.tab, "gen_g", lambda *args: pytest.fail("generating function run"))
    argv = ["tableaux", "--family", "g", "--shape", "[4,4,4]", "--n", "6", "--count"]
    assert cli.main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "2,000,376" in err["message"]


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


def test_continuous_sample_too_large_is_usage_error():
    # 1e13 expected rings would need a 73 TiB first block, and rates whose
    # sum passes the largest float expect more than any bound: both are
    # refused up front
    for args in (["--ell", "1", "--t", "1e13"], ["--ell", "2", "--t", "1", "--rate", "1e308"]):
        proc = run_cli("sample", "--continuous", *args, check=False)
        assert proc.returncode == 1, args
        err = json.loads(proc.stderr)
        assert err["error"] == "usage" and "rings expected" in err["message"], args


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


def _parse_int(text):
    """int(text) for a digit string of any length: ``int`` refuses more
    digits than ``sys.get_int_max_str_digits()``, as ``str`` does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_writes_ints_past_the_digit_limit():
    # low chunks with leading zeros, signs, and ints at and past the limit
    from ktasep.cli import _decimal

    for n in (0, 7, -7, 10**4299 - 1, 10**4300, 10**5000 + 7, -(10**9000) - 10**4300, 3**20000):
        assert _parse_int(_decimal(n)) == n


def test_multipoint_prints_values_past_the_digit_limit(tmp_path):
    # at trunc 1000 the series value's denominator has 4482 digits, more
    # than str() writes by default (4300): it is printed, not reported as a
    # usage error
    from fractions import Fraction

    from ktasep import multipoint as mpmod
    from ktasep.cli import load_params
    from ktasep.kernels import CaseId
    from ktasep.partitions import Partition

    p = tmp_path / "p.json"
    p.write_text(json.dumps({"x": ["1/10"], "pi": ["1/2", "1/3", "1/5"]}))
    proc = run_cli("multipoint", "--case", "C", "--dir", "ge", "--thresholds", "[2,1]",
                   "--start", "[]", "--n", "1", "--ell", "3", "--trunc", "1000",
                   "--params", str(p))
    value = json.loads(proc.stdout)["payload"]["value"]
    q = mpmod.MultiPointQuery(CaseId.C, "ge", 1, Partition([2, 1]), Partition([]), 3,
                              load_params(str(p), 1))
    exact, _ = mpmod.mp_value(q, None, trunc=1000)
    assert len(value["den"]) > 4300
    assert Fraction(_parse_int(value["num"]), _parse_int(value["den"])) == exact


MP_C = ["--case", "C", "--dir", "ge"]


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param(MP_C + ["--contour", "3"], id="contour-without-r"),
        pytest.param(MP_C + ["--contour", "r=abc"], id="contour-bad-radius"),
        pytest.param(MP_C + ["--contour", "r=3,q=0"], id="contour-zero-points"),
        pytest.param(MP_C + ["--contour", "r=3,q=16384", "--mode", "quadrature"],
                     id="contour-points-at-cap"),
        pytest.param(MP_C + ["--contour", "r=3,s=8"], id="contour-unknown-field"),
        pytest.param(["--case", "A", "--dir", "le", "--contour", "r=3"], id="contour-case-A"),
        pytest.param(["--case", "B", "--dir", "ge", "--contour", "r=3"], id="contour-case-B"),
        pytest.param(["--case", "D", "--dir", "le", "--contour", "r=3"], id="contour-case-D"),
        pytest.param(["--case", "CanonicalC", "--dir", "ge", "--contour", "r=3"],
                     id="contour-case-CanonicalC"),
        pytest.param(MP_C + ["--mode", "residue"], id="mode-without-contour"),
        # there is no series contour mode: r = 9999 violates the pole
        # separation (1/2, 10), which the series never checked
        pytest.param(MP_C + ["--contour", "r=9999", "--mode", "series"], id="contour-mode-series"),
        # the series' index cap lies in [0, MAX_TRUNC]; a huge one is
        # refused before any prefix is allocated
        pytest.param(MP_C + ["--trunc", "-1"], id="trunc-negative"),
        pytest.param(MP_C + ["--trunc", str(10**18)], id="trunc-huge"),
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


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["kernel", "--case", "A", "--n", "1", "--mu", "[]", "--route", "bogus"],
                     id="kernel-unknown-route"),
        pytest.param(["kernel", "--case", "A", "--n", "x", "--mu", "[]"], id="kernel-n-not-int"),
        pytest.param(["kernel", "--case", "A", "--n", "1"], id="kernel-missing-mu"),
        pytest.param(["multipoint", *MP_C, "--thresholds", "[2,1]", "--start", "[]", "--n", "2",
                      "--ell", "2", "--contour", "r=3", "--mode", "series"],
                     id="multipoint-contour-mode-series"),
    ],
)
def test_malformed_arguments_are_json_usage_errors(params_file, args):
    # argparse's plain usage text used to break the JSON error contract
    proc = run_cli(*args, "--params", params_file, check=False)
    assert proc.returncode == 1 and not proc.stdout
    assert json.loads(proc.stderr)["error"] == "usage"


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["kernel", "--case", "A", "--n", "-1", "--mu", "[]", "--ell", "3"], id="kernel-n"),
        pytest.param(["kernel", "--case", "A", "--n", "1", "--mu", "[]", "--ell", "-1"],
                     id="kernel-ell"),
        pytest.param(["multipoint", "--case", "A", "--dir", "le", "--thresholds", "[2,1]",
                      "--start", "[]", "--n", "-1", "--ell", "2"], id="multipoint-n"),
        pytest.param(["sample", "--case", "C", "--ell", "2", "--n", "-3"], id="sample-n"),
    ],
)
def test_negative_sizes_are_usage_errors(params_file, args, capsys):
    # these printed 1, {[]: 1}, an empty table with tail bound 1, and a
    # sample without its start row
    from ktasep.cli import main

    params = ["--params", params_file] if args[0] != "sample" else []
    assert main([*args, *params]) == 1
    out, err = capsys.readouterr()
    assert not out and json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--case", "C", "--dir", "ge"], id="series"),
        pytest.param(["--case", "A", "--dir", "le"], id="pushing"),
        pytest.param(["--case", "C", "--dir", "ge", "--contour", "r=1"], id="contour"),
    ],
)
def test_multipoint_without_particles_is_one(params_file, args, capsys):
    # the series raised IndexError and the pushing form a usage error
    from ktasep.cli import main

    assert main(["multipoint", *args, "--thresholds", "[2,1]", "--start", "[]", "--n", "2",
                 "--ell", "0", "--params", params_file]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["value"] == {"num": "1", "den": "1"} and payload["error_bound"] == 0.0


def test_multipoint_pushing_start_past_ell_is_usage_error(params_file, capsys):
    from ktasep.cli import main

    assert main(["multipoint", "--case", "A", "--dir", "le", "--thresholds", "[1]", "--start",
                 "[1,1]", "--n", "1", "--ell", "1", "--params", params_file]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "start row 2 = 1 lies past ell = 1" in err["message"]


def test_help_exits_zero():
    proc = run_cli("multipoint", "--help")
    assert "--contour" in proc.stdout and not proc.stderr


def test_multipoint_contour_defaults_to_residue(params_file):
    base = ["multipoint", *MP_C, "--thresholds", "[2,1]", "--start", "[]", "--n", "2",
            "--ell", "2", "--params", params_file]
    series = json.loads(run_cli(*base).stdout)["payload"]
    residue = json.loads(run_cli(*base, "--contour", "r=3").stdout)["payload"]
    assert residue["error_bound"] == 0.0
    assert abs(residue["value_float"] - series["value_float"]) <= series["error_bound"] + 1e-12


def test_unconverged_contour_quadrature_is_usage_error(tmp_path):
    # r = 9999/1000 lies inside the admissible (1/2, 10), so near the x pole
    # at 10 that the trapezoidal rule has not converged at the point cap.
    # This printed 0.000154... (the residue value is 0.000124...) with error
    # bound 1e-12 and exit 0
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"x": ["1/10", "1/12"], "pi": ["1/2", "1/3", "1/5"]}))
    base = ["multipoint", *MP_C, "--thresholds", "[2,1]", "--start", "[]", "--n", "2",
            "--ell", "3", "--params", str(params), "--contour", "r=9999/1000"]
    proc = run_cli(*base, "--mode", "quadrature", check=False)
    assert proc.returncode == 1 and not proc.stdout
    err = json.loads(proc.stderr)
    assert err["error"] == "usage"
    assert "not converged" in err["message"] and "MAX_QUADRATURE_POINTS (16384)" in err["message"]
    residue = json.loads(run_cli(*base).stdout)["payload"]
    assert residue["error_bound"] == 0.0 and abs(residue["value_float"] - 0.00012442) < 1e-8


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
