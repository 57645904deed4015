import json
import sys

import pytest

from plrs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- basic subcommands ---------------------------------------------------------

def test_seq(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "seq", "6")
    assert code == 0
    assert out.splitlines() == [
        "H_1 = 1", "H_2 = 2", "H_3 = 3", "H_4 = 5", "H_5 = 8", "H_6 = 13",
    ]


def test_seq_csv(capsys):
    code, out, _ = run(capsys, "--coeffs", "2,2,0,2", "--format", "csv", "seq", "7")
    assert code == 0
    assert out == "n,H\n1,1\n2,3\n3,9\n4,25\n5,70\n6,196\n7,550\n"


def test_blocks_table(capsys):
    code, out, _ = run(capsys, "--coeffs", "2,2,0,2", "blocks")
    assert code == 0
    assert "type-1 blocks: [2] [2 2] [2 2 0]" in out
    assert "type-2 blocks: [0] [1] [2 0] [2 1] [2 2 0 0] [2 2 0 1]" in out
    assert "0:1  1:1  2:2  3:2  4:4  5:4" in out


def test_decompose_table(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "decompose", "12")
    assert code == 0
    assert "indices: 5,3,1" in out
    assert "blocks: [1 0][1 0][1]" in out
    assert "summands: 3" in out


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "--coeffs", "2,2,0,2", "--format", "json", "decompose", "601")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "601"
    assert data["blocks"] == "[1][0][0][2 0][0][1]"
    assert data["summands"] == 4
    assert data["indices"] == [7, 4, 4, 1]


def test_validate_exit_codes(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "validate", "1 0 1")
    assert code == 0 and out.strip() == "legal"
    code, out, _ = run(capsys, "--coeffs", "1,1", "validate", "1 1")
    assert code == 1 and out.startswith("illegal")


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "csv", "enumerate", "3")
    assert code == 0
    assert out == "index,value,summands,coefficients\n0,3,1,1 0 0\n1,4,2,1 0 1\n"


def test_enumerate_cap_exceeded(capsys):
    code, _, err = run(capsys, "--coeffs", "1,1", "--cap", "5", "enumerate", "12")
    assert code == 2
    assert "cap" in err


def test_poly_formats(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "json", "poly", "4")
    assert code == 0 and out.strip() == '{"n": 4, "coeffs": ["0", "1", "2"]}'
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "csv", "poly", "4")
    assert code == 0 and out == "k,count\n0,0\n1,1\n2,2\n"


def test_stats_csv(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "csv", "stats", "4")
    assert code == 0
    assert out == (
        "n,cardinality,mean,variance,central3,central4\n"
        "4,3,5/3,2/9,-2/27,2/27\n"
    )


def test_zdist_csv(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "csv", "zdist", "5")
    assert code == 0 and out == "t,length,prob\n0,1,3/5\n1,2,2/5\n"


def test_zdist_skips_empirical_above_cap(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "--cap", "3", "zdist", "5")
    assert code == 0
    assert "skipped" in out


def test_identities(capsys):
    code, out, _ = run(capsys, "--coeffs", "2,2,0,2", "identities", "9")
    assert code == 0
    assert "all identities hold exactly" in out
    assert "false" not in out


def test_verify_table(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "verify", "--n-max", "60")
    assert code == 0
    assert "all variance bounds hold" in out
    assert "threshold N" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "--coeffs", "1,1", "--format", "json", "verify", "--n-max", "40"
    )
    assert code == 0
    data = json.loads(out)
    for key in (
        "a_est", "b_est", "threshold_N", "c", "c_source", "per_n", "gaussian",
        "convergence_gap", "slope_C_est", "all_pass",
    ):
        assert key in data
    assert data["all_pass"] is True
    # rationals ride as p/q strings
    assert "/" in data["per_n"][0]["mean"] or data["per_n"][0]["mean"].isdigit()


def test_gauss(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "csv", "gauss", "--n-list", "20,60")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,skewness,excess_kurtosis"
    assert len(lines) == 3


# -- determinism -----------------------------------------------------------------

def test_sample_deterministic_bytes(capsys):
    args = ("--coeffs", "1,1", "--format", "csv", "sample", "30", "--samples", "20", "--seed", "42")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(
        capsys, "--coeffs", "1,1", "--format", "csv", "sample", "30",
        "--samples", "20", "--seed", "43",
    )
    assert out3 != out1


def test_verify_json_deterministic(capsys):
    args = ("--coeffs", "1,2", "--format", "json", "verify", "--n-max", "40")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sample_requires_seed(capsys):
    code, _, err = run(capsys, "--coeffs", "1,1", "sample", "10", "--samples", "3")
    assert code == 2
    assert "seed" in err


# -- config file and environment ---------------------------------------------------

def test_config_file_supplies_everything(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {"coefficients": [1, 1], "subcommand": "stats", "n": 4, "format": "csv"}
        )
    )
    code, out, _ = run(capsys, "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1] == "4,3,5/3,2/9,-2/27,2/27"


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"coefficients": "1,1", "subcommand": "seq", "n": 3}))
    code, out, _ = run(capsys, "--config", str(cfg), "--coeffs", "2,2,0,2", "seq", "2")
    assert code == 0
    assert out.splitlines() == ["H_1 = 1", "H_2 = 3"]


def test_env_cap_respected(monkeypatch, capsys):
    monkeypatch.setenv("PLRS_ENUM_CAP", "5")
    code, _, err = run(capsys, "--coeffs", "1,1", "enumerate", "12")
    assert code == 2 and "cap" in err
    # explicit flag overrides the environment
    code, out, _ = run(capsys, "--coeffs", "1,1", "--cap", "500", "enumerate", "12")
    assert code == 0


# -- output file -----------------------------------------------------------------

def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "poly.csv"
    code, out, _ = run(
        capsys, "--coeffs", "1,1", "--format", "csv", "--output", str(target), "poly", "4"
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "k,count\n0,0\n1,1\n2,2\n"


# -- usage errors ----------------------------------------------------------------

def test_usage_errors(capsys):
    assert run(capsys, "--coeffs", "0,1", "seq", "5")[0] == 2  # bad spec
    assert run(capsys, "seq", "5")[0] == 2  # missing --coeffs
    assert run(capsys, "--coeffs", "1,1")[0] == 2  # no subcommand
    assert run(capsys, "--coeffs", "1,1", "seq")[0] == 2  # missing n
    assert run(capsys, "--coeffs", "1,1", "decompose", "0")[0] == 2  # bad value
    assert run(capsys, "--coeffs", "1,1", "--format", "yaml", "seq", "5")[0] == 2
    assert run(capsys, "--coeffs", "1,1", "zdist", "4")[0] == 2  # n <= 2L


@pytest.mark.parametrize(
    "data",
    [
        {"coefficients": "1,1", "subcommand": "seq", "n": "5"},
        {"coefficients": "1,1", "subcommand": "verify", "n_max": "60"},
        {"coefficients": "1,1", "subcommand": "seq", "n": True},
        {"coefficients": "1,1", "subcommand": "seq", "n": 5.0},
        {"coefficients": "1,1", "subcommand": "stats", "n": 4, "format": 1},
        {"coefficients": "1,1", "subcommand": ["seq"], "n": 5},
        {"coefficients": 11, "subcommand": "seq", "n": 5},
        {"coefficients": "1,1", "subcommand": "sample", "n": 5, "seed": "1"},
        {"coefficients": "1,1", "subcommand": "stats", "n": 4, "precision_bits": False},
    ],
    ids=[
        "n-string", "n_max-string", "n-bool", "n-float", "format-int",
        "subcommand-list", "coefficients-int", "seed-string", "precision-bool",
    ],
)
def test_config_type_errors_exit_2(tmp_path, capsys, data):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("plrs: error: config key ")
    assert len(err.splitlines()) == 1


@pytest.fixture
def default_int_digits():
    """CPython's default int<->str digit limit (3.11+), restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_values_past_the_int_digit_limit(default_int_digits, capsys):
    # H_n = 10^(100(n-1)) for the base-10^100 system; H_45 has 4,401 digits.
    code, out, err = run(capsys, "--coeffs", "1" + "0" * 100, "--format", "json", "seq", "45")
    assert code == 0, err
    assert json.loads(out)["terms"][-1] == "1" + "0" * 4400


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "verify", "--help")[0] == 0
