import contextlib
import hashlib
import io
import json
import sys

import pytest

from plrs import SummandTable, validate_spec, verify_variance_bound
from plrs.cli import MAX_PRECISION_BITS, RunConfig, main


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


@pytest.mark.parametrize("text", ["", "  "])
def test_validate_empty_string_has_no_position(capsys, text):
    code, out, _ = run(capsys, "--coeffs", "1,1", "validate", text)
    assert (code, out) == (1, "illegal: empty coefficient string\n")
    # csv and json keep their empty and null position
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "csv", "validate", text)
    assert (code, out) == (1, "legal,reason,position\nfalse,empty coefficient string,\n")
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "json", "validate", text)
    assert code == 1 and json.loads(out)["position"] is None


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
    assert code == 0 and out == '{"n": 4, "coeffs": ["0", "1", "2"]}\n'
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


def test_identities_on_deep_strings(capsys):
    # Most outcomes hold about a thousand blocks: the grammar walk must not recurse.
    coeffs = ",".join(["1"] + ["0"] * 998 + ["1"])
    code, out, _ = run(capsys, "--coeffs", coeffs, "identities", "2010")
    assert code == 0
    assert "all identities hold exactly" in out


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


def test_verify_report_serialization(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "json", "verify", "--n-max", "60")
    assert code == 0
    data = json.loads(out)
    report = verify_variance_bound(SummandTable(validate_spec((1, 1))), 60)
    assert data["all_pass"] is True
    assert data["spec"] == "1,1"
    # exact rationals are strings, never JSON numbers
    assert isinstance(data["c"], str)
    assert isinstance(data["per_n"][0]["variance"], str)
    assert len(data["per_n"]) == len(report.per_n)


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


@pytest.mark.parametrize(
    "env, flag, source",
    [
        (None, "-4", "--cap"),
        (None, "0", "--cap"),
        ("-5", None, "PLRS_ENUM_CAP"),
        ("0", None, "PLRS_ENUM_CAP"),
        ("abc", None, "PLRS_ENUM_CAP"),
        ("abc", "500", "PLRS_ENUM_CAP"),
    ],
)
def test_cap_below_one_exits_2(monkeypatch, capsys, env, flag, source):
    if env is None:
        monkeypatch.delenv("PLRS_ENUM_CAP", raising=False)
    else:
        monkeypatch.setenv("PLRS_ENUM_CAP", env)
    argv = ["--coeffs", "1,1"] + (["--cap", flag] if flag else []) + ["identities", "5"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("plrs: error: ") and source in err
    assert len(err.splitlines()) == 1


def test_identities_enumerate_the_space_once(monkeypatch, capsys):
    import plrs.ensemble

    # _walk is the grammar walk behind enumerate_omega and conditional_tally
    walks = []
    real = plrs.ensemble._walk

    def counting(spec, n):
        walks.append(n)
        return real(spec, n)

    monkeypatch.setattr(plrs.ensemble, "_walk", counting)
    code, out, _ = run(capsys, "--coeffs", "2,2,0,2", "--format", "csv", "identities", "9")
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 + 2 * 6
    assert walks == [9]


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
    assert run(capsys, "--coeffs", "1,1", "--threads", "2", "seq", "5")[0] == 2  # removed flag
    # a precision too large to shift by
    code, out, err = run(
        capsys, "--coeffs", "1,1", "--precision-bits", "1" + "0" * 20, "verify", "--n-max", "40"
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("plrs: error:")


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("text", ["validate", "1 x"], "cannot parse coefficient string '1 x'"),
        ("n_list", ["gauss", "--n-list", "5,x"], "cannot parse --n-list '5,x'"),
    ],
    ids=["text", "n_list"],
)
def test_parse_errors_name_the_input(tmp_path, capsys, route, name, argv, message):
    if route == "config":
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"subcommand": argv[0], name: argv[-1]}))
        argv = ["--config", str(cfg)]
    code, out, err = run(capsys, "--coeffs", "1,1", *argv)
    assert (code, out, err) == (2, "", f"plrs: error: {message}\n")


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
        {"coefficients": [1, 1], "subcommand": "sample", "n": 5, "seed": 1, "sample_count": 3},
        {"coefficients": "1,1", "subcommand": "gauss", "threads": 2},
        {"coefficients": "1,1", "subcommand": "identities", "n": 5, "cap": 0},
        {"coefficients": "1,1", "subcommand": "identities", "n": 5, "cap": -5},
    ],
    ids=[
        "n-string", "n_max-string", "n-bool", "n-float", "format-int",
        "subcommand-list", "coefficients-int", "seed-string", "precision-bool",
        "sample_count-unknown", "threads-removed", "cap-zero", "cap-negative",
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


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize(
    "bits", [0, -3, MAX_PRECISION_BITS + 1, 10**20], ids=["zero", "negative", "ceiling+1", "1e20"]
)
def test_precision_bits_out_of_range_exits_2(tmp_path, capsys, route, bits):
    # refused where flag and config key merge, before anything is computed
    argv = ["--coeffs", "1,1", "verify", "--n-max", "40"]
    if route == "flag":
        argv = ["--precision-bits", str(bits), *argv]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"precision_bits": bits}))
        argv = ["--config", str(cfg), *argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        "plrs: error: --precision-bits (config key precision_bits) must be an integer "
        f"in [1, {MAX_PRECISION_BITS}], got {bits}\n"
    )


def test_precision_bits_ceiling_is_accepted(capsys):
    code, _, err = run(
        capsys, "--coeffs", "1,1", "--precision-bits", str(MAX_PRECISION_BITS), "seq", "3"
    )
    assert (code, err) == (0, "")


@pytest.mark.parametrize("route", ["flag", "config"])
def test_gauss_empty_n_list_exits_2(tmp_path, capsys, route):
    # an empty list is an error, like ','; only a missing list means the default
    if route == "flag":
        argv = ["--coeffs", "1,1", "gauss", "--n-list", ""]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"coefficients": "1,1", "subcommand": "gauss", "n_list": ""}))
        argv = ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "plrs: error: gauss needs a non-empty --n-list\n")


# Per RunConfig field except the subcommand: (value by flag, argv that sets it
# by flag, argv that leaves it to the config, value for the config to lose).
SETTINGS = {
    "coefficients": ("1,1", ["--coeffs", "1,1", "seq", "3"], ["seq", "3"], "1,2"),
    "n": (3, ["seq", "3"], ["seq"], 4),
    "n_max": (40, ["verify", "--n-max", "40"], ["verify"], 50),
    "n_list": ("20,30", ["gauss", "--n-list", "20,30"], ["gauss"], "20"),
    "text": ("1 0 1", ["validate", "1 0 1"], ["validate"], "1 1"),
    "format": ("csv", ["--format", "csv", "seq", "3"], ["seq", "3"], "json"),
    "seed": (3, ["sample", "5", "--seed", "3"], ["sample", "5"], 4),
    "samples": (2, ["sample", "5", "--seed", "1", "--samples", "2"],
                ["sample", "5", "--seed", "1"], 3),
    "cap": (7, ["--cap", "7", "seq", "3"], ["seq", "3"], 8),
    "precision_bits": (64, ["--precision-bits", "64", "seq", "3"], ["seq", "3"], 96),
    "output": ("out.txt", ["--output", "out.txt", "seq", "3"], ["seq", "3"], "other.txt"),
}


def merged_config(monkeypatch, tmp_path, argv, data=None) -> RunConfig:
    """The RunConfig that main hands to the emitter for argv plus a config."""
    import plrs.cli

    seen = []
    monkeypatch.setattr(plrs.cli, "_emit", lambda cfg, payload: seen.append(cfg))
    if data is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        argv = ["--config", str(path), *argv]
    if "--coeffs" not in argv and "coefficients" not in (data or {}):
        argv = ["--coeffs", "1,1", *argv]
    assert main(argv) in (0, 1)
    (cfg,) = seen
    return cfg


def test_settings_cover_run_config():
    assert set(SETTINGS) == set(RunConfig.__dataclass_fields__) - {"subcommand"}


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_every_setting_by_flag_and_by_config(monkeypatch, tmp_path, name):
    value, with_flag, without_flag, loser = SETTINGS[name]
    by_flag = merged_config(monkeypatch, tmp_path, with_flag)
    by_config = merged_config(monkeypatch, tmp_path, without_flag, {name: value})
    assert getattr(by_flag, name) == value
    assert by_flag == by_config
    # given both ways, the flag wins
    both = merged_config(monkeypatch, tmp_path, with_flag, {name: loser})
    assert both == by_flag


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "bare, flagged",
    [
        (["verify"], ["verify", "--n-max", "400"]),
        (["gauss"], ["gauss", "--n-list", "50,100,200,400"]),
        (["sample", "30", "--seed", "7"], ["sample", "30", "--seed", "7", "--samples", "10"]),
    ],
    ids=["verify", "gauss", "sample"],
)
def test_subcommand_defaults_match_their_flags(capsys, fmt, bare, flagged):
    common = ["--coeffs", "1,1", "--format", fmt]
    by_default = run(capsys, *common, *bare)
    assert by_default[0] == 0
    assert by_default == run(capsys, *common, *flagged)


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


# sha256 prefixes of the --help text at 80 columns, top level under "", as
# argparse of Python 3.11 lays it out.
HELP_DIGESTS = {
    "": "6b0299e6abd97850",  # --precision-bits names its ceiling
    "seq": "619aa18c2e239a5e",
    "blocks": "fda33829c0c287eb",
    "decompose": "95cb6d311a021299",
    "validate": "f04eb6742c4f4b84",
    "enumerate": "cdcf43aebff85902",
    "poly": "bcc0a19c719f3788",
    "stats": "5b3b7ceb2e4a1ba1",
    "zdist": "c6be75e8a5667041",
    "identities": "b1a8070f8c504fe4",
    "verify": "9a0b725e9b2a1836",
    "gauss": "e47da1c297bf015d",
    "sample": "55762cae0a9af062",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help layout differs by version")
@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_bytes_unchanged(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *([command] if command else []), "--help")
    assert (code, err) == (0, "")
    assert _digest(out) == HELP_DIGESTS[command]


# -- byte identity of every payload ------------------------------------------------

# Subcommand arguments run on every fixture in every format.  "{short}" is the
# smallest index past 2L, where the block removal identities apply.  The
# "_above_cap" cases take the paths that skip enumeration.
DIGEST_FIXTURES = {"1,1": 5, "2,2,0,2": 9, "1,2": 5, "3,0,1": 7}
DIGEST_FORMATS = ("table", "csv", "json")
DIGEST_COMMANDS = {
    "seq": ["seq", "12"],
    "blocks": ["blocks"],
    "decompose": ["decompose", "1000"],
    "validate": ["validate", "1 0 1"],
    "validate_illegal": ["validate", "9 0 9"],
    "enumerate": ["enumerate", "6"],
    "poly": ["poly", "20"],
    "stats": ["stats", "20"],
    "zdist": ["zdist", "{short}"],
    "zdist_above_cap": ["--cap", "3", "zdist", "{short}"],
    "identities": ["identities", "{short}"],
    "identities_above_cap": ["--cap", "3", "identities", "{short}"],
    "verify": ["verify", "--n-max", "60"],
    "gauss": ["gauss", "--n-list", "20,40"],
    "sample": ["sample", "30", "--samples", "5", "--seed", "7"],
}


def _csv_cell(value) -> str:
    """A json value as the csv writes it: booleans as true/false, null as
    the empty cell, anything else as its string."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


@pytest.mark.parametrize("coeffs", list(DIGEST_FIXTURES))
@pytest.mark.parametrize(
    "args, key",
    [(["verify", "--n-max", "40"], "per_n"), (["identities", "9"], "checks")],
    ids=["verify", "identities"],
)
def test_json_records_are_the_csv_rows(capsys, coeffs, args, key):
    code, out, _ = run(capsys, "--coeffs", coeffs, "--format", "json", *args)
    assert code == 0
    records = json.loads(out)[key]
    code, out, _ = run(capsys, "--coeffs", coeffs, "--format", "csv", *args)
    assert code == 0
    header, *rows = out.splitlines()
    assert records and all(list(r) == header.split(",") for r in records)
    assert [",".join(map(_csv_cell, r.values())) for r in records] == rows


def _digest(text: str) -> str:
    """The first 16 hex digits of the sha256 of the UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def command_digests(command: str) -> dict:
    """(fixture, format) -> (exit code, stdout digest) for one command."""
    out = {}
    for coeffs, short in DIGEST_FIXTURES.items():
        args = [arg.format(short=short) for arg in DIGEST_COMMANDS[command]]
        for fmt in DIGEST_FORMATS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main(["--coeffs", coeffs, "--format", fmt, *args])
            out[coeffs, fmt] = (code, _digest(buf.getvalue()))
    return out


# Recorded from the payloads written before the CLI moved to a single emitter.
DIGESTS = {
    'seq': {
        ('1,1', 'table'): (0, 'caf64539e7cd49dd'),
        ('1,1', 'csv'): (0, '413cf32c5fb11f86'),
        ('1,1', 'json'): (0, '15975c1c426ff187'),
        ('2,2,0,2', 'table'): (0, '3e3d9600153370bf'),
        ('2,2,0,2', 'csv'): (0, '322173c5410e808b'),
        ('2,2,0,2', 'json'): (0, '59ee2d922264b365'),
        ('1,2', 'table'): (0, '8d3520a56a8f5469'),
        ('1,2', 'csv'): (0, '0c66895d7c7635ad'),
        ('1,2', 'json'): (0, '1d25035775031b5e'),
        ('3,0,1', 'table'): (0, '09a6d84b2be869cd'),
        ('3,0,1', 'csv'): (0, 'be941563ef93079d'),
        ('3,0,1', 'json'): (0, '314726a3483ecc30'),
    },
    'blocks': {
        ('1,1', 'table'): (0, 'c7b0631db7deea83'),
        ('1,1', 'csv'): (0, '464dd0da286a27a2'),
        ('1,1', 'json'): (0, '72ce88a3917e6afc'),
        ('2,2,0,2', 'table'): (0, '8317e4229f6a2fcb'),
        ('2,2,0,2', 'csv'): (0, '1fce50f624b055c8'),
        ('2,2,0,2', 'json'): (0, '221107c2a9075921'),
        ('1,2', 'table'): (0, 'c7492f380480315c'),
        ('1,2', 'csv'): (0, 'a881952e5ed560fe'),
        ('1,2', 'json'): (0, '9d1debd89c24d201'),
        ('3,0,1', 'table'): (0, '8cc623d69b698a65'),
        ('3,0,1', 'csv'): (0, '507e4ee288b07ba3'),
        ('3,0,1', 'json'): (0, '50801d8b7a55270d'),
    },
    'decompose': {
        ('1,1', 'table'): (0, '336d7c49303fb27e'),
        ('1,1', 'csv'): (0, '528a63cce86eefc6'),
        ('1,1', 'json'): (0, 'f15d8779021d24d3'),
        ('2,2,0,2', 'table'): (0, 'b3710cddb0ee4aad'),
        ('2,2,0,2', 'csv'): (0, '069cddd52072bfd3'),
        ('2,2,0,2', 'json'): (0, 'b570654aca3509dd'),
        ('1,2', 'table'): (0, '989e2ec705055264'),
        ('1,2', 'csv'): (0, '8b86915eda820109'),
        ('1,2', 'json'): (0, '6bc3a1d06eace039'),
        ('3,0,1', 'table'): (0, '986b6442bd5c6588'),
        ('3,0,1', 'csv'): (0, 'c7d26fc81f98cd02'),
        ('3,0,1', 'json'): (0, '923ee0071f35b51a'),
    },
    'validate': {
        ('1,1', 'table'): (0, '916d553eebacc023'),
        ('1,1', 'csv'): (0, '89f57729b09ad9e2'),
        ('1,1', 'json'): (0, '647c864785039632'),
        ('2,2,0,2', 'table'): (0, '916d553eebacc023'),
        ('2,2,0,2', 'csv'): (0, '89f57729b09ad9e2'),
        ('2,2,0,2', 'json'): (0, '647c864785039632'),
        ('1,2', 'table'): (0, '916d553eebacc023'),
        ('1,2', 'csv'): (0, '89f57729b09ad9e2'),
        ('1,2', 'json'): (0, '647c864785039632'),
        ('3,0,1', 'table'): (0, '916d553eebacc023'),
        ('3,0,1', 'csv'): (0, '89f57729b09ad9e2'),
        ('3,0,1', 'json'): (0, '647c864785039632'),
    },
    'validate_illegal': {
        ('1,1', 'table'): (1, 'b1c48e71b5d690ef'),
        ('1,1', 'csv'): (1, 'ab784f328b22fd47'),
        ('1,1', 'json'): (1, '1fea074b0f2d9386'),
        ('2,2,0,2', 'table'): (1, 'b1c48e71b5d690ef'),
        ('2,2,0,2', 'csv'): (1, 'ab784f328b22fd47'),
        ('2,2,0,2', 'json'): (1, '1fea074b0f2d9386'),
        ('1,2', 'table'): (1, 'b1c48e71b5d690ef'),
        ('1,2', 'csv'): (1, 'ab784f328b22fd47'),
        ('1,2', 'json'): (1, '1fea074b0f2d9386'),
        ('3,0,1', 'table'): (1, 'b1c48e71b5d690ef'),
        ('3,0,1', 'csv'): (1, 'ab784f328b22fd47'),
        ('3,0,1', 'json'): (1, '1fea074b0f2d9386'),
    },
    'enumerate': {
        ('1,1', 'table'): (0, 'a8b075606dc336b2'),
        ('1,1', 'csv'): (0, 'f131b657fb96df2d'),
        ('1,1', 'json'): (0, '7a616472da349684'),
        ('2,2,0,2', 'table'): (0, '75c470ab0106707c'),
        ('2,2,0,2', 'csv'): (0, '745ce1c2a3376b10'),
        ('2,2,0,2', 'json'): (0, 'f33b2cb43f90567c'),
        ('1,2', 'table'): (0, '5e650a7d839841ed'),
        ('1,2', 'csv'): (0, '328d2b6941ed5179'),
        ('1,2', 'json'): (0, '449cbe0b9ce8d5e5'),
        ('3,0,1', 'table'): (0, '6e03a9e81ed985df'),
        ('3,0,1', 'csv'): (0, '2fd0acb5491bb4a7'),
        ('3,0,1', 'json'): (0, 'ea7750d688568eed'),
    },
    'poly': {
        ('1,1', 'table'): (0, 'e6331ac3ae2285b7'),
        ('1,1', 'csv'): (0, '5fc787ed550c7b32'),
        ('1,1', 'json'): (0, '5cbe9c10812fcb51'),
        ('2,2,0,2', 'table'): (0, 'e48b00ea2cd09062'),
        ('2,2,0,2', 'csv'): (0, 'fc72e6fe58337f70'),
        ('2,2,0,2', 'json'): (0, 'a6470e95bffe22c2'),
        ('1,2', 'table'): (0, 'bc258196d30a8954'),
        ('1,2', 'csv'): (0, '48bf34b37c07d240'),
        ('1,2', 'json'): (0, 'eda08d547aa46337'),
        ('3,0,1', 'table'): (0, '2d65fe6d5a249959'),
        ('3,0,1', 'csv'): (0, '6d307fe8008d1e2c'),
        ('3,0,1', 'json'): (0, '9a3adce8c61f5da5'),
    },
    'stats': {
        ('1,1', 'table'): (0, '9b35bf1b96fa006f'),
        ('1,1', 'csv'): (0, '43610db360326c72'),
        ('1,1', 'json'): (0, '54f1d9acc2414061'),
        ('2,2,0,2', 'table'): (0, '2c98af89a8ed2b55'),
        ('2,2,0,2', 'csv'): (0, '6599a7a51f68826d'),
        ('2,2,0,2', 'json'): (0, '58838fffdeefb08e'),
        ('1,2', 'table'): (0, 'a523d745cff60745'),
        ('1,2', 'csv'): (0, '731fdf22cb2f020f'),
        ('1,2', 'json'): (0, '63d8a02f6f7c1fd5'),
        ('3,0,1', 'table'): (0, 'a6e7acdb6a4bdcd5'),
        ('3,0,1', 'csv'): (0, 'e806af98cd1fd02e'),
        ('3,0,1', 'json'): (0, 'bc887f961ab284df'),
    },
    'zdist': {
        ('1,1', 'table'): (0, 'ce474a1ed5fc8352'),
        ('1,1', 'csv'): (0, 'aaf878c35c866f05'),
        ('1,1', 'json'): (0, '0fb292fb99f13c7d'),
        ('2,2,0,2', 'table'): (0, '4713fbf74f9ad48b'),
        ('2,2,0,2', 'csv'): (0, 'eb1141c8f080755d'),
        ('2,2,0,2', 'json'): (0, '6a4add8cf726c41e'),
        ('1,2', 'table'): (0, '7821734d1eab846b'),
        ('1,2', 'csv'): (0, 'bb17f30b12f0cfd7'),
        ('1,2', 'json'): (0, '476ca7eec2cfa5f0'),
        ('3,0,1', 'table'): (0, 'c28bd638bfca93c5'),
        ('3,0,1', 'csv'): (0, 'd1ca499dab5441c7'),
        ('3,0,1', 'json'): (0, '2b59b7f6e4aa4f72'),
    },
    'zdist_above_cap': {
        ('1,1', 'table'): (0, '3f8a05db530c4070'),
        ('1,1', 'csv'): (0, 'aaf878c35c866f05'),
        ('1,1', 'json'): (0, '1d2c24265b44f275'),
        ('2,2,0,2', 'table'): (0, '3e55cedcf31da5f7'),
        ('2,2,0,2', 'csv'): (0, 'eb1141c8f080755d'),
        ('2,2,0,2', 'json'): (0, 'bb24525aae94f056'),
        ('1,2', 'table'): (0, '9637960026a22b70'),
        ('1,2', 'csv'): (0, 'bb17f30b12f0cfd7'),
        ('1,2', 'json'): (0, '625da1147843ad7c'),
        ('3,0,1', 'table'): (0, 'ffedde235580ec8c'),
        ('3,0,1', 'csv'): (0, 'd1ca499dab5441c7'),
        ('3,0,1', 'json'): (0, '92a3c2c4abec28e8'),
    },
    'identities': {
        ('1,1', 'table'): (0, 'ed9053223a0cae5f'),
        ('1,1', 'csv'): (0, '05bba538532225ca'),
        ('1,1', 'json'): (0, '43cb3f5e126dfebc'),
        ('2,2,0,2', 'table'): (0, '3f1b756fcabdd90c'),
        ('2,2,0,2', 'csv'): (0, '3dc3b2cf74015e7f'),
        ('2,2,0,2', 'json'): (0, '515a4945b5d63cbd'),
        ('1,2', 'table'): (0, '63ffcf29d17f24ba'),
        ('1,2', 'csv'): (0, 'f39a879f8b684910'),
        ('1,2', 'json'): (0, '9fbcd9f4a18f39bb'),
        ('3,0,1', 'table'): (0, '1288a164e517008b'),
        ('3,0,1', 'csv'): (0, 'b21b9b2db1a010c9'),
        ('3,0,1', 'json'): (0, '9f4e1e2cde1c6d1e'),
    },
    'identities_above_cap': {
        ('1,1', 'table'): (0, '8a3a3d525a57fd8e'),
        ('1,1', 'csv'): (0, '973292b2fcf809ac'),
        ('1,1', 'json'): (0, '5411b5939bf0271f'),
        ('2,2,0,2', 'table'): (0, '2b811f4f14268fb1'),
        ('2,2,0,2', 'csv'): (0, '3fffdb25f4738a12'),
        ('2,2,0,2', 'json'): (0, 'f1335980ceee439b'),
        ('1,2', 'table'): (0, 'f2784bd907977fef'),
        ('1,2', 'csv'): (0, 'bf62cb78a9ce6e8f'),
        ('1,2', 'json'): (0, 'b2f564a610bf1c70'),
        ('3,0,1', 'table'): (0, '4c32baf045f961bf'),
        ('3,0,1', 'csv'): (0, 'f4449390b4f9b697'),
        ('3,0,1', 'json'): (0, 'e9a64e6195868928'),
    },
    'verify': {
        ('1,1', 'table'): (0, '68047d9b05cdf983'),
        ('1,1', 'csv'): (0, '0a2892f71a40fd9f'),
        ('1,1', 'json'): (0, 'da9e526133ab01b9'),
        ('2,2,0,2', 'table'): (0, '1194e4817670f109'),
        ('2,2,0,2', 'csv'): (0, 'b046295329303e27'),
        ('2,2,0,2', 'json'): (0, 'bfd2ff90d4bf0d4d'),
        ('1,2', 'table'): (0, '2347ba51c0288b55'),
        ('1,2', 'csv'): (0, '1a165590f488395b'),
        ('1,2', 'json'): (0, '15d35f7ce90d213e'),
        ('3,0,1', 'table'): (0, '5eac113cc2e47f39'),
        ('3,0,1', 'csv'): (0, '233fa75385f1b704'),
        ('3,0,1', 'json'): (0, '98f290f70832841d'),
    },
    'gauss': {
        ('1,1', 'table'): (0, '0cd061b7d919fbb1'),
        ('1,1', 'csv'): (0, 'f2c8a8ddf59f0275'),
        ('1,1', 'json'): (0, '5c80f0dd9a7796ad'),
        ('2,2,0,2', 'table'): (0, 'de595847e36ba507'),
        ('2,2,0,2', 'csv'): (0, '8a5b841d33017d21'),
        ('2,2,0,2', 'json'): (0, 'aa0a099b01399a0c'),
        ('1,2', 'table'): (0, '0d69dfe3f1988975'),
        ('1,2', 'csv'): (0, '46ec70a5c0d86c81'),
        ('1,2', 'json'): (0, '9a07c1fbd4a4faee'),
        ('3,0,1', 'table'): (0, '412ce160ff49b0a6'),
        ('3,0,1', 'csv'): (0, '52a81ea245533a23'),
        ('3,0,1', 'json'): (0, 'f8eb2ec9b2c2d56e'),
    },
    'sample': {
        ('1,1', 'table'): (0, 'd71e69b622448a42'),
        ('1,1', 'csv'): (0, 'd71e69b622448a42'),
        ('1,1', 'json'): (0, '41742682844a06d6'),
        ('2,2,0,2', 'table'): (0, 'd0c59a8cc8a93541'),
        ('2,2,0,2', 'csv'): (0, 'd0c59a8cc8a93541'),
        ('2,2,0,2', 'json'): (0, '72b730d301761f52'),
        ('1,2', 'table'): (0, '6d3dd00f65609e2f'),
        ('1,2', 'csv'): (0, '6d3dd00f65609e2f'),
        ('1,2', 'json'): (0, '51e49679034e9a95'),
        ('3,0,1', 'table'): (0, 'a7b82969deaef043'),
        ('3,0,1', 'csv'): (0, 'a7b82969deaef043'),
        ('3,0,1', 'json'): (0, 'ec110ca3197fc0ca'),
    },
}


@pytest.mark.parametrize("command", sorted(DIGEST_COMMANDS))
def test_payload_bytes_unchanged(command):
    assert command_digests(command) == DIGESTS[command]


def test_output_file_bytes_unchanged(tmp_path, capsys):
    target = tmp_path / "zdist.json"
    code, out, _ = run(
        capsys, "--coeffs", "2,2,0,2", "--format", "json", "--output", str(target),
        "zdist", "9",
    )
    assert code == 0 and out == ""
    data = target.read_bytes()
    assert data.endswith(b'"empirical_checked": true}')  # no newline added
    assert _digest(data.decode("utf-8")) == "a303559c639c59f8"


def test_zdist_json(capsys):
    code, out, _ = run(capsys, "--coeffs", "1,1", "--format", "json", "zdist", "5")
    assert code == 0 and out == (
        '{"n": 5, "probs": ["3/5", "2/5"], "lengths": [1, 2], "cardinality": "5", '
        '"empirical_checked": true}\n'
    )
    code, out, _ = run(capsys, "--coeffs", "1,1", "--cap", "3", "--format", "json", "zdist", "5")
    assert code == 0 and out.endswith('"cardinality": "5", "empirical_checked": false}\n')


def test_verify_csv_and_table_bytes(capsys):
    args = ("--coeffs", "1,1", "verify", "--n-max", "20")
    code, out, _ = run(capsys, "--format", "csv", *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,mean,variance,c_times_n,margin,pass"
    assert lines[1].startswith("3,3/2,1/4,") and lines[1].endswith(",true")
    assert len(lines) == 19
    assert _digest(out) == "a3aa747fae9bb4e9"
    code, out, _ = run(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "recurrence 1,1 (S=2, L=2), n_max=20"
    assert lines[5:8] == [
        "     n           mean       variance            c*n         margin  pass",
        "-" * 72,
        "     3       1.500000       0.250000       0.028647       0.221353  yes",
    ]
    assert lines[-1] == "all variance bounds hold"
    assert _digest(out) == "b7b0a4205e0352d5"
