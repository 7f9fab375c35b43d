"""Tests for the command-line interface.

Exit-code contract: 0 success, 2 numerical trouble (a method reported
no_convergence or a validation check failed), 64 usage error (bad arguments,
bad environment), 74 I/O error.  All invocations go through ``main(argv)``
directly, so the tests also pin output determinism and the JSON schemas.
"""

import json
import warnings

import pytest

from stieltjes import brede_poly, cli, core, gamma_hasse
from stieltjes.cli import EX_IO, EX_NUMERICAL, EX_OK, EX_USAGE, main

import refs


# ---------------------------------------------------------------------------
# gamma subcommand


def test_gamma_all_methods(capsys):
    assert main(["gamma", "-n", "1", "-u", "1"]) == EX_OK
    out = capsys.readouterr().out
    assert out.startswith("gamma_1(u=1)")
    for label in ("hasse", "coffey", "bell", "brede", "limit"):
        assert label in out
    assert "max spread" in out


def test_gamma_single_method(capsys):
    assert main(["gamma", "-n", "2", "-u", "0.5", "--method", "hasse"]) == EX_OK
    out = capsys.readouterr().out
    assert "hasse" in out
    assert "max spread" not in out  # nothing to compare against
    value = float(out.splitlines()[1].split()[1])
    assert abs(value - refs.GAMMA[(2, 0.5)]) < 1e-10


def test_gamma_away_from_unit_argument_drops_unit_only_methods(capsys):
    assert main(["gamma", "-n", "0", "-u", "2"]) == EX_OK
    out = capsys.readouterr().out
    assert "brede" not in out and "limit" not in out


def test_gamma_beyond_table_runs_only_coffey(capsys):
    """At n = 13 the default method set keeps only the routes whose
    envelope admits it; Coffey answers, and nothing is warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gamma", "-n", "13"]) == EX_OK
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("coffey")
    assert captured.err == ""


def test_gamma_hasse_beyond_table_is_usage_error_without_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["gamma", "-n", "13", "--method", "hasse"]) == EX_USAGE
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "n <= 12" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("method", ["coffey", "all"])
def test_gamma_past_every_envelope_is_usage_error(method, capsys):
    """n = 500 is past Coffey's cap n <= 99, the highest of any route: one
    route or all, the request is refused with exit 64 and no results."""
    assert main(["gamma", "-n", "500", "--method", method]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n <= 99" in captured.err


def test_gamma_json_schema(tmp_path, capsys):
    path = tmp_path / "gamma.json"
    assert main(["gamma", "-n", "1", "-u", "1", "--json", str(path)]) == EX_OK
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["n"] == 1 and payload["u"] == 1.0
    assert "version" in payload and "max_spread" in payload
    hasse = payload["results"]["hasse"]
    assert set(hasse) == {"value", "error_estimate", "evaluations", "flags"}
    assert abs(hasse["value"] - refs.GAMMA_AT_1[1]) < 1e-12
    assert payload["max_spread"] < 1e-8


def test_gamma_output_is_deterministic(capsys):
    argv = ["gamma", "-n", "2", "-u", "1.5"]
    assert main(argv) == EX_OK
    first = capsys.readouterr().out
    assert main(argv) == EX_OK
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "-n", "5", "-u", "0.5", "--method", "coffey", "--max-level", "2"],
        ["table", "In", "--max-n", "12", "--max-level", "2"],
        ["table", "gamma_n", "--max-n", "12", "--max-level", "2"],
    ],
    ids=["gamma", "table_In", "table_gamma_n"],
)
def test_gamma_numerical_failure_is_exit_2(argv, capsys):
    """A starved quadrature must flag no_convergence and exit 2."""
    rc = main(argv)
    assert rc == EX_NUMERICAL
    assert "no_convergence" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# validate subcommand


def test_validate_suite_passes(capsys):
    assert main(["validate", "--suite", "quad"]) == EX_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_validate_json_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["validate", "--suite", "bell", "--json", str(path)]) == EX_OK
    capsys.readouterr()
    report = json.loads(path.read_text())
    assert report["suite"] == "bell"
    assert "version" in report and "timestamp" in report
    assert report["summary"]["passed"] == report["summary"]["total"]
    record = report["checks"][0]
    for key in ("check_id", "inputs", "left", "right", "difference", "tolerance", "passed"):
        assert key in record


def test_validate_tolerance_ladder_override(capsys):
    """--tol replaces every per-check tolerance: absurdly tight fails (2),
    absurdly loose passes (0)."""
    assert main(["validate", "--suite", "quad", "--tol", "1e-30"]) == EX_NUMERICAL
    capsys.readouterr()
    assert main(["validate", "--suite", "quad", "--tol", "0.5"]) == EX_OK
    capsys.readouterr()


def test_validate_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("STIELTJES_TOL", "1e-30")
    assert main(["validate", "--suite", "quad"]) == EX_NUMERICAL
    capsys.readouterr()
    # explicit flag wins over the environment
    assert main(["validate", "--suite", "quad", "--tol", "0.5"]) == EX_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# table subcommand


def test_table_gamma_n(capsys):
    assert main(["table", "gamma_n", "--max-n", "3"]) == EX_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # header + 4 rows
    value = float(lines[1].split()[1])
    assert abs(value - refs.GAMMA_AT_1[0]) < 1e-12


def test_table_brede_coeffs_match_library(capsys):
    assert main(["table", "brede_coeffs", "--max-n", "2"]) == EX_OK
    lines = capsys.readouterr().out.splitlines()
    row2 = [float(tok) for tok in lines[3].split()[1:]]
    assert row2 == pytest.approx(list(brede_poly(2).coefficients), abs=1e-14)


def test_table_gamma_derivs(capsys):
    assert main(["table", "gamma_derivs", "--max-m", "4"]) == EX_OK
    lines = capsys.readouterr().out.splitlines()
    for m in range(5):
        value = float(lines[m + 1].split()[1])
        assert abs(value - refs.GAMMA_DERIVS[m]) < 1e-12 * max(1.0, abs(refs.GAMMA_DERIVS[m]))


def test_table_i_n_shows_negative_odd_orders(capsys):
    assert main(["table", "In", "--max-n", "6"]) == EX_OK
    lines = capsys.readouterr().out.splitlines()
    i5 = float(lines[6].split()[1])
    assert abs(i5 - refs.I_N[5]) < 1e-10
    assert i5 < 0.0


@pytest.mark.parametrize(
    "argv, rc, flags",
    [
        (["table", "gamma_n", "--max-n", "2"], EX_OK, [[]] * 3),
        (
            ["table", "In", "--max-n", "12", "--max-level", "2"],
            EX_NUMERICAL,
            [["no_convergence"]] * 13,
        ),
        (
            ["table", "gamma_n", "-u", "0.630957", "--max-n", "12"],
            EX_OK,
            [[]] * 12 + [["cancellation"]],
        ),
    ],
    ids=["converged", "starved", "cancellation"],
)
def test_table_json(argv, rc, flags, tmp_path, capsys):
    """Table rows carry the fields and flags of a ``gamma`` result, in the
    JSON and in the text, so a reader can tell which rows failed (exit 2) or
    lost digits to cancellation (exit 0)."""
    path = tmp_path / "table.json"
    assert main(argv + ["--json", str(path)]) == rc
    lines = capsys.readouterr().out.splitlines()[1:]
    payload = json.loads(path.read_text())
    assert payload["kind"] == argv[1]
    rows = payload["rows"]
    assert [row["flags"] for row in rows] == flags
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        assert list(row) == ["n", "value", "error_estimate", "evaluations", "flags"]
        assert line.split()[4:] == ([f"[{','.join(row['flags'])}]"] if row["flags"] else [])


def test_table_gamma_n_rows_equal_fresh_hasse_calls(tmp_path, capsys):
    """The rows of one ``table gamma_n``, which share their moment rows,
    equal 13 Hasse calls made each with an empty moment-row slot, bit for
    bit."""
    path = tmp_path / "table.json"
    assert main(["table", "gamma_n", "-u", "0.37", "--max-n", "12", "--json", str(path)]) == EX_OK
    capsys.readouterr()
    rows = json.loads(path.read_text())["rows"]
    fresh = []
    for n in range(13):
        core._moment_slot[0] = (None, ())
        fresh.append({"n": n, **gamma_hasse(n, 0.37).as_dict()})
    assert rows == fresh


# ---------------------------------------------------------------------------
# usage and I/O errors

ROUTES = "gamma_hasse gamma_coffey gamma_bell_family gamma_brede gamma_limit i_n_integral".split()


def _no_route(*args, **kwargs):
    raise AssertionError("a route ran before the usage error was found")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["gamma", "--method", "nonsense"],
        ["gamma", "-u", "-1"],
        ["gamma", "-u", "0"],
        ["gamma", "-n", "-3"],
        ["gamma", "--tol", "-1"],
        ["gamma", "--max-level", "1"],
        ["gamma", "--method", "brede", "-u", "2"],
        ["gamma", "--method", "limit", "-u", "0.5"],
        ["table", "no_such_kind"],
        ["validate", "--suite", "no_such_suite"],
        ["table", "gamma_n", "--max-n", "13"],
        ["table", "In", "--max-n", "-1"],
        ["table", "gamma_derivs", "--max-m", "13"],
        ["gamma", "-n", "2", "-u", "2", "--method", "brede"],
        ["gamma", "-n", "3", "--limit-terms", "5"],
        ["gamma", "-n", "3", "-u", "1e-300"],
        ["gamma", "-n", "3", "-u", "1e-300", "--method", "coffey"],
    ],
)
def test_usage_errors(argv, tmp_path, capsys, monkeypatch):
    """A usage error is found before anything is computed or printed: exit
    64, no route run, empty stdout, and no JSON report."""
    for route in ROUTES:
        monkeypatch.setattr(cli, route, _no_route)
    path = tmp_path / "report.json"
    assert main(argv + ["--json", str(path)]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not path.exists()
    if "--limit-terms" in argv:
        assert "--limit-terms" in captured.err


def test_bad_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("STIELTJES_TOL", "abc")
    assert main(["gamma", "-n", "0"]) == EX_USAGE
    capsys.readouterr()
    monkeypatch.setenv("STIELTJES_TOL", "-2")
    assert main(["gamma", "-n", "0"]) == EX_USAGE
    capsys.readouterr()


def test_unwritable_json_is_exit_74(tmp_path, capsys):
    target = tmp_path / "missing" / "deep" / "out.json"
    assert main(["gamma", "-n", "0", "--json", str(target)]) == EX_IO
    capsys.readouterr()


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == EX_OK
    capsys.readouterr()
    assert main(["--version"]) == EX_OK
    assert "stieltjes" in capsys.readouterr().out
