"""Tests for the cross-validation harness itself.

The individual mathematics is covered by the per-module tests; here the
contract of the reporting layer is pinned: every shipped suite passes at its
default tolerances, reports serialize deterministically, and the tolerance
override rewrites the ladder without touching the recorded differences.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from stieltjes import CheckRecord, ValidationReport, run_suite
from stieltjes.validate import SUITE_NAMES

# The benchmark runs ``validate --suite all`` and fails any run whose ids differ
# from this list, so an id change is a deliberate change to this file too.
CHECK_IDS = Path(__file__).resolve().parents[1] / "benchmarks" / "validate_check_ids.json"


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
def test_every_suite_passes(suite):
    report = run_suite(suite)
    failed = [c.check_id for c in report.checks if not c.passed]
    assert report.all_passed, f"failing checks: {failed}"
    assert report.summary["total"] == len(report.checks) > 0


def test_all_is_concatenation():
    total = sum(len(run_suite(s).checks) for s in SUITE_NAMES if s != "all")
    report = run_suite("all")
    assert len(report.checks) == total
    assert report.suite == "all"


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_report_serialization_schema():
    report = run_suite("bell")
    payload = report.as_dict()
    assert payload["suite"] == "bell"
    assert payload["summary"]["passed"] == payload["summary"]["total"] == len(report.checks)
    record = payload["checks"][0]
    assert set(record) >= {
        "check_id",
        "inputs",
        "left",
        "right",
        "difference",
        "tolerance",
        "passed",
    }


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
def test_report_is_deterministic_apart_from_timestamp(suite):
    a = run_suite(suite).as_dict()
    b = run_suite(suite).as_dict()
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_tolerance_override_rewrites_ladder():
    loose = run_suite("quad", tol=0.5)
    assert all(c.tolerance == 0.5 for c in loose.checks if c.tolerance != 0.0)
    assert loose.all_passed
    tight = run_suite("quad", tol=1e-30)
    assert not tight.all_passed


def test_check_record_is_frozen():
    record = run_suite("bell").checks[0]
    assert isinstance(record, CheckRecord)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.passed = False


def test_check_ids_and_order_are_pinned():
    ids = [c.check_id for c in run_suite("all").checks]
    assert ids == json.loads(CHECK_IDS.read_text())


def test_check_ids_are_unique():
    report = run_suite("all")
    ids = [(c.check_id, c.inputs) for c in report.checks]
    assert len(ids) == len(set(ids))


def test_report_type():
    assert isinstance(run_suite("alteta"), ValidationReport)
