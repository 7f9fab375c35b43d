"""Self-test of the benchmark: python3 -m pytest -q benchmarks/test_bench.py

One-second runs of every workload (each does one pass of its default
op list; about a minute in all); the library is imported from ``src/`` as
the benchmark does.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _result(args: list, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) | {"validate_cli"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert all(bounds["setup_s"] > b for name, b in bounds.items() if name != "setup_s")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _result(["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith(f"{workload} failed_frac 0 ") for line in lines)
    env = json.loads(lines[-2])["environment"]
    assert env["nproc"] >= 1 and env["src_lines"] > 0 and env["dependency_count"] >= 1


def test_corrupted_reference_fails(monkeypatch):
    true_refs = workloads.references

    def corrupted(ops):
        refs = true_refs(ops)
        refs[3] = refs[3] * (1 + 1e-6) + 1e-6
        return refs

    monkeypatch.setattr(workloads, "references", corrupted)
    monkeypatch.setitem(workloads.WORKLOADS, "hasse_sweep", lambda seed: workloads.hasse_sweep(seed, 1))
    result = run.measure("hasse_sweep", 1, 0.1, False)
    assert result["failed"] > 0 and not result["correct"]


def test_changed_check_ids_fail(monkeypatch, tmp_path):
    ids = json.loads(run.CHECK_IDS.read_text())
    changed = tmp_path / "ids.json"
    changed.write_text(json.dumps(ids[:-1]))
    monkeypatch.setattr(run, "CHECK_IDS", changed)
    result = run.measure("validate_cli", 1, 0.1, False)
    assert result["failed"] == result["attempted"] == 1 and not result["correct"]


def snapshot_namespaces() -> dict:
    """{(module, attribute): id(object)} over every loaded stieltjes module."""
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "stieltjes" or name.startswith("stieltjes.")
        for attr, value in vars(module).items()
    }


def test_tracer_restores_everything_it_wrapped():
    import stieltjes
    from stieltjes import core, quad, validate

    def values():
        return [
            stieltjes.gamma_hasse(3, 0.7).value,
            stieltjes.gamma_bell_family(4, 2.5).value,
            stieltjes.gamma_brede(5).value,
            validate.run_suite("quad").summary["passed"],
        ]

    untraced = values()
    before = snapshot_namespaces()
    originals = (core.integrate_semiaxis, quad.binet_bracket, validate.gamma_hasse)
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            assert core.integrate_semiaxis is not originals[0]
            assert validate.gamma_hasse is not originals[2]
            traced = values()
            1 / 0
    assert snapshot_namespaces() == before
    assert (core.integrate_semiaxis, quad.binet_bracket, validate.gamma_hasse) == originals
    assert traced == untraced == values()
    layers = tracer.layer_metrics(1)
    assert layers["core.route_calls.hasse"] >= 1 and layers["quad.integrals"] > 0
    assert layers["kernel.binet_calls"] > 0 and layers["core.hasse_head_s"] > 0


def test_references_match_mpmath():
    import mpmath as mp

    for u in (0.1, 1.0, 7.3):
        series = workloads.stieltjes_series(u)
        with mp.workdps(35):
            for n in (0, 4, 12):
                ref = mp.stieltjes(n, mp.mpf(u))
                assert abs(series[n] - ref) <= mp.mpf(10) ** -30 * max(1, abs(ref))


def test_quad_mix_inputs():
    ops = workloads.quad_mix(5)
    assert ops == workloads.quad_mix(5) != workloads.quad_mix(6)
    assert len({(o["route"], o["n"], o["u"]) for o in ops}) == len(ops)
    assert sum(o["tol"] is not None for o in ops) / len(ops) == pytest.approx(0.25, abs=0.01)
    assert all(0.1 <= o["u"] <= 10.0 for o in ops)


def test_refuses_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result(["--workload", "hasse_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
