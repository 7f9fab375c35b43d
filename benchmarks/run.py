"""Benchmark of the stieltjes library: one workload, one run, one JSON line.

    python3 benchmarks/run.py --workload hasse_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, never from an installed copy.  Workloads
(see README.md): ``hasse_sweep``, ``quad_mix``, ``validate_cli``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer metrics.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it name each metric with its unit,
``failed_frac``, and the environment.  Exit status is non-zero, with no
result line, when the library source is missing or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracer import ROUTES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHECK_IDS = BENCH / "validate_check_ids.json"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Packages whose import time is a layer: import.<pkg>_s.
IMPORTED = [name[len("import."):-len("_s")] for name in PER_LAYER if name.startswith("import.")]

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# A child runs --seconds of passes plus at most one pass past the deadline
# (two when traced, about 10 s on hasse_sweep), warm-up and start-up.
CHILD_SLACK_S = 140


class BenchError(RuntimeError):
    """A process of the benchmark failed; no result is printed."""


# --- processes ----------------------------------------------------------------


def child_env() -> dict:
    """Environment of every process the benchmark starts: library from
    ``src/``, BLAS/OpenMP pinned to one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list, stdout=os.devnull, stderr=os.devnull) -> tuple:
    """Run ``python *args`` to completion: (exit code, wall s, peak RSS kB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


def setup_seconds() -> float:
    """Median wall of fresh interpreters that import stieltjes and return
    one first value; one untimed start first fills the bytecode cache."""
    walls = []
    for i in range(SETUP_SAMPLES + 1):
        code, wall, _ = spawn(["-c", "import stieltjes; stieltjes.gamma_coffey(1, 1.0).value"])
        if code != 0:
            raise BenchError(f"set-up interpreter exited {code}")
        if i:
            walls.append(wall)
    return statistics.median(walls)


def import_seconds(tmp: Path) -> dict:
    """Self time of each package's modules under ``python -X importtime``."""
    samples = {pkg: [] for pkg in IMPORTED}
    log = tmp / "importtime.txt"
    for _ in range(IMPORT_SAMPLES):
        code, _, _ = spawn(["-X", "importtime", "-c", "import stieltjes"], stderr=log)
        if code != 0:
            raise BenchError(f"importtime interpreter exited {code}")
        totals = dict.fromkeys(IMPORTED, 0)
        for line in log.read_text().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*([\w.]+)", line)
            if m:
                top = m.group(2).split(".")[0]
                if top in totals:
                    totals[top] += int(m.group(1))
        for pkg in IMPORTED:
            samples[pkg].append(totals[pkg] / 1e6)
    return {f"import.{pkg}_s": statistics.median(v) for pkg, v in samples.items()}


# --- workloads ----------------------------------------------------------------


def quantile_ms(latencies: list) -> tuple:
    """(p50, p90) of a latency list, interpolating between order statistics."""
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    return p50, p90


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.WORKLOADS[workload](seed)
    refs = workloads.references(ops)
    tols = [workloads.tolerance(op, ref) for op, ref in zip(ops, refs)]
    job = json.dumps({"ops": ops, "seconds": seconds, "trace": int(trace)})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=job, capture_output=True, text=True, env=child_env(),
        timeout=seconds + CHILD_SLACK_S, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout)
    mismatched = set(out["mismatched"])
    failed_ops = 0
    max_err = dict.fromkeys(ROUTES[:4], 0.0)
    for i, (op, ref, tol, outcome) in enumerate(zip(ops, refs, tols, out["outcomes"])):
        if "error" in outcome:
            failed_ops += 1
            continue
        err = abs(float.fromhex(outcome["value"]) - ref)
        max_err[op["route"]] = max(max_err[op["route"]], err / max(1.0, abs(ref)))
        if err > tol or "no_convergence" in outcome["flags"] or i in mismatched:
            failed_ops += 1
    passes = len(out["walls"]) * (2 if trace else 1)
    result = {"attempted": len(ops) * passes, "failed": failed_ops * passes}
    if trace:
        layers = out["layers"]
        layers.update({f"accuracy.max_rel_err.{r}": e for r, e in max_err.items()})
        result["metrics"] = layers
    else:
        p50, p90 = quantile_ms(out["latencies_ms"])
        result["metrics"] = {
            "ops_per_s": statistics.median(len(ops) / wall for wall in out["walls"]),
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "peak_rss_mb": out["maxrss_kb"] / 1024.0,
        }
        result["samples"] = len(out["latencies_ms"])
    return result


def _report_failures(report_path: Path, expected_ids: list) -> bool:
    """True if a ``validate --json`` report fails a check or lists other ids."""
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        return True
    ids = [c["check_id"] for c in report["checks"]]
    return report["summary"]["failed"] != 0 or ids != expected_ids


def run_validate_cli(seconds: float, trace: bool, tmp: Path) -> dict:
    expected = json.loads(CHECK_IDS.read_text())
    report = tmp / "report.json"
    attempted = failed = 0
    if not trace:
        walls, rss = [], []
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin < seconds:
            report.unlink(missing_ok=True)
            code, wall, maxrss = spawn(
                ["-c", "from stieltjes.cli import entry; entry()",
                 "validate", "--suite", "all", "--json", str(report)]
            )
            walls.append(wall * 1e3)
            rss.append(maxrss)
            attempted += 1
            failed += code != 0 or _report_failures(report, expected)
        p50, p90 = quantile_ms(walls)
        metrics = {
            "ops_per_s": statistics.median(1e3 / wall for wall in walls),
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "peak_rss_mb": max(rss) / 1024.0,
        }
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "samples": len(walls)}
    main_s = {False: [], True: []}
    layers = []
    out = tmp / "child.json"
    begin = time.perf_counter()
    while not layers or time.perf_counter() - begin < seconds:
        for traced in (False, True):
            report.unlink(missing_ok=True)
            args = [str(BENCH / "cli_child.py"), "--json", str(report), "--out", str(out)]
            code, _, _ = spawn(args + ["--trace"] if traced else args, stderr=tmp / "child.err")
            if code != 0:
                raise BenchError(f"cli_child exited {code}:\n{(tmp / 'child.err').read_text()[-4000:]}")
            result = json.loads(out.read_text())
            main_s[traced].append(result["main_s"])
            attempted += 1
            failed += result["exit_code"] != 0 or _report_failures(report, expected)
            if traced:
                layers.append(result["layers"])
    metrics = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(main_s[True]) / statistics.median(main_s[False]) - 1.0
    metrics.update({f"accuracy.max_rel_err.{r}": 0.0 for r in ROUTES[:4]})
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# --- environment ----------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; "" if none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return ""


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _dependencies() -> list:
    try:
        import tomllib

        with open(ROOT / "pyproject.toml", "rb") as handle:
            return tomllib.load(handle)["project"]["dependencies"]
    except (ImportError, OSError, KeyError, ValueError):
        return []


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    sources = sorted((SRC / "stieltjes").glob("*.py"))
    deps = _dependencies()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "dependencies": deps,
        "dependency_count": len(deps),
    }


# --- entry point ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: {"correct", "attempted", "failed", "metrics", ...}."""
    if not (SRC / "stieltjes" / "__init__.py").is_file():
        raise BenchError(f"library source not found under {SRC}")
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if workload == "validate_cli":
            result = run_validate_cli(seconds, trace, tmp)
        else:
            result = run_in_process(workload, seed, seconds, trace)
        if trace:
            result["metrics"].update(import_seconds(tmp))
            for name in PER_LAYER:
                result["metrics"].setdefault(name, 0.0)
        else:
            result["metrics"]["setup_s"] = setup_seconds()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result["correct"] = result["failed"] == 0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{args.workload} failed_frac {frac:.6g} ratio ({result['failed']}/{result['attempted']})")
    if "samples" in result:
        print(f"{args.workload} latency samples {result['samples']}")
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
