"""Run every workload over several seeds and summarise, optionally to JSON.

    python3 benchmarks/all.py --seeds 10 --trace --out benchmarks/BENCH_seed.json

Each run is a separate ``run.py`` process, exactly as it is run alone.
For each workload and end-to-end metric it prints the median over the
seeds, the quartiles and the spread (Q3 - Q1) / median, plus
``failed_frac`` over all runs; ``--trace`` adds one traced run per
workload (first seed) and prints its per-layer table; ``--against`` an
earlier ``--out`` file prints how far each median moved in the worse
direction, against the metric's bound.  Run length defaults to
``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + 300, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(runs: list) -> dict:
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None, help="an earlier --out file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    report = {"run_seconds": args.seconds, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            runs.append(one_run(workload, seed, args.seconds, 0))
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items())
            print(f"{workload} seed {seed} ({runs[-1]['wall_s']:.0f} s): {values}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "end_to_end": summarise(runs),
            "failed_frac": failed / attempted,
            "attempted": attempted,
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed", "metrics", "wall_s")} for r in runs],
        }
        print(f"{workload}: failed_frac {entry['failed_frac']:.3g} ratio ({failed}/{attempted})")
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:16s} {s['median']:.6g} {s['unit']:5s} q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
                  f" spread {s['spread']:.4f} (bound {bound}){flag}")
        for name, s in entry["end_to_end"].items():
            if workload not in earlier:
                break
            before = earlier[workload]["end_to_end"][name]["median"]
            worse = sign[name] * (s["median"] - before) / before
            flag = "" if worse <= bounds[name] else "  <-- worse than bound"
            print(f"  {name:16s} median {s['median']:.6g} against {before:.6g}:"
                  f" worse by {worse:+.4f} (bound {bounds[name]}){flag}")
        if args.trace:
            traced = one_run(workload, report["seeds"][0], args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            entry["trace_overhead_frac"] = traced["metrics"]["trace.overhead_frac"]["value"]
            for name, m in traced["metrics"].items():
                print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        report["workloads"][workload] = entry
        report["environment"] = runs[-1]["environment"]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
