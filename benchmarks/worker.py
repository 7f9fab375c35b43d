"""Measured process of the in-process workloads (hasse_sweep, quad_mix).

Reads ``{"ops": [...], "seconds": s, "trace": 0|1}`` as JSON on stdin and
writes one JSON object on stdout.  It imports the library under test and
nothing of the benchmark's reference code, so its peak RSS is the
library's own.

Closed loop, one client: each request is sent when the previous one has
returned.  The op list is run in whole passes until ``seconds`` have
passed; every pass must reproduce the first bit for bit.  A warm-up call
of each (route, order, tier) fills the library's lazy caches first.  With
``trace`` untraced and traced passes alternate, so the trace overhead is
measured on equal work.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import stieltjes
from stieltjes import QuadConfig

from tracer import Tracer

_FUNCTIONS = {
    "hasse": "gamma_hasse",
    "coffey": "gamma_coffey",
    "bell": "gamma_bell_family",
    "brede": "gamma_brede",
}


def _call(op: dict, cfg):
    # Looked up per call so the tracer's wrappers are seen when installed.
    fn = getattr(stieltjes, _FUNCTIONS[op["route"]])
    if op["route"] == "hasse":
        return fn(op["n"], op["u"])
    if op["route"] == "brede":
        return fn(op["n"], cfg)
    if op["route"] == "coffey":
        return fn(op["n"], op["u"], cfg)
    return fn(op["n"], op["u"], cfg=cfg)


def _run_pass(ops, cfgs, latencies):
    """One closed-loop pass; returns (wall seconds, outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for op, cfg in zip(ops, cfgs):
        t0 = time.perf_counter()
        try:
            r = _call(op, cfg)
        except Exception as exc:  # a raising request is a failed operation
            t1 = time.perf_counter()
            outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
        else:
            t1 = time.perf_counter()
            outcomes.append({"value": r.value.hex(), "flags": list(r.flags)})
        latencies.append((t1 - t0) * 1e3)
    return time.perf_counter() - start, outcomes


def _passes(ops, cfgs, seconds, tracer=None):
    """Run passes until ``seconds`` have passed.  With a tracer each untraced
    pass is followed by a traced one, so drift of the machine's speed hits
    both alike.  Returns (walls, traced walls, untraced latencies, outcomes
    of the first pass, indices of ops whose outcome changed between passes)."""
    walls, traced_walls, latencies, mismatched = [], [], [], set()
    first = None

    def check(outcomes):
        nonlocal first
        if first is None:
            first = outcomes
        else:
            mismatched.update(i for i, (a, b) in enumerate(zip(first, outcomes)) if a != b)

    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        wall, outcomes = _run_pass(ops, cfgs, latencies)
        walls.append(wall)
        check(outcomes)
        if tracer is not None:
            with tracer:
                wall, outcomes = _run_pass(ops, cfgs, [])
            traced_walls.append(wall)
            check(outcomes)
    return walls, traced_walls, latencies, first, mismatched


def main() -> None:
    job = json.load(sys.stdin)
    ops, seconds, trace = job["ops"], job["seconds"], job["trace"]
    cfgs = [None if op["tol"] is None else QuadConfig(target_tol=op["tol"]) for op in ops]
    warm = {(op["route"], op["n"], op["tol"]): (op, cfg) for op, cfg in zip(ops, cfgs)}
    for op, cfg in warm.values():
        try:
            _call(dict(op, u=1.0), cfg)
        except Exception:  # the measured passes record any failure
            pass

    tracer = Tracer() if trace else None
    info0 = stieltjes.gamma_value.cache_info()
    walls, traced_walls, latencies, first, mismatched = _passes(ops, cfgs, seconds, tracer)
    out = {
        "walls": walls,
        "latencies_ms": latencies,
        "outcomes": first,
        "mismatched": sorted(mismatched),
    }
    if trace:
        info1 = stieltjes.gamma_value.cache_info()
        passes = len(walls) + len(traced_walls)
        layers = tracer.layer_metrics(len(traced_walls))
        layers["core.gamma_value_hits"] = (info1.hits - info0.hits) / passes
        layers["core.gamma_value_misses"] = (info1.misses - info0.misses) / passes
        layers["trace.overhead_frac"] = sum(traced_walls) / sum(walls) - 1.0
        out["layers"] = layers
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
