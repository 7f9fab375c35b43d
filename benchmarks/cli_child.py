"""One ``stieltjes validate --suite all`` in this fresh interpreter, timed inside.

    python benchmarks/cli_child.py --json REPORT --out RESULT [--trace]

Used by the traced run of ``validate_cli``: the untraced and the traced
child time the same ``cli.main`` call, which gives the trace overhead.
The traced child then, with the tracer removed, times each suite once
with the ``gamma_value`` cache cleared (cold) and once right after (warm).
RESULT receives ``{"main_s", "exit_code", "layers"}``.
"""

from __future__ import annotations

import argparse
import json
import time

from stieltjes import cli, core, validate

from tracer import Tracer

SUITES = [name for name in validate.SUITE_NAMES if name != "all"]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    argv = ["validate", "--suite", "all", "--json", args.json]
    result = {}
    if not args.trace:
        start = time.perf_counter()
        result["exit_code"] = cli.main(argv)
        result["main_s"] = time.perf_counter() - start
    else:
        info0 = core.gamma_value.cache_info()
        with Tracer() as tracer:
            start = time.perf_counter()
            with tracer.span("cli.main"):
                result["exit_code"] = cli.main(argv)
            result["main_s"] = time.perf_counter() - start
        info1 = core.gamma_value.cache_info()
        layers = tracer.layer_metrics(1)
        layers["core.gamma_value_hits"] = info1.hits - info0.hits
        layers["core.gamma_value_misses"] = info1.misses - info0.misses
        for suite in SUITES:
            core.gamma_value.cache_clear()
            start = time.perf_counter()
            validate.run_suite(suite)
            layers[f"validate.cold_s.{suite}"] = time.perf_counter() - start
            start = time.perf_counter()
            validate.run_suite(suite)
            layers[f"validate.warm_s.{suite}"] = time.perf_counter() - start
        result["layers"] = layers
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
