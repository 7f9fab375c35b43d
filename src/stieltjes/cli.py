"""Command-line surface: single values, cross-validation runs, and tables.

Three subcommands::

    stieltjes gamma    -n 1 -u 1 --method all     # gamma_n(u), one or all routes
    stieltjes validate --suite identities          # run a check suite
    stieltjes table brede_coeffs --max-n 5         # small printed tables

Exit codes follow the sysexits convention where one exists: 0 success,
2 numerical failure (a convergence flag was raised, or a validation check
failed), 64 usage error (bad flags or domain preconditions), 74 I/O error
(writing the ``--json`` report failed).

Numeric output is printed with 15 significant digits and fixed ordering,
so identical invocations are byte-identical; the run timestamp appears
only inside JSON reports.  ``STIELTJES_TOL`` sets the default tolerance;
an explicit ``--tol`` flag wins over the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import __version__
from .bellpoly import _MAX_DERIVATIVE, gamma_derivative_at_one
from .core import (
    ENVELOPES,
    GammaRequest,
    Method,
    MethodResult,
    brede_poly,
    gamma_bell_family,
    gamma_brede,
    gamma_coffey,
    gamma_hasse,
    gamma_limit,
    i_n_integral,
)
from .quad import IntegrandError, QuadConfig
from .specfun import _require_order, _require_positive
from .validate import SUITE_NAMES, run_suite

__all__ = ["main", "entry"]

EX_OK = 0
EX_NUMERICAL = 2
EX_USAGE = 64
EX_IO = 74

_ENV_TOL = "STIELTJES_TOL"
_GAMMA_METHODS = tuple(method.value for method in ENVELOPES) + ("all",)
_TABLE_KINDS = ("gamma_n", "brede_coeffs", "gamma_derivs", "In")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64 (EX_USAGE);
    the default exit code 2 is reserved for numerical failures here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stieltjes", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"tolerance override (default: ${_ENV_TOL} or per-check ladder)",
    )
    common.add_argument(
        "--max-level",
        type=int,
        default=None,
        help="quadrature refinement depth (default 12)",
    )
    common.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write a machine-readable report to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser(
        "gamma", parents=[common], help="compute gamma_n(u) by one or all methods"
    )
    p_gamma.add_argument("-n", "--order", type=int, default=0, help="order n >= 0")
    p_gamma.add_argument("-u", "--argument", type=float, default=1.0, help="argument u > 0")
    p_gamma.add_argument(
        "--method", choices=_GAMMA_METHODS, default="all", help="representation to use"
    )
    p_gamma.add_argument(
        "--limit-terms",
        type=int,
        default=10**6,
        help="partial-sum length for the limit method",
    )
    p_gamma.set_defaults(func=_cmd_gamma)

    p_validate = sub.add_parser(
        "validate", parents=[common], help="run a cross-validation suite"
    )
    p_validate.add_argument(
        "--suite", choices=SUITE_NAMES, default="all", help="which suite to run"
    )
    p_validate.set_defaults(func=_cmd_validate)

    p_table = sub.add_parser("table", parents=[common], help="print a small table")
    p_table.add_argument("kind", choices=_TABLE_KINDS)
    p_table.add_argument("-u", "--argument", type=float, default=1.0)
    p_table.add_argument("--max-n", type=int, default=6, help="largest order n")
    p_table.add_argument("--max-m", type=int, default=6, help="largest derivative m")
    p_table.set_defaults(func=_cmd_table)
    return parser


def _resolve_tol(args) -> Optional[float]:
    if args.tol is not None:
        return _require_positive(args.tol, "--tol")
    raw = os.environ.get(_ENV_TOL)
    if raw is None:
        return None
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValueError(f"${_ENV_TOL} is not a float: {raw!r}") from exc
    return _require_positive(tol, f"${_ENV_TOL}")


def _resolve_cfg(args, tol: Optional[float]) -> Optional[QuadConfig]:
    kwargs = {}
    if tol is not None:
        kwargs["target_tol"] = max(tol, 1e-15)
    if args.max_level is not None:
        kwargs["max_level"] = args.max_level
    return QuadConfig(**kwargs) if kwargs else None


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _format_result(label: str, r: MethodResult) -> str:
    flags = f"  [{','.join(r.flags)}]" if r.flags else ""
    return f"{label:8s} {r.value:.15g}  est {r.error_estimate:.3g}  evals {r.evaluations}{flags}"


def _cmd_gamma(args) -> int:
    tol = _resolve_tol(args)
    cfg = _resolve_cfg(args, tol)
    n, u = args.order, args.argument
    if args.method == "all":
        selected = [m for m, envelope in ENVELOPES.items() if envelope.admits(n, u)]
    else:
        selected = [Method(args.method)]
    for method in selected:
        GammaRequest(n, u, method)
    routes = {
        Method.HASSE: lambda: gamma_hasse(n, u, cfg=cfg),
        Method.COFFEY: lambda: gamma_coffey(n, u, cfg),
        Method.BELL_FAMILY: lambda: gamma_bell_family(n, u, cfg=cfg),
        Method.BREDE: lambda: gamma_brede(n, cfg),
        Method.LIMIT: lambda: gamma_limit(n, args.limit_terms),
    }
    results = {method.value: routes[method]() for method in selected}
    print(f"gamma_{n}(u={u:.15g})")
    for method, r in results.items():
        print(_format_result(method, r))
    spread = None
    if len(results) > 1:
        values = [r.value for r in results.values()]
        spread = max(values) - min(values)
        print(f"max spread {spread:.3g}")
    if args.json is not None:
        payload = {
            "version": __version__,
            "n": n,
            "u": u,
            "results": {
                m: {
                    "value": r.value,
                    "error_estimate": r.error_estimate,
                    "evaluations": r.evaluations,
                    "flags": list(r.flags),
                }
                for m, r in results.items()
            },
        }
        if spread is not None:
            payload["max_spread"] = spread
        _write_json(args.json, payload)
    if any(not r.converged for r in results.values()):
        return EX_NUMERICAL
    return EX_OK


def _cmd_validate(args) -> int:
    tol = _resolve_tol(args)
    # --tol loosens/tightens the check ladder; the quadrature itself always
    # runs at full precision (only --max-level reaches the engine).
    cfg = _resolve_cfg(args, None)
    report = run_suite(args.suite, tol=tol, cfg=cfg)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.check_id}: |diff| {check.difference:.3g}"
            f"  tol {check.tolerance:.3g}"
        )
    summary = report.summary
    print(f"suite {args.suite}: {summary['passed']}/{summary['total']} checks passed")
    if args.json is not None:
        _write_json(args.json, report.as_dict())
    return EX_OK if report.all_passed else EX_NUMERICAL


def _cmd_table(args) -> int:
    tol = _resolve_tol(args)
    cfg = _resolve_cfg(args, tol)
    # The whole range is checked before the header, so a bad bound prints nothing.
    if args.kind == "gamma_n":
        GammaRequest(args.max_n, args.argument, Method.HASSE)
    elif args.kind == "gamma_derivs":
        _require_order(args.max_m, "--max-m", 0, _MAX_DERIVATIVE)
    else:
        _require_order(args.max_n, "--max-n", 0, _MAX_DERIVATIVE)
    rows = []
    converged = True

    def result_row(n: int, r: MethodResult) -> None:
        nonlocal converged
        converged = converged and r.converged
        rows.append(
            {"n": n, "value": r.value, "error_estimate": r.error_estimate, "flags": list(r.flags)}
        )
        flags = "" if r.converged else f"  [{','.join(r.flags)}]"
        print(f"{n:<2d} {r.value:.15g}  est {r.error_estimate:.3g}{flags}")

    if args.kind == "gamma_n":
        print(f"n  gamma_n(u={args.argument:.15g})  [binomial-series route]")
        for n in range(args.max_n + 1):
            result_row(n, gamma_hasse(n, args.argument, cfg=cfg))
    elif args.kind == "brede_coeffs":
        print("n  p_n coefficients (ascending degree)")
        for n in range(args.max_n + 1):
            coeffs = brede_poly(n).coefficients
            rows.append({"n": n, "coefficients": list(coeffs)})
            pretty = "  ".join(f"{c:.15g}" for c in coeffs)
            print(f"{n:<2d} {pretty}")
    elif args.kind == "gamma_derivs":
        print("m  d^m/dx^m Gamma(x) at x=1")
        for m in range(args.max_m + 1):
            value = gamma_derivative_at_one(m)
            rows.append({"m": m, "value": value})
            print(f"{m:<2d} {value:.15g}")
    elif args.kind == "In":
        print("n  I_n = int_0^inf log^n(v) e^{-v} B(v) dv")
        for n in range(args.max_n + 1):
            result_row(n, i_n_integral(n, cfg))
    if args.json is not None:
        _write_json(args.json, {"version": __version__, "kind": args.kind, "rows": rows})
    return EX_OK if converged else EX_NUMERICAL


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except IntegrandError as exc:
        print(f"stieltjes: numerical error: {exc}", file=sys.stderr)
        return EX_NUMERICAL
    except ValueError as exc:
        print(f"stieltjes: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"stieltjes: i/o error: {exc}", file=sys.stderr)
        return EX_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
