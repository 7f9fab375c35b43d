"""Cross-validation suites: every identity the library asserts, as data.

Each check evaluates two independent routes to the same quantity (or a
value and its analytic bound) and records both sides, the absolute
difference, the tolerance, and pass/fail in a :class:`CheckRecord`.  The
suites are pure generators yielding records in a fixed, deterministic
order, so two runs of the same version produce byte-identical reports::

    bell        exact combinatorial identities (differences are exactly 0)
    quad        quadrature engine against closed-form integrals
    stieltjes   cross-method gamma_n(u) agreement, Hurwitz evaluators
    alteta      alternating-zeta web: damped sums vs. Stieltjes forms
    identities  Lerch, quarter-integral, inversion, positivity, Appell,
                gamma-bridge, Barnes recursion

A check id is the check name followed by its inputs in order, as in
``stieltjes.cross_method(n=3,u=0.5)``, or the bare name for a check
without inputs.

``run_suite`` assembles a :class:`ValidationReport`; a single ``tol``
override replaces every record's tolerance (the positivity margins keep
their semantics: the override widens the allowed margin violation).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from . import __version__
from .alteta import (
    alt_deriv_at_1,
    alt_zeta,
    alt_zeta_hasse,
    euler_constant_59,
    gamma1_via_alt,
    gamma_half_closed,
    half_shift_check,
    stieltjes_sum_over_fractions,
)
from .bellpoly import (
    bell_number,
    complete_bell,
    eval_bell,
    gamma_derivative_at_one,
    inv_gamma_derivative_at_zero,
)
from .core import (
    FLAG_NO_CONVERGENCE,
    _inversion_sum_side,
    _moment_convolution,
    MethodResult,
    barnes_g_log,
    brede_poly,
    delta_n,
    gamma_bell_family,
    gamma_brede,
    gamma_coffey,
    gamma_hasse,
    gamma_limit,
    gamma_value,
    hurwitz_hermite,
    hurwitz_laplace,
    i_n_integral,
    zeta_prime0,
    zeta_second0,
)
from .quad import (
    QuadConfig,
    QuadResult,
    atan_laplace_check,
    binet_bracket,
    binet_bracket_over_v,
    integrate_finite,
    integrate_semiaxis,
    legendre_relation_check,
)
from .specfun import digamma, hurwitz_zeta_series, log_gamma

__all__ = [
    "CheckRecord",
    "ValidationReport",
    "SUITE_NAMES",
    "run_suite",
]

SUITE_NAMES = ("bell", "quad", "stieltjes", "alteta", "identities", "all")


@dataclass(frozen=True)
class CheckRecord:
    """One two-sided comparison: |left - right| <= tolerance, plus context."""

    check_id: str
    inputs: Tuple[Tuple[str, float], ...]
    left: float
    right: float
    difference: float
    tolerance: float
    evaluations: int = 0
    flags: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """Within tolerance, and no run behind either side left unconverged."""
        return self.difference <= self.tolerance and FLAG_NO_CONVERGENCE not in self.flags

    def as_dict(self) -> Dict:
        return {
            "check_id": self.check_id,
            "inputs": dict(self.inputs),
            "left": self.left,
            "right": self.right,
            "difference": self.difference,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "evaluations": self.evaluations,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class ValidationReport:
    """A suite run: version, UTC timestamp, records, and pass/fail counts."""

    version: str
    timestamp: str
    suite: str
    checks: Tuple[CheckRecord, ...]

    @property
    def summary(self) -> Dict[str, int]:
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed, "failed": len(self.checks) - passed}

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> Dict:
        return {
            "version": self.version,
            "timestamp": self.timestamp,
            "suite": self.suite,
            "checks": [c.as_dict() for c in self.checks],
            "summary": self.summary,
        }


_RUN_TYPES = (QuadResult, MethodResult)


def _run_flags(run) -> Tuple[str, ...]:
    if isinstance(run, MethodResult):
        return run.flags
    return () if run.converged else (FLAG_NO_CONVERGENCE,)


def _check(
    name: str,
    inputs: Dict[str, float],
    left,
    right,
    tolerance: float,
    context: Optional[Dict[str, float]] = None,
    runs=(),
    difference: Optional[float] = None,
) -> CheckRecord:
    """Build the record of one check.

    The id shows ``inputs`` in insertion order; ``context`` holds further
    inputs that the record keeps but the id does not show.  A side that is
    a :class:`QuadResult` or :class:`MethodResult` stands for its value and
    brings its evaluations and flags, as does each extra result in ``runs``.
    ``difference`` defaults to |left - right|.
    """
    shown = ",".join(f"{key}={value:g}" for key, value in inputs.items())
    runs = [side for side in (left, right, *runs) if isinstance(side, _RUN_TYPES)]
    left, right = (float(s.value if isinstance(s, _RUN_TYPES) else s) for s in (left, right))
    return CheckRecord(
        check_id=f"{name}({shown})" if shown else name,
        inputs=tuple(sorted({**inputs, **(context or {})}.items())),
        left=left,
        right=right,
        difference=float(abs(left - right) if difference is None else difference),
        tolerance=float(tolerance),
        evaluations=sum(run.evaluations for run in runs),
        flags=tuple(sorted({flag for run in runs for flag in _run_flags(run)})),
    )


# --- suite: bell (exact arithmetic, all differences identically zero) -------

_BELL_NUMBERS = (1, 1, 2, 5, 15, 52, 203)
_PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def suite_bell(cfg: Optional[QuadConfig] = None) -> Iterator[CheckRecord]:
    for n, literal in enumerate(_BELL_NUMBERS):
        yield _check("bell.number", {"n": n}, bell_number(n), literal, 0.0)
    for n in range(11):
        poly = complete_bell(n)
        yield _check("bell.partition_count", {"n": n}, len(poly.terms), _PARTITION_COUNTS[n], 0.0)
        yield _check("bell.evaluate_ones", {"n": n}, poly.evaluate((1,) * n), bell_number(n), 0.0)
    for n in range(1, 11):
        xs = tuple(Fraction(1, j) for j in range(1, n + 1))
        ys = tuple(Fraction(j, j + 2) for j in range(1, n + 1))
        expanded = complete_bell(n).evaluate(xs)
        recurred = eval_bell(n, xs)
        yield _check("bell.recurrence_vs_expansion", {"n": n}, expanded, recurred, 0.0)
        c = Fraction(2)
        scaled = eval_bell(n, tuple(c**j * x for j, x in enumerate(xs, start=1)))
        yield _check("bell.homogeneity", {"n": n}, scaled, c**n * recurred, 0.0)
        # Negation convolution: sum_j C(n,j) Y_j(x) Y_{n-j}(-x) = 0, n >= 1.
        negation = sum(
            comb(n, j)
            * eval_bell(j, xs[:j])
            * eval_bell(n - j, tuple(-x for x in xs[: n - j]))
            for j in range(n + 1)
        )
        yield _check("bell.negation_convolution", {"n": n}, negation, 0.0, 0.0)
        # Binomial convolution: Y_n(x+y) = sum_k C(n,k) Y_{n-k}(x) Y_k(y).
        joint = eval_bell(n, tuple(x + y for x, y in zip(xs, ys)))
        convolved = sum(
            comb(n, k) * eval_bell(n - k, xs[: n - k]) * eval_bell(k, ys[:k])
            for k in range(n + 1)
        )
        yield _check("bell.binomial_convolution", {"n": n}, joint, convolved, 0.0)
        # First-argument shift: Y_n(x_1+a, x_2, ...) = sum_k C(n,k) a^k Y_{n-k}(x).
        a = Fraction(3, 2)
        shifted = eval_bell(n, (xs[0] + a,) + xs[1:])
        shift_sum = sum(
            comb(n, k) * a**k * eval_bell(n - k, xs[: n - k]) for k in range(n + 1)
        )
        yield _check("bell.first_shift", {"n": n}, shifted, shift_sum, 0.0)


# --- suite: quad ------------------------------------------------------------


def suite_quad(cfg: Optional[QuadConfig] = None) -> Iterator[CheckRecord]:
    for n in range(7):
        yield _check(
            "quad.log_moment_finite",
            {"n": n},
            integrate_finite(lambda v, n=n: v * np.log(v) ** n, 0.0, 1.0, cfg),
            (-1.0) ** n * factorial(n) / 2.0 ** (n + 1),
            1e-13 * max(1.0, factorial(n)),
        )
    unit = integrate_finite(lambda v: np.full_like(v, 1.0), 0.0, 1.0, cfg)
    yield _check("quad.unit", {}, unit, 1.0, 1e-14)
    cubic = integrate_finite(lambda v: 3.0 * v**3 - 2.0 * v + 1.0, 0.0, 1.0, cfg)
    yield _check("quad.cubic_exactness", {}, cubic, 0.75, 1e-14)
    euler = integrate_finite(lambda t: 1.0 / np.log(t) + 1.0 / (1.0 - t), 0.0, 1.0, cfg)
    yield _check("quad.euler_integral", {}, euler, float(np.euler_gamma), 1e-12)
    loglog = integrate_finite(
        lambda t: np.log(-np.log(t)) * (1.0 / np.log(t) + 1.0 / (1.0 - t)), 0.0, 1.0, cfg
    )
    yield _check(
        "quad.loglog_integral",
        {},
        loglog,
        -gamma_value(1, 1.0) - float(np.euler_gamma) ** 2,
        1e-11,
    )
    for k in range(6):

        def moment(v, k=k):
            vc = np.minimum(v, 700.0)
            return np.where(v > 700.0, 0.0, vc**k * np.exp(-vc))

        yield _check(
            "quad.gamma_moment",
            {"k": k},
            integrate_semiaxis(moment, cfg),
            factorial(k),
            1e-13 * max(1.0, factorial(k)),
        )
    log_moment = integrate_semiaxis(lambda v: np.exp(-v) * np.log(v), cfg)
    yield _check("quad.log_moment_semiaxis", {}, log_moment, -float(np.euler_gamma), 1e-13)
    for v in (0.1, 0.3, 0.49, 0.51, 1.0, 5.0):
        odd = binet_bracket(v) + binet_bracket(-v)
        yield _check("quad.bracket_odd", {"v": v}, odd, 0.0, 1e-15)
    for t in (0.5, 1.0, 2.0):
        residual = legendre_relation_check(t, cfg)
        yield _check("quad.legendre_residual", {"t": t}, residual, 0.0, 1e-13)
    for u, x in ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0)):
        residual = atan_laplace_check(u, x, cfg)
        yield _check("quad.atan_laplace", {"u": u, "x": x}, residual, 0.0, 1e-12)


# --- suite: stieltjes -------------------------------------------------------

_CROSS_GRID = tuple((n, u) for u in (0.5, 1.0, 1.5, 2.0) for n in range(6))


def _bare_kernel(v):
    """B(v) - 1/2; one object, so its tables on the nodes are built once."""
    return binet_bracket(v) - 0.5


def suite_stieltjes(cfg: Optional[QuadConfig] = None) -> Iterator[CheckRecord]:
    for n, u in _CROSS_GRID:
        runs = [
            gamma_hasse(n, u, cfg=cfg),
            gamma_coffey(n, u, cfg),
            gamma_bell_family(n, u, cfg=cfg),
        ]
        if u == 1.0:
            runs.append(gamma_brede(n, cfg))
        values = [r.value for r in runs]
        yield _check(
            "stieltjes.cross_method", {"n": n, "u": u}, max(values), min(values), 1e-8, runs=runs
        )
    for u in (0.5, 1.0, 2.0):
        coffey = gamma_coffey(1, u, cfg)
        yield _check("stieltjes.hermite1", {"u": u}, coffey, gamma_value(1, u), 1e-9)
    for n in (0, 1):
        limit = gamma_limit(n, 10**6)
        yield _check("stieltjes.limit", {"n": n}, limit, gamma_value(n, 1.0), 1e-7, {"r": 10**6})
    for s in (-0.5, 0.5, 2.0, 3.0):
        for u in (0.5, 1.0, 2.0):
            yield _check(
                "stieltjes.hurwitz_pair",
                {"s": s, "u": u},
                hurwitz_hermite(s, u, cfg),
                hurwitz_laplace(s, u, cfg),
                1e-8,
            )
    for s in (2.0, 3.0):
        for u in (0.5, 1.0, 2.0):
            yield _check(
                "stieltjes.hurwitz_series",
                {"s": s, "u": u},
                hurwitz_hermite(s, u, cfg),
                hurwitz_zeta_series(s, u),
                1e-10,
            )
    for n, tol in ((0, 1e-15), (1, 1e-5)):
        yield _check("stieltjes.delta", {"n": n}, *delta_n(n), tol, {"m": 10**6})
    # The Bell family with kernel B - 1/2 (its prefactor is 0 at u = 1, n >= 1).
    for n in (1, 2, 3):
        bare, _, _, r = _moment_convolution(_bare_kernel, n, 1.0, cfg)
        half = gamma_bell_family(n, 1.0, cfg=cfg)
        yield _check("stieltjes.bare_kernel", {"n": n}, bare, half, 1e-10, runs=(r,))
    for u in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
        yield _check("stieltjes.digamma", {"u": u}, gamma_value(0, u), -digamma(u), 1e-10)
    for k in range(5):
        for x in (0.5, 1.0, 2.0):
            yield _check(
                "stieltjes.shift",
                {"k": k, "x": x},
                gamma_value(k, 1.0 + x) - gamma_value(k, x),
                -(math.log(x) ** k) / x,
                1e-8,
            )
    yield _check(
        "stieltjes.zeta_second0_shift", {}, zeta_second0(1.0, cfg), zeta_second0(2.0, cfg), 1e-12
    )


# --- suite: alteta ----------------------------------------------------------


def suite_alteta(cfg: Optional[QuadConfig] = None) -> Iterator[CheckRecord]:
    for x in (0.5, 1.0, 2.0):
        eta = alt_zeta(1.0, x)
        yield _check("alteta.limit_s1", {"x": x}, eta, alt_zeta_hasse(1.0, x, 0), 1e-12)
    for s in (1.5, 2.0, 3.0):
        for x in (0.5, 1.0, 2.0):
            yield _check(
                "alteta.parity", {"s": s, "x": x}, alt_zeta(s, x), alt_zeta_hasse(s, x, 0), 1e-10
            )
    yield _check("alteta.eta_at_2", {}, alt_zeta(2.0, 1.0), math.pi**2 / 12.0, 1e-12)
    for n in (0, 1, 2, 3):
        for x in (1.0, 2.0):
            tol = 1e-8 * 10.0**n if n <= 2 else 1e-6
            yield _check("alteta.deriv_pair", {"n": n, "x": x}, *alt_deriv_at_1(n, x), tol)
    yield _check("alteta.euler_59", {}, euler_constant_59(), gamma_value(0, 1.0), 1e-8)
    yield _check("alteta.gamma1_sums", {}, gamma1_via_alt(), gamma_value(1, 1.0), 1e-7)
    for p in range(5):
        yield _check("alteta.gamma_half", {"p": p}, gamma_half_closed(p), gamma_value(p, 0.5), 1e-7)
    for p in (0, 1, 2):
        for q in (2, 3, 4):
            sides = stieltjes_sum_over_fractions(p, q)
            yield _check("alteta.fractions", {"p": p, "q": q}, *sides, 1e-6)
    for k in range(6):
        yield _check("alteta.half_shift", {"k": k}, half_shift_check(k), 0.0, 1e-7)


# --- suite: identities ------------------------------------------------------


def suite_identities(cfg: Optional[QuadConfig] = None) -> Iterator[CheckRecord]:
    g = float(np.euler_gamma)
    zeta2 = math.pi**2 / 6.0
    for u in (0.25, 0.5, 1.0, 2.0, 5.0):
        yield _check(
            "identities.lerch",
            {"u": u},
            zeta_prime0(u, cfg),
            log_gamma(u) - 0.5 * math.log(2.0 * math.pi),
            1e-9,
        )
    quarter = integrate_semiaxis(lambda v: -np.expm1(-v) / v * binet_bracket_over_v(v), cfg)
    yield _check("identities.quarter_integral", {}, quarter, 0.25, 1e-10)
    # I_n = int log^n(v) e^{-v} B(v) dv for n = 0..12, each integrated once:
    # the integral side of the u = 1 inversion identity for n <= 6, and the
    # sign pattern below.
    moments = [i_n_integral(n, cfg) for n in range(13)]
    inversions = [(_inversion_sum_side(n, 1.0), moments[n].value) for n in range(7)]
    for n, sides in enumerate(inversions):
        yield _check("identities.inversion", {"n": n}, *sides, 1e-7)
    closed_forms = {
        0: g - 0.5,
        1: -g * g - gamma_value(1, 1.0) + 0.5 * g,
        2: (g - 0.5) * (g * g + zeta2)
        + 2.0 * g * gamma_value(1, 1.0)
        + gamma_value(2, 1.0),
    }
    for n, closed in closed_forms.items():
        yield _check("identities.inversion_closed", {"n": n}, inversions[n][0], closed, 1e-9)
    # Sign structure of I_n = int log^n(v) e^{-v} B(v) dv: the (1, inf) piece
    # is positive for every n and dominates through n = 4; from n = 5 the
    # (0, 1) piece (negative for odd n, since log^n < 0 there while the
    # kernel stays positive) wins for odd orders.  Established sign pattern:
    # positive for even n and for n in {1, 3}; negative for odd n >= 5.
    # Positivity with margin: the signed value must exceed its own error
    # estimate, so the difference is the violation max(0, estimate - value)
    # and the tolerance is 0.
    for n, result in enumerate(moments):
        sign = -1.0 if (n % 2 == 1 and n >= 5) else 1.0
        signed = dataclasses.replace(result, value=sign * result.value)
        violation = max(0.0, signed.error_estimate - signed.value)
        yield _check(
            "identities.sign_pattern",
            {"n": n},
            signed,
            signed.error_estimate,
            0.0,
            {"sign": sign},
            difference=violation,
        )
    # a_m: each side of the u = 1 inversion identity plus Gamma^{(m)}(1)/2, integral side first.
    for m, sides in enumerate(inversions):
        a_m = [side + 0.5 * gamma_derivative_at_one(m) for side in reversed(sides)]
        yield _check("identities.gamma_bridge", {"m": m}, *a_m, 1e-8)
    for m in range(7):
        yield _check(
            "identities.gamma_derivative_quadrature",
            {"m": m},
            integrate_semiaxis(lambda v, m=m: np.exp(-v) * np.log(v) ** m, cfg),
            gamma_derivative_at_one(m),
            1e-8,
        )
    for n in range(11):
        terms = [
            comb(n, k) * inv_gamma_derivative_at_zero(k) * gamma_derivative_at_one(n - k)
            for k in range(n + 1)
        ]
        scale = sum(abs(t) for t in terms)
        yield _check(
            "identities.convolution",
            {"n": n},
            math.fsum(terms),
            1.0 if n == 0 else 0.0,
            1e-13 * max(1.0, scale),
        )
    closed_coeffs = {
        0: (1.0,),
        1: (-g, 1.0),
        2: (g * g - zeta2, -2.0 * g, 1.0),
    }
    for n, coeffs in closed_coeffs.items():
        poly = brede_poly(n)
        for k, want in enumerate(coeffs):
            got = poly.coefficients[k]
            yield _check("identities.brede_closed", {"n": n, "k": k}, got, want, 1e-12)
    for n in range(1, 11):
        deriv = brede_poly(n).derivative().coefficients
        scaled = tuple(n * c for c in brede_poly(n - 1).coefficients)
        worst = max(abs(a - b) for a, b in zip(deriv, scaled))
        scale = max(1.0, max(abs(c) for c in scaled))
        yield _check("identities.appell", {"n": n}, worst, 0.0, 1e-12 * scale)
    for n in range(6):
        poly = brede_poly(n)
        for x in (0.0, 1.0, 2.0):
            # Appell binomial shift against the plain e^{-z} weight: x^n.
            yield _check(
                "identities.brede_unit_moment",
                {"n": n, "x": x},
                integrate_semiaxis(lambda v, poly=poly, x=x: poly(x - np.log(v)) * np.exp(-v), cfg),
                x**n,
                1e-8,
            )
            # Same shift against the gamma-generating weight: binomials of
            # gamma-values.
            r = integrate_semiaxis(
                lambda v, poly=poly, x=x: poly(x - np.log(v))
                * np.exp(-v)
                * (binet_bracket(v) + 0.5),
                cfg,
            )
            moment = math.fsum(
                comb(n, k) * x**k * gamma_value(n - k, 1.0) for k in range(n + 1)
            )
            yield _check("identities.brede_gamma_moment", {"n": n, "x": x}, r, moment, 1e-8)
    for t, want in ((1.0, 0.0), (2.0, 0.0), (3.0, math.log(2.0))):
        yield _check("identities.barnes_literal", {"t": t}, barnes_g_log(t, cfg), want, 1e-11)
    for t in (1.5, 2.5):
        yield _check(
            "identities.barnes_recursion",
            {"t": t},
            barnes_g_log(t, cfg) - barnes_g_log(t - 1.0, cfg),
            log_gamma(t),
            1e-10,
        )


_SUITES: Dict[str, Callable[[Optional[QuadConfig]], Iterator[CheckRecord]]] = {
    "bell": suite_bell,
    "quad": suite_quad,
    "stieltjes": suite_stieltjes,
    "alteta": suite_alteta,
    "identities": suite_identities,
}


def run_suite(
    name: str,
    *,
    tol: Optional[float] = None,
    cfg: Optional[QuadConfig] = None,
) -> ValidationReport:
    """Run one named suite (or ``"all"``) and assemble the report.

    ``tol`` replaces the per-check tolerance everywhere (pass/fail follows
    from it); ``cfg`` is forwarded to every quadrature-backed check.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = list(_SUITES) if name == "all" else [name]
    checks = [check for suite_name in names for check in _SUITES[suite_name](cfg)]
    if tol is not None:
        checks = [dataclasses.replace(c, tolerance=float(tol)) for c in checks]
    return ValidationReport(
        version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        suite=name,
        checks=tuple(checks),
    )
