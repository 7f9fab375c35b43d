"""Deterministic double-exponential quadrature with an error-estimate contract.

Finite intervals use the tanh-sinh transform x = c + (h/2)(b-a) tanh(lambda
sinh t); the semi-axis [0, inf) uses exp-sinh, x = exp(lambda sinh t), with
lambda = pi/2.  Node density doubles per refinement level; the absolute
difference between the two finest levels is reported (honestly, as a
heuristic) in ``QuadResult.error_estimate``.  Convergence is declared when
successive levels differ by at most ``target_tol * max(1, |S|)``.

An integrand may return one row of samples or a stack of k rows, shape
(k, len(x)).  The nodes do not depend on the integrand, so a stack costs one
pass; each row keeps the value and estimate of the first level at which it
met the test, exactly as if it had been integrated alone.

Numerical policy, all consequences of binary64:

* Abscissas near finite endpoints are generated from their *distance* to the
  endpoint (d = (b-a)/(e^{2z}+1), z = lambda sinh t), so nodes approach the
  endpoints to ~1e-300 instead of collapsing at ~1e-16.  Nodes whose computed
  abscissa still rounds onto an endpoint are dropped; for integrable
  *logarithmic* endpoint singularities the dropped mass is below 1e-15, while
  hard algebraic singularities (x^{-1/2} style) floor around 1e-10.
* Node generation stops where the transformed weight underflows 1e-300;
  on the semi-axis's growing side abscissas are capped at e^668 so the
  weight x*lambda*cosh(t) stays finite, and the integrand's required
  exponential decay has underflowed to exactly 0 long before that cap.
* Any non-finite integrand sample raises :class:`IntegrandError` carrying
  the offending abscissa.

The module also houses the regularized Binet kernel

    B(v) = 1/(e^v - 1) - 1/v + 1/2,    B(v) -> 0 as v -> 0,

whose raw form loses all digits near 0.  For |v| < 1/2 it is evaluated by
its series sum_{j>=1} B_{2j} v^{2j-1}/(2j)! through B_14 (max error ~1e-16,
checked against 50-digit arithmetic); the companion B(v)/v form needed by
the log-gamma integrals is provided with the same switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .specfun import BERN_OVER_FACT, _require_finite, _require_positive

__all__ = [
    "QuadConfig",
    "QuadResult",
    "IntegrandError",
    "integrate_finite",
    "integrate_semiaxis",
    "legendre_relation_check",
    "atan_laplace_check",
    "binet_bracket",
    "binet_bracket_over_v",
]

_LAMBDA = math.pi / 2.0
# Abscissa cap exp(668) for exp-sinh: keeps x and x*lambda*cosh(t) finite.
_ES_ABSCISSA_LOG_CAP = 668.0
_MIN_TOL = 1e-15
# Weight-underflow threshold that ends node generation on a decaying side.
_TRUNCATION_GUARD = 1e-300
# tanh-sinh: the weight underflows the guard once 2 lambda sinh t ~ -log(guard).
_TS_T_MAX = math.asinh(-0.5 * math.log(_TRUNCATION_GUARD) / _LAMBDA)
# exp-sinh: the weight ~ e^z on the decaying side, x = e^z on the growing one.
_ES_T_LO = -math.asinh(-math.log(_TRUNCATION_GUARD) / _LAMBDA)
_ES_T_HI = math.asinh(min(-math.log(_TRUNCATION_GUARD), _ES_ABSCISSA_LOG_CAP) / _LAMBDA)


class IntegrandError(ValueError):
    """An integrand sample came back non-finite (or raised) at ``abscissa``."""

    def __init__(self, abscissa: float, detail: str = "non-finite integrand value"):
        self.abscissa = float(abscissa)
        super().__init__(f"{detail} at abscissa {abscissa!r}")


@dataclass(frozen=True)
class QuadConfig:
    """Engine knobs shared by every integral in the package.

    ``target_tol`` is the level-to-level convergence goal (floored at 1e-15,
    the working precision); ``max_level`` bounds the refinement (level L has
    step 2^-L).
    """

    target_tol: float = 1e-12
    max_level: int = 12

    def __post_init__(self):
        if not self.target_tol >= _MIN_TOL:
            raise ValueError(f"target_tol must be >= {_MIN_TOL}, got {self.target_tol!r}")
        if not 2 <= int(self.max_level) <= 20:
            raise ValueError(f"max_level must be in [2, 20], got {self.max_level!r}")


@dataclass(frozen=True)
class QuadResult:
    """One integral: value, last-two-levels error estimate, sample count.

    ``converged`` is False when ``max_level`` was exhausted before the
    level-difference test was met; the value and estimate are still reported.
    A stacked integrand gives tuples of per-row values and estimates; it is
    ``converged`` only if every row is, and ``evaluations`` counts one pass.
    """

    value: Union[float, Tuple[float, ...]]
    error_estimate: Union[float, Tuple[float, ...]]
    evaluations: int
    converged: bool = True


@lru_cache(maxsize=256)
def _level_grid(level: int, t_lo: float, t_hi: float) -> np.ndarray:
    """Multiples of h = 2^-level in [t_lo, t_hi]; only odd ones for level >= 1.

    Level 0 supplies the integer grid; each later level supplies exactly the
    new nodes of the halved step, so the union over levels 0..L is the full
    grid of step 2^-L.  Cached; treat the returned array as immutable.
    """
    h = 2.0 ** (-level)
    k_min = int(math.ceil(t_lo / h))
    k_max = int(math.floor(t_hi / h))
    k = np.arange(k_min, k_max + 1)
    if level >= 1:
        k = k[k % 2 != 0]
    return k * h


def _eval_samples(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Evaluate f on the node vector, tolerating scalar-only integrands.

    A vectorized f returns shape (len(x),) or a stack of rows (k, len(x)).
    """
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(f(x), dtype=float)
            if out.ndim in (1, 2) and out.shape[-1:] == x.shape:
                return out
        except (TypeError, ValueError, ArithmeticError):
            pass
        out = np.empty_like(x)
        for i, xi in enumerate(x):
            try:
                out[i] = float(f(float(xi)))
            except ArithmeticError as exc:
                raise IntegrandError(xi, f"integrand raised {type(exc).__name__}") from exc
        return out


def _refine(f: Callable, nodes: Callable[[int], tuple], cfg: Optional[QuadConfig]) -> QuadResult:
    """Shared level-doubling driver; ``nodes(L)`` -> the (x, w) new at level L.

    Each row is a [total, estimate, converged] triple of plain floats.
    """
    cfg = cfg if cfg is not None else QuadConfig()
    evaluations = 0
    for level in range(cfg.max_level + 1):
        x, w = nodes(level)
        fx = _eval_samples(f, x)
        bad = ~np.isfinite(fx)
        if bad.any():
            raise IntegrandError(float(x[np.argmax(bad) % len(x)]))
        evaluations += len(x)
        h = 2.0 ** (-level)
        sums = (fx * w).sum(axis=-1).tolist()
        stacked = fx.ndim == 2
        pieces = [h * s for s in sums] if stacked else [h * sums]
        if level == 0:
            rows = [[piece, math.inf, False] for piece in pieces]
            pending = len(rows)
            continue
        for row, piece in zip(rows, pieces):
            if not row[2]:
                total = 0.5 * row[0] + piece
                row[1] = abs(total - row[0])
                row[0] = total
                if level >= 2 and row[1] <= cfg.target_tol * max(1.0, abs(total)):
                    row[2] = True
                    pending -= 1
        if not pending:
            break
    values, estimates, converged = zip(*rows)
    if stacked:
        return QuadResult(values, estimates, evaluations, all(converged))
    return QuadResult(values[0], estimates[0], evaluations, converged[0])


def integrate_finite(
    f: Callable, a: float, b: float, cfg: Optional[QuadConfig] = None
) -> QuadResult:
    """tanh-sinh integral of f over the finite interval (a, b).

    Endpoints are never sampled; integrable endpoint singularities are
    admissible (see the module docstring for the binary64 accuracy caveats).
    Non-finite samples raise :class:`IntegrandError`.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got a={a!r}, b={b!r}")
    half = 0.5 * (b - a)

    def nodes(level: int):
        t = _level_grid(level, -_TS_T_MAX, _TS_T_MAX)
        z = _LAMBDA * np.sinh(t)
        upper = t >= 0
        offset = half * 2.0 / (np.exp(2.0 * np.abs(z)) + 1.0)
        x = np.where(upper, b - offset, a + offset)
        keep = (x > a) & (x < b)
        t, z, x = t[keep], z[keep], x[keep]
        return x, half * _LAMBDA * np.cosh(t) / np.cosh(z) ** 2

    return _refine(f, nodes, cfg)


def integrate_semiaxis(f: Callable, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """exp-sinh integral of f over (0, inf).

    The integrand must decay exponentially at infinity and may grow at most
    like a power of log at 0.  Non-finite samples raise
    :class:`IntegrandError`.
    """

    def nodes(level: int):
        t = _level_grid(level, _ES_T_LO, _ES_T_HI)
        z = _LAMBDA * np.sinh(t)
        keep = z < _ES_ABSCISSA_LOG_CAP
        t, z = t[keep], z[keep]
        x = np.exp(z)
        return x, x * _LAMBDA * np.cosh(t)

    return _refine(f, nodes, cfg)


# --- regularized Binet kernel ------------------------------------------------

# Series coefficients B_{2j}/(2j)!, j = 1..7; with the series cut after B_14
# the truncation error at |v| = 1/2 is ~2e-15 of the next (B_16) term, i.e.
# ~1e-17 absolute.
_BRACKET_SWITCH = 0.5


def _bracket_series_over_v(v2: np.ndarray) -> np.ndarray:
    """sum_j B_{2j} v^{2j-2}/(2j)! as a Horner polynomial in v^2."""
    acc = np.full_like(v2, BERN_OVER_FACT[-1])
    for c in BERN_OVER_FACT[-2::-1]:
        acc = acc * v2 + c
    return acc


def _binet(v, over_v: bool):
    """B(v), or B(v)/v, with the series below |v| = 1/2; scalar in, scalar out."""
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    small = np.abs(v) < _BRACKET_SWITCH
    vs = np.where(small, v, 1.0)
    series = _bracket_series_over_v(vs * vs)
    with np.errstate(over="ignore", divide="ignore"):
        vr = np.where(small, 1.0, v)
        raw = 1.0 / np.expm1(vr) - 1.0 / vr + 0.5
        out = np.where(small, series, raw / vr) if over_v else np.where(small, vs * series, raw)
    return float(out[0]) if scalar else out


def binet_bracket(v):
    """B(v) = 1/(e^v - 1) - 1/v + 1/2, series-evaluated for |v| < 1/2.

    Vectorized; scalar in, scalar out.  Absolute error <= ~2e-16 everywhere
    on (0, inf) including the cancellation-prone origin.
    """
    return _binet(v, over_v=False)


def binet_bracket_over_v(v):
    """B(v)/v with the removable singularity at 0 evaluated by series.

    B(v)/v -> 1/12 as v -> 0; this is the kernel shape of the log-gamma /
    zeta-derivative integrals, where dividing the raw bracket by a subnormal
    v would overflow.
    """
    return _binet(v, over_v=True)


# --- oscillatory identity residuals -----------------------------------------


def legendre_relation_check(t: float, cfg: Optional[QuadConfig] = None) -> float:
    """Residual |2 int_0^inf sin(x t)/(e^{2 pi x} - 1) dx - (coth(t/2)/2 - 1/t)|.

    The oscillation is tame because e^{-2 pi x} decay dominates; the residual
    is the analytic zero of the identity and is returned for the harness.
    """
    t = _require_positive(t, "t")

    def f(x):
        return np.sin(x * t) / np.expm1(2.0 * math.pi * x)

    result = integrate_semiaxis(f, cfg)
    closed = 0.5 / math.tanh(0.5 * t) - 1.0 / t
    return abs(2.0 * result.value - closed)


def atan_laplace_check(u: float, x: float, cfg: Optional[QuadConfig] = None) -> float:
    """Residual |int_0^inf e^{-u y} sin(x y)/y dy - atan(x/u)|.

    The y -> 0 limit of the integrand is x; the engine never samples y = 0,
    and sin(x y)/y is stable down to subnormal y, so no special-casing is
    required at runtime.
    """
    u = _require_positive(u, "u")
    x = _require_finite(x, "x")

    def f(y):
        return np.exp(-u * y) * np.sin(x * y) / y

    result = integrate_semiaxis(f, cfg)
    return abs(result.value - math.atan2(x, u))
