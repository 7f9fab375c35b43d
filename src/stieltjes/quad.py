"""Deterministic double-exponential quadrature with an error-estimate contract.

One node family serves every integral: exp-sinh on the semi-axis [0, inf),
y = exp(lambda sinh t) with lambda = pi/2.  A finite interval (a, b) is its
image under y^2/(1 + y^2) = (1 + tanh(lambda sinh t))/2, which is tanh-sinh
on the same t lattice (Takahasi & Mori 1974).  Node density doubles per
refinement level; the absolute difference between the two finest levels is
reported (honestly, as a heuristic) in ``QuadResult.error_estimate``.
Convergence is declared when successive levels differ by at most
``target_tol * max(1, |S|)`` and S is finite.

Integrands must be vectorized: f(x) takes the whole node array and returns
one row of samples, shape (len(x),), or a stack of k rows, (k, len(x)); any
other shape raises :class:`IntegrandError`, and f's own exceptions pass
through.  A stack costs one pass, since the nodes do not depend on f, and
comes back as a tuple of k :class:`QuadResult`, one per row.  Each row
keeps the value and estimate of the first level at which it met the test
(``QuadResult.level``; ``max_level`` for a row that never met it) and the
evaluations through that level, so its result equals the one it gets
integrated alone.

Numerical policy, all consequences of binary64:

* Abscissas near finite endpoints are generated from their *distance* to the
  nearer endpoint, (b-a) s with s = r^2/(1 + r^2) and r = min(y, 1/y), so
  nodes approach the endpoints to ~1e-300 instead of collapsing at ~1e-16.
  Nodes whose computed abscissa still rounds onto an endpoint are dropped;
  for integrable *logarithmic* endpoint singularities the dropped mass is
  below 1e-15, while hard algebraic singularities (x^{-1/2} style) floor
  around 1e-10.
* Node generation stops where the transformed weight underflows 1e-300: on
  the semi-axis's decaying side, and on a finite interval where s does;
  on the semi-axis's growing side abscissas are capped at e^668 so the
  weight x*lambda*cosh(t) stays finite, and the integrand's required
  exponential decay has underflowed to exactly 0 long before that cap.
* Any non-finite integrand sample raises :class:`IntegrandError` carrying
  the offending abscissa.

Arrays that depend on the level alone are computed once per process, on
first use, and kept read-only: the exp-sinh x, w and log x, each moment
kernel K(x) of :func:`_log_moments`, and the Abel-Plana clamped nodes,
cutoff mask and expm1(2 pi x).  Only levels up to the default ``max_level``
(12; ~55k nodes, < 0.5 MB per array) are kept; deeper levels are built for
the call and dropped.  Each integrand forms the same products in the same
order as it would from scratch, so the tables change no value.

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
from typing import Callable, Optional

import numpy as np

from .specfun import BERN_OVER_FACT, _require_finite, _require_order, _require_positive

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
# Weight-underflow threshold that ends node generation on a decaying side,
# and the least distance to an endpoint, over b - a, of a finite node.
_TRUNCATION_GUARD = 1e-300
# exp-sinh: the weight ~ e^z on the decaying side, x = e^z on the growing one.
_ES_T_LO = -math.asinh(-math.log(_TRUNCATION_GUARD) / _LAMBDA)
_ES_T_HI = math.asinh(min(-math.log(_TRUNCATION_GUARD), _ES_ABSCISSA_LOG_CAP) / _LAMBDA)
# Past this x, e^{-2 pi x} has underflowed: Abel-Plana integrands are 0.
_WEIGHT_CUTOFF = 200.0
# Past t = this, e^{-t} is 0 in binary64: integrands mask those nodes.
_EXP_DEAD = 800.0


class IntegrandError(ValueError):
    """A sample came back non-finite at ``abscissa``, or f(x) had the wrong shape."""

    def __init__(self, abscissa: float, detail: str = "non-finite integrand value"):
        self.abscissa = float(abscissa)
        super().__init__(f"{detail} at abscissa {abscissa!r}")


@dataclass(frozen=True)
class QuadConfig:
    """Engine knobs shared by every integral in the package.

    ``target_tol`` is the level-to-level convergence goal; the constructor
    rejects values below ``_MIN_TOL`` = 1e-15, the working precision.
    ``max_level`` bounds the refinement (level L has step 2^-L).
    """

    target_tol: float = 1e-12
    max_level: int = 12

    def __post_init__(self):
        if not self.target_tol >= _MIN_TOL:
            raise ValueError(f"target_tol must be >= {_MIN_TOL}, got {self.target_tol!r}")
        object.__setattr__(self, "target_tol", _require_finite(self.target_tol, "target_tol"))
        object.__setattr__(self, "max_level", _require_order(self.max_level, "max_level", 2, 20))


@dataclass(frozen=True)
class QuadResult:
    """One integrated row: value, last-two-levels error estimate, the
    samples through the refinement level whose value is reported, and that
    level.

    ``converged`` is False when ``max_level`` was exhausted before the
    level-difference test was met; the value and estimate are still reported,
    and ``level`` is ``max_level``.  A stacked integrand gives one result
    per row.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    level: int


# Level-only arrays are kept per process up to the default max_level: all of
# levels 0..12 hold ~55k exp-sinh nodes (~0.45 MB per array), while level 20
# alone adds ~7M, so deeper levels are built for each call and dropped.
_KEPT_LEVELS = QuadConfig.max_level


def _kept(table: Callable, level: int, *key):
    """table(level, *key) for an ``lru_cache``'d builder of level-only arrays:
    cached up to _KEPT_LEVELS, built afresh and dropped past it."""
    return (table if level <= _KEPT_LEVELS else table.__wrapped__)(level, *key)


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _level_sums(sample: Callable, x: np.ndarray, w: np.ndarray, level: int):
    """sum_i f(x_i) w_i for sample(x, level): a float for one row of samples,
    shape (len(x),), a list of floats for a stack of rows, shape (k, len(x)).
    A non-finite sample raises IntegrandError; a sum that overflows is inf,
    without a warning, and _refine never calls it converged."""
    with np.errstate(all="ignore"):
        fx = np.asarray(sample(x, level), dtype=float)
        if fx.ndim not in (1, 2) or fx.shape[-1:] != x.shape:
            detail = f"integrand returned shape {fx.shape} for {x.shape} nodes"
            raise IntegrandError(x[0], detail)
        bad = ~np.isfinite(fx)
        if bad.any():
            raise IntegrandError(float(x[np.argmax(bad) % len(x)]))
        return (fx * w).sum(axis=-1).tolist()


def _refine(sample: Callable, nodes: Callable[[int], tuple], cfg: Optional[QuadConfig]):
    """Shared level-doubling driver; ``nodes(L)`` -> the (x, w) new at level L,
    ``sample(x, L)`` -> the integrand on them, so that an integrand can look
    up its own level-only arrays.

    Returns one :class:`QuadResult` per integrand row: the result for one
    row of samples, a tuple of them for a stack.  A row reports the level
    it stopped at (``max_level`` if it never converged) and the evaluations
    through that level; a row whose total is not finite stays unconverged.
    """
    cfg = cfg if cfg is not None else QuadConfig()
    evaluations = 0
    for level in range(cfg.max_level + 1):
        x, w = nodes(level)
        sums = _level_sums(sample, x, w, level)
        evaluations += len(x)
        h = 2.0 ** (-level)
        stacked = isinstance(sums, list)
        pieces = [h * s for s in sums] if stacked else [h * sums]
        if not all(map(math.isfinite, pieces)):
            # On a finite interval near 1e308 wide, sum f w can overflow where
            # sum f (h w) does not; a piece that is still inf stays unconverged.
            sums = _level_sums(sample, x, h * w, level)
            pieces = sums if stacked else [sums]
        if level == 0:
            # [value, error_estimate, evaluations, converged, level], as QuadResult
            rows = [[piece, math.inf, 0, False, cfg.max_level] for piece in pieces]
            pending = len(rows)
            continue
        for row, piece in zip(rows, pieces):
            if not row[3]:
                total = 0.5 * row[0] + piece
                row[1] = abs(total - row[0])
                row[0] = total
                tol = cfg.target_tol * max(1.0, abs(total))
                if level >= 2 and row[1] <= tol and math.isfinite(total):
                    row[2:] = evaluations, True, level
                    pending -= 1
        if not pending:
            break
    for row in rows:
        if not row[3]:
            row[2] = evaluations
    # A tuple of a list, not of a generator, keeps repeated passes' memory flat.
    results = [QuadResult(*row) for row in rows]
    return tuple(results) if stacked else results[0]


def integrate_finite(
    f: Callable, a: float, b: float, cfg: Optional[QuadConfig] = None
) -> QuadResult | tuple:
    """tanh-sinh integral of f over the finite interval (a, b).

    Endpoints are never sampled; integrable endpoint singularities are
    admissible (see the module docstring for the binary64 accuracy caveats).
    b - a must be finite and some binary64 value must lie strictly between
    a and b.  Non-finite samples raise :class:`IntegrandError`.  A stacked
    f gives a tuple of results, one per row.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got a={a!r}, b={b!r}")
    width = b - a
    if not math.isfinite(width):
        raise ValueError(f"b - a overflows binary64, got a={a!r}, b={b!r}")
    if math.nextafter(a, b) == b:
        raise ValueError(f"no binary64 value lies strictly between a={a!r} and b={b!r}")

    def nodes(level: int):
        y, w = _kept(_es_nodes, level)[:2]
        r = np.minimum(y, 1.0 / y)
        s = r * r / (1.0 + r * r)  # distance to the nearer endpoint over b - a
        x = np.where(y < 1.0, a + width * s, b - width * s)
        w = width * (2.0 * s) * (1.0 - s) * (w / y)  # tanh-sinh weight
        keep = (s >= _TRUNCATION_GUARD) & (x > a) & (x < b)
        return x[keep], w[keep]

    return _refine(lambda x, level: f(x), nodes, cfg)


@lru_cache(maxsize=None)
def _es_nodes(level: int) -> tuple:
    """The exp-sinh (x, w, log x) new at ``level``: t = k 2^-level in
    [_ES_T_LO, _ES_T_HI], odd k only for level >= 1, so levels 0..L make the
    full grid of step 2^-L.  Read-only; look them up through :func:`_kept`."""
    h = 2.0 ** (-level)
    k = np.arange(math.ceil(_ES_T_LO / h), math.floor(_ES_T_HI / h) + 1)
    if level >= 1:
        k = k[k % 2 != 0]
    t = k * h
    z = _LAMBDA * np.sinh(t)
    keep = z < _ES_ABSCISSA_LOG_CAP
    t, z = t[keep], z[keep]
    x = np.exp(z)
    return _read_only(x, x * _LAMBDA * np.cosh(t), np.log(x))


def _es_xw(level: int) -> tuple:
    """The exp-sinh (x, w) new at ``level``, the nodes of :func:`_refine`."""
    return _kept(_es_nodes, level)[:2]


def integrate_semiaxis(f: Callable, cfg: Optional[QuadConfig] = None) -> QuadResult | tuple:
    """exp-sinh integral of f over (0, inf).

    The integrand must decay exponentially at infinity and may grow at most
    like a power of log at 0.  Non-finite samples raise
    :class:`IntegrandError`.  A stacked f gives a tuple of results, one per
    row.
    """
    return _refine(lambda x, level: f(x), _es_xw, cfg)


@lru_cache(maxsize=None)
def _abel_weight(level: int) -> tuple:
    """The Abel-Plana pieces new at ``level``: the clamped nodes
    xc = min(x, _WEIGHT_CUTOFF), the mask x > _WEIGHT_CUTOFF and
    expm1(2 pi xc); read-only, looked up through :func:`_kept`."""
    x = _kept(_es_nodes, level)[0]
    xc = np.minimum(x, _WEIGHT_CUTOFF)
    with np.errstate(over="ignore"):  # inf past x ~ 113, where g(x)/inf is the true 0
        expm1_2pi_x = np.expm1(2.0 * math.pi * xc)
    return _read_only(xc, x > _WEIGHT_CUTOFF, expm1_2pi_x)


def _abel_plana(g: Callable, cfg: Optional[QuadConfig]) -> QuadResult | tuple:
    """int_0^inf g(x)/(e^{2 pi x} - 1) dx, the Abel-Plana weight of every
    Hermite-type integral; g may return a stack of rows, which gives a
    tuple of results.  g only sees the clamped nodes min(x, _WEIGHT_CUTOFF);
    past the cutoff the weighted integrand is identically zero to binary64."""

    def sample(x, level):
        xc, beyond, expm1_2pi_x = _kept(_abel_weight, level)
        return np.where(beyond, 0.0, g(xc) / expm1_2pi_x)

    return _refine(sample, _es_xw, cfg)


@lru_cache(maxsize=64)
def _kernel_on_nodes(level: int, kernel: Callable) -> np.ndarray:
    """kernel(x) on the exp-sinh nodes new at ``level``, read-only; looked up
    through :func:`_kept`.  Keyed by the kernel object, so each Hasse depth J
    has its own table; bounded, since a throwaway lambda also makes an entry."""
    return _read_only(kernel(_kept(_es_nodes, level)[0]))[0]


@lru_cache(maxsize=1)
def _moment_table(kernel: Callable, u: float, cfg: Optional[QuadConfig]) -> dict:
    """{p: the QuadResult of M_p(u)} for the last (kernel, u, cfg) that
    :func:`_log_moments` was asked for; one entry, so a new key drops the
    old rows."""
    return {}


def _log_moments(kernel: Callable, u: float, powers, cfg: Optional[QuadConfig]) -> tuple:
    """M_p(u) = int_0^inf log^p(v) e^{-u v} K(v) dv for every p in
    ``powers``, one QuadResult each.

    The powers that :func:`_moment_table` lacks are integrated in one stacked
    exp-sinh pass and kept there, so n = 0..12 at one u integrate each
    moment once.  Each row stops where it would alone, so the result equals
    one pass over ``powers``.  log v and K(v) depend on the level only, so
    each is computed once per process."""
    table = _moment_table(kernel, u, cfg)
    new = [p for p in powers if p not in table]

    def sample(v, level):
        damped = np.exp(-u * v)
        lg = _kept(_es_nodes, level)[2]
        kv = _kept(_kernel_on_nodes, level, kernel)
        out = np.empty((len(new), len(v)))
        for row, p in zip(out, new):
            row[:] = damped * lg**p * kv if p else damped * kv
        return out

    if new:
        table.update(zip(new, _refine(sample, _es_xw, cfg)))
    return tuple([table[p] for p in powers])


# --- regularized Binet kernel ------------------------------------------------

# Series coefficients B_{2j}/(2j)!, j = 1..7; with the series cut after B_14
# the truncation error at |v| = 1/2 is ~2e-15 of the next (B_16) term, i.e.
# ~1e-17 absolute.
_BRACKET_SWITCH = 0.5


def _binet(v, over_v: bool):
    """B(v), or B(v)/v, with the series below |v| = 1/2; scalar in, scalar out."""
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    small = np.abs(v) < _BRACKET_SWITCH
    vs = np.where(small, v, 1.0)
    series = np.polyval(BERN_OVER_FACT[::-1], vs * vs)  # sum_j B_{2j} v^{2j-2}/(2j)!
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
    t below 2^-1021 (~4.5e-308) is rejected: t/2 is then subnormal, so
    coth(t/2)/2 and 1/t no longer cancel exactly (at 5.6e-309 the residual
    is 1.6e293), and below ~5.6e-309 1/t overflows binary64.  t where x t
    overflows on the nodes x <= 200 (above ~8.99e305) is rejected too.
    """
    t = _require_positive(t, "t")
    if t < 2.0 * np.finfo(float).tiny:
        raise ValueError(f"t must be >= 2^-1021, so that t/2 is not subnormal, got t = {t!r}")
    if math.isinf(_WEIGHT_CUTOFF * t):
        raise ValueError(f"x t overflows binary64 on the nodes x <= {_WEIGHT_CUTOFF:g}, got t = {t!r}")
    result = _abel_plana(lambda x: np.sin(x * t), cfg)
    closed = 0.5 / math.tanh(0.5 * t) - 1.0 / t
    return abs(2.0 * result.value - closed)


def atan_laplace_check(u: float, x: float, cfg: Optional[QuadConfig] = None) -> float:
    """Residual |int_0^inf e^{-u y} sin(x y)/y dy - atan(x/u)|.

    The y -> 0 limit of the integrand is x; the engine never samples y = 0,
    and sin(x y)/y is stable down to subnormal y, so small y needs no
    special case.  Past u y = 800, e^{-u y} has underflowed to 0, so those
    nodes are masked, as in :func:`stieltjes.core.hurwitz_laplace`: there
    x y may overflow, and sin(inf) is NaN.  (u, x) where x y can still
    overflow on the live nodes, y <= min(800/u, e^668), is rejected.
    """
    u = _require_positive(u, "u")
    x = _require_finite(x, "x")
    if math.isinf(abs(x) * min(_EXP_DEAD / u, math.exp(_ES_ABSCISSA_LOG_CAP))):
        raise ValueError(f"x y overflows binary64 where e^(-u y) > 0, got u = {u!r}, x = {x!r}")

    def f(y):
        live = u * y <= _EXP_DEAD
        yl = np.where(live, y, 1.0)
        return np.where(live, np.exp(-u * yl) * np.sin(x * yl) / yl, 0.0)

    result = integrate_semiaxis(f, cfg)
    return abs(result.value - math.atan2(x, u))
