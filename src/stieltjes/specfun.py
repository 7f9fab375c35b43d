"""Base special functions: log-gamma, digamma, Hurwitz zeta (s > 1).

log Gamma comes from :func:`math.lgamma` and psi is mpmath's value
rounded once to binary64.  mpmath has two jobs in the package: psi here
and the J + 1 fixed-point logs of the Hasse head in
:mod:`stieltjes.core`; each imports it itself, so ``import stieltjes``
does not.  All are domain-checked here, an x whose psi overflows
binary64 included; re-deriving psi would add risk, not value.  The module
also holds the package's argument validators, the Hurwitz overflow rule
among them.  The Hurwitz zeta function for s > 1 is an
explicit truncated series with an Euler-Maclaurin tail,

    zeta(s, x) = sum_{k=0}^{N-1} (x+k)^{-s} + M^{1-s}/(s-1) + M^{-s}/2
                 + sum_{j=1}^{6} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * M^{-s-2j+1},

with M = x + N and Bernoulli numbers through B_12.  The split point is
chosen as M >= max(10, 1.7 s) so the first neglected term stays below 1e-13
relative over s in (1, 50]; analytic continuation to s < 1 lives in the
integral representations of :mod:`stieltjes.core`, not here.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "hurwitz_zeta_series",
]

# log of the largest binary64: the Hurwitz evaluators reject larger u^{-s}.
_LOG_MAX = math.log(np.finfo(float).max)
# mpmath's psi carries only ~10 guard bits of *absolute* precision, so at
# binary64 working precision the float next to its zero x0 = 1.4616... comes
# out with a relative error of 4e-3; doubling the precision rounds it right.
_PSI_PREC = 106

# B_{2j}/(2j)! for j = 1..7: 1/12, -1/720, 1/30240, -1/1209600, 1/47900160,
# -691/1307674368000, 1/74724249600.  Note (2j)! in the denominators.  The
# one table of the package: the Euler-Maclaurin tail below uses j = 1..6, the
# Binet-kernel series of :mod:`stieltjes.quad` all seven.
BERN_OVER_FACT = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
)


# The package's input contract: every public function checks its integer
# orders and real arguments through these, before any quadrature.


def _require_order(k, name: str = "n", lo: int = 0, hi: Optional[int] = None) -> int:
    """k as an int in [lo, hi] (no upper bound when hi is None); a Python or
    numpy integer, never a float, however integral."""
    if not (isinstance(k, (int, np.integer)) and lo <= k and (hi is None or k <= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {k!r}")
    return int(k)


def _require_positive(x: float, name: str = "x") -> float:
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def _require_finite(x: float, name: str = "s") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _require_hurwitz(s: float, u: float) -> Tuple[float, float]:
    """(s, u) with s finite and not 1, u > 0, and u^{-s}, u^{1-s} in binary64."""
    s, u = _require_finite(s, "s"), _require_positive(u, "u")
    if s == 1.0:
        raise ValueError("s = 1 is the pole of zeta(s, u)")
    lg = math.log(u)
    if -s * lg + max(lg, 0.0) > _LOG_MAX:
        raise ValueError(f"u^-s or u^(1-s) overflows binary64 at s = {s!r}, u = {u!r}")
    return s, u


def _require_binary64(value, what: str) -> float:
    """An mpmath value rounded to binary64; ValueError where it overflows."""
    x = float(value)
    if math.isinf(x):
        raise ValueError(f"{what} overflows binary64")
    return x


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0; relative error <= 1e-13 on [1e-3, 1e6] away
    from the zeros at x = 1 and x = 2, absolute error ~1e-15 next to them.
    x where log Gamma(x) overflows binary64 (above ~2.56e305) is rejected."""
    x = _require_positive(x)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError(f"log Gamma(x) overflows binary64 at x = {x!r}") from None


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0; psi(1) = -gamma.  x below
    ~5.6e-309, where psi(x) ~ -1/x overflows binary64, is rejected."""
    import mpmath as mp

    x = _require_positive(x)
    with mp.workprec(_PSI_PREC):
        return _require_binary64(mp.digamma(x), f"psi({x!r})")


def hurwitz_zeta_series(s: float, x: float) -> float:
    """zeta(s, x) = sum_{n>=0} (n+x)^{-s} for s > 1, x > 0.

    Truncated series plus Euler-Maclaurin tail; relative error <= 1e-12 for
    s in (1, 50].  (s, x) where x^{-s} overflows binary64 is rejected, the
    rule of the Hurwitz evaluators in :mod:`stieltjes.core`.  s <= 1 raises a
    domain error -- analytic continuation is deliberately the business of
    the integral representations.
    """
    s, x = _require_hurwitz(s, x)
    if not s > 1.0:
        raise ValueError(f"series evaluation needs s > 1, got s = {s!r}")
    # Shift until M = x + N is comfortably inside the asymptotic regime.
    split = max(10.0, 1.7 * s)
    n_terms = max(0, int(math.ceil(split - x)))
    head = math.fsum((x + k) ** (-s) for k in range(n_terms))
    m = x + n_terms
    tail = m ** (1.0 - s) / (s - 1.0) + 0.5 * m ** (-s)
    rising = s  # s(s+1)...(s+2j-2), built incrementally
    power = m ** (-s - 1.0)
    m2 = m * m
    correction = 0.0
    for j, coef in enumerate(BERN_OVER_FACT[:6], start=1):
        correction += coef * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= m2
    return head + tail + correction
