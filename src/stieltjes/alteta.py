"""Alternating Hurwitz zeta function and its Stieltjes-constant identities.

The alternating Hurwitz zeta function

    zeta_a(s, x) = sum_{k>=0} (-1)^k / (x + k)^s

extends to all real s through the parity split

    zeta_a(s, x) = 2^{-s} [zeta(s, x/2) - zeta(s, (1+x)/2)],          (*)

whose two poles at s = 1 cancel, leaving the finite limit
(1/2)[psi((1+x)/2) - psi(x/2)].  Near s = 1 the better-conditioned
evaluator is the geometrically damped binomial double sum

    sum_{i>=0} 2^{-(i+1)} sum_{j=0}^{i} C(i,j) (-1)^j log^n(x+j)/(x+j)^s,

the Euler transform of the derivative series, which converges like 2^{-i}
for every s.  Expanding (*) about s = 1 ties those sums to the generalized
Stieltjes constants gamma_k at half-arguments, and specializing x and the
order yields closed-form expressions for Euler's constant gamma, for
gamma_1, for gamma_p(1/2), and for sums of gamma_p over rational arguments
r/q -- all implemented here with both sides evaluated independently so the
agreement itself is the test.
"""

from __future__ import annotations

import math
from math import comb
from typing import Tuple

import numpy as np

from .core import gamma_value, hurwitz_hermite
from .specfun import _require_finite, _require_order, _require_positive, digamma

__all__ = [
    "alt_zeta",
    "alt_zeta_hasse",
    "alt_deriv_at_1",
    "euler_constant_59",
    "gamma1_via_alt",
    "gamma_half_closed",
    "stieltjes_sum_over_fractions",
    "half_shift_check",
]

_LOG2 = math.log(2.0)
_MAX_DERIV = 6
# alt_zeta_hasse stops once two damped terms in a row fall below this.
_TERM_TOL = 1e-15


def alt_zeta(s: float, x: float) -> float:
    """zeta_a(s, x) = sum_k (-1)^k (x+k)^{-s} via the parity split

        zeta_a(s, x) = 2^{-s} [zeta(s, x/2) - zeta(s, (1+x)/2)],

    with both Hurwitz values from the Hermite integral, so every real
    s != 1 down to its edge s = -18 is reachable.  At s = 1 the poles of
    the two Hurwitz terms cancel and the limit (1/2)[psi((1+x)/2) -
    psi(x/2)] is returned (log 2 at x = 1).
    """
    s = _require_finite(s, "s")
    x = _require_positive(x, "x")
    if s == 1.0:
        return 0.5 * (digamma((1.0 + x) / 2.0) - digamma(x / 2.0))
    return 2.0 ** (-s) * (hurwitz_hermite(s, x / 2.0) - hurwitz_hermite(s, (1.0 + x) / 2.0))


def alt_zeta_hasse(s: float, x: float, n: int = 0, *, i_max: int = 120) -> float:
    """The damped binomial double sum

        sum_{i>=0} 2^{-(i+1)} sum_{j=0}^{i} C(i,j)(-1)^j log^n(x+j)/(x+j)^s,

    which equals (-1)^n zeta_a^{(n)}(s, x) (each s-derivative of
    (x+j)^{-s} contributes one factor -log(x+j)).  The inner alternating
    sums are iterated forward differences of a_j = log^n(x+j)/(x+j)^s,
    one numpy difference per step; the geometric 2^{-(i+1)} damping keeps
    binary64 rounding noise near 1e-14 out to i ~ 100, so no extended
    precision is needed.  Truncates once the damped term magnitude stays below 1e-15
    (two consecutive terms, after a warm-up of ten), or at ``i_max``.
    """
    s = _require_finite(s, "s")
    x = _require_positive(x, "x")
    n = _require_order(n, "derivative order", 0, _MAX_DERIV)
    i_max = _require_order(i_max, "i_max")
    table = np.array([math.log(x + j) ** n / (x + j) ** s for j in range(i_max + 1)])
    total = 0.0
    weight = 0.5
    small_streak = 0
    for i in range(i_max + 1):
        term = weight * table[0]
        total += term
        if abs(term) < _TERM_TOL:
            small_streak += 1
            if i >= 10 and small_streak >= 2:
                break
        else:
            small_streak = 0
        weight *= 0.5
        table = table[:-1] - table[1:]
    return float(total)


def alt_deriv_at_1(n: int, x: float = 1.0) -> Tuple[float, float]:
    """Both routes to (-1)^n zeta_a^{(n)}(1, x), returned as
    (Stieltjes form, Hasse form); their equality is the test.

        Stieltjes form: (1/2) sum_k C(n,k) log^{n-k}(2)
                        [gamma_k(x/2) - gamma_k((1+x)/2)],
        Hasse form:     alt_zeta_hasse(1, x, n).

    The Stieltjes form arises by s-differentiating the parity split
    n times at s = 1 (the 2^{-s} factor supplies the log 2 powers, the
    Laurent coefficients of the two Hurwitz terms supply the gamma_k
    differences; each derivative pair carries matching (-1)^n factors,
    which cancel between the two sides).  n = 0, x = 1 gives log 2 both
    ways; n = 1, x = 1 gives log^2(2) + [gamma_1(1/2) - gamma_1]/2, the
    negated derivative -eta'(1) = log^2(2)/2 - gamma log 2 of the
    alternating zeta function.
    """
    n = _require_order(n, "n", 0, 4)
    x = _require_positive(x, "x")
    stieltjes_form = 0.5 * math.fsum(
        comb(n, k)
        * _LOG2 ** (n - k)
        * (gamma_value(k, x / 2.0) - gamma_value(k, (1.0 + x) / 2.0))
        for k in range(n + 1)
    )
    hasse_form = alt_zeta_hasse(1.0, x, n)
    return stieltjes_form, hasse_form


def euler_constant_59(*, i_max: int = 60) -> float:
    """Euler's constant from the damped log-weighted sum,

        gamma = (log 2)/2 - (1/log 2) sum_i 2^{-(i+1)}
                sum_j C(i,j)(-1)^j log(1+j)/(1+j).

    The envelope 2^{-(i+1)} puts the i_max = 60 truncation error near
    1e-18; binary64 difference noise (~1e-14) dominates.
    """
    s1 = alt_zeta_hasse(1.0, 1.0, 1, i_max=i_max)
    return 0.5 * _LOG2 - s1 / _LOG2


def gamma1_via_alt() -> float:
    """gamma_1 from the first two damped log-weighted sums,

        gamma_1 = -(1/12) log^2(2) + S_1/2 - S_2/(2 log 2),

    with S_n = alt_zeta_hasse(1, 1, n); matches gamma_hasse(1) to ~1e-13.
    """
    s1 = alt_zeta_hasse(1.0, 1.0, 1)
    s2 = alt_zeta_hasse(1.0, 1.0, 2)
    return -_LOG2 * _LOG2 / 12.0 + 0.5 * s1 - s2 / (2.0 * _LOG2)


def gamma_half_closed(p: int) -> float:
    """gamma_p(1/2) in closed form over the integer-argument constants,

        gamma_p(1/2) = -gamma_p + 2 (-1)^p log^{p+1}(2)/(p+1)
                       + 2 sum_j C(p,j)(-1)^j gamma_{p-j} log^j(2);

    p = 0 gives gamma + 2 log 2 = -psi(1/2), and p = 1 gives
    gamma_1 - log^2(2) - 2 gamma log 2.
    """
    return _rational_closed(_require_order(p, "p", 0, _MAX_DERIV), 2)


def _rational_closed(p: int, q: int) -> float:
    """-gamma_p + q (-1)^p log^{p+1}(q)/(p+1) + q sum_j C(p,j)(-1)^j gamma_{p-j} log^j(q)."""
    lq = math.log(q)
    closed = -gamma_value(p, 1.0) + q * (-1.0) ** p * lq ** (p + 1) / (p + 1)
    closed += q * math.fsum(
        comb(p, j) * (-1.0) ** j * gamma_value(p - j, 1.0) * lq**j
        for j in range(p + 1)
    )
    return closed


def stieltjes_sum_over_fractions(p: int, q: int) -> Tuple[float, float]:
    """Both sides of the rational-argument summation identity

        sum_{r=1}^{q-1} gamma_p(r/q) = -gamma_p
            + q (-1)^p log^{p+1}(q)/(p+1)
            + q sum_j C(p,j)(-1)^j gamma_{p-j} log^j(q),

    returned as (closed form, direct sum); the direct sum evaluates each
    gamma_p(r/q) independently.  The identity is the Laurent expansion of
    sum_r zeta(s, r/q) = q^s zeta(s) about s = 1; q = 2 reduces to the
    gamma_p(1/2) closed form.
    """
    p = _require_order(p, "p", 0, 4)
    q = _require_order(q, "q", 2, 6)
    closed = _rational_closed(p, q)
    direct = math.fsum(gamma_value(p, r / q) for r in range(1, q))
    return closed, direct


def half_shift_check(k: int) -> float:
    """Residual |gamma_k(3/2) - gamma_k(1/2) - (-1)^{k+1} 2 log^k(2)|.

    The shift identity is gamma_k(x+1) = gamma_k(x) - log^k(x)/x at
    x = 1/2 (from zeta(s, x+1) = zeta(s, x) - x^{-s}); k = 0 reduces to
    psi(3/2) - psi(1/2) = 2.
    """
    k = _require_order(k, "k", 0, 5)
    shift = (-1.0) ** (k + 1) * 2.0 * _LOG2**k
    return abs(gamma_value(k, 1.5) - gamma_value(k, 0.5) - shift)
