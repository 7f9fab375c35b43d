"""Generalized Stieltjes constants gamma_n(u) via independent representations.

gamma_n(u) are the Laurent coefficients of the Hurwitz zeta function about
s = 1,

    zeta(s, u) = 1/(s-1) + sum_{n>=0} (-1)^n gamma_n(u) (s-1)^n / n!,

with gamma_0(u) = -psi(u) and gamma_n = gamma_n(1) the classical Stieltjes
constants.  Five computational routes are provided and cross-validated.
What a vote proves depends on what the routes share:

* :func:`gamma_hasse`      -- the globally convergent binomial double series:
                              an exact head plus a tail that is a c_k
                              convolution of kernel moments
                              (``_moment_convolution``),
* :func:`gamma_coffey`     -- a Hermite-type contour integral (real form);
                              no c_k, so independent of Hasse and Bell,
* :func:`gamma_bell_family`-- Laplace-kernel integrals weighted by the
                              reciprocal-gamma derivative coefficients c_k;
                              shares the c_k table and
                              ``_moment_convolution`` with Hasse, and its
                              boundary terms with Coffey,
* :func:`gamma_brede`      -- the Appell-polynomial weighted integral (u = 1),
                              the u = 1 Bell-family integral with the c_k sum
                              moved inside, so not an independent vote,
* :func:`gamma_limit`      -- the Euler-Maclaurin-accelerated defining limit
                              (u = 1, n <= 8); it shares nothing with the
                              others, but at 10^6 terms its error grows from
                              1e-13 at n = 0 to 5e-5 at n = 8.

All five but the limit run on the one quadrature engine in :mod:`.quad`, and
Hasse, Coffey and Bell share one small-u shift.  Around them sit the objects
they certify: the Brede polynomials p_n, the inversion identity tying
gamma-values to pure log-power integrals I_n, the zeta derivatives at s = 0
(log-gamma / Binet, second derivative, Barnes G), and two analytic
continuations of zeta(s, u) (Hermite and Laplace forms).

Every numerical op returns :class:`MethodResult` with an honest (heuristic)
error estimate, the evaluation count, and cancellation / convergence flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .bellpoly import _C_K, _MAX_DERIVATIVE, gamma_derivative_at_one
from .quad import (
    _ES_ABSCISSA_LOG_CAP,
    _EXP_DEAD,
    QuadConfig,
    QuadResult,
    _abel_plana,
    _log_moments,
    binet_bracket,
    binet_bracket_over_v,
    integrate_semiaxis,
)
from .specfun import (
    _LOG_MAX,
    _require_hurwitz,
    _require_order,
    _require_positive,
    log_gamma,
)

__all__ = [
    "FLAG_CANCELLATION",
    "FLAG_NO_CONVERGENCE",
    "ENVELOPES",
    "Method",
    "MethodResult",
    "RealPolynomial",
    "gamma_hasse",
    "gamma_coffey",
    "gamma_bell_family",
    "brede_poly",
    "gamma_brede",
    "gamma_limit",
    "inversion_sum",
    "i_n_integral",
    "zeta_prime0",
    "zeta_second0",
    "barnes_g_log",
    "hurwitz_hermite",
    "hurwitz_laplace",
    "delta_n",
    "gamma_value",
]

_CANCELLATION_RATIO = 1e8
# gamma_limit's smallest partial-sum length r (its estimate compares r with r/2).
_LIMIT_MIN_TERMS = 10
# gamma_hasse's head depth J; its value does not depend on J beyond roundoff.
_J_MAX = 120
# At tiny u the u-routes' integrals break down: Coffey's integrand peaks
# near x = 0 at about log^n(u)/u^2, and Hasse's and Bell's e^{-uv} has not
# decayed by the exp-sinh cap e^668.  Where that peak passes e^this (1e300:
# below u = 1e-150 at n = 0, at larger u for larger n) all three answer by
# the shift in u instead, as zeta_prime0 and zeta_second0 do at n = 0.
_PEAK_LOG_MAX = 300.0 * math.log(10.0)

FLAG_CANCELLATION = "cancellation"
FLAG_NO_CONVERGENCE = "no_convergence"


class Method(str, Enum):
    """Which representation produced a value."""

    HASSE = "hasse"
    COFFEY = "coffey"
    BELL_FAMILY = "bell"
    BREDE = "brede"
    LIMIT = "limit"


@dataclass(frozen=True)
class MethodResult:
    """One numerical evaluation with its originating method and diagnostics.

    ``error_estimate`` is heuristic (propagated quadrature level differences
    plus representation roundoff), not a rigorous bound.  ``flags`` may
    contain ``"cancellation"`` (some intermediate exceeded |value| * 1e8) or
    ``"no_convergence"`` (an underlying quadrature exhausted its levels).
    """

    value: float
    error_estimate: float
    method: Method
    evaluations: int
    flags: Tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return FLAG_NO_CONVERGENCE not in self.flags

    def as_dict(self) -> dict:
        """value, error_estimate, evaluations and flags: the JSON form of a result."""
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "evaluations": self.evaluations,
            "flags": list(self.flags),
        }


class _Envelope(NamedTuple):
    """A route's domain: n <= max_n and that one u (None: any u > 0)."""

    max_n: int
    u: Optional[float]

    def admits(self, n: int, u: float) -> bool:
        return n <= self.max_n and (self.u is None or u == self.u)


# Each gamma_n(u) route's domain.  Hasse and Bell-family need c_k for k <= n,
# tabulated to _MAX_DERIVATIVE.  Coffey needs none, but at n >= 100 numpy's
# complex power log(z)**n changes algorithm and the integrand fails in the
# engine for every u <= 0.1 tried; to n = 99 nothing fails over
# u in [1e-300, 1e3].  Brede and the limit are u = 1 forms with the caps
# their tests cover.
ENVELOPES = MappingProxyType({
    Method.HASSE: _Envelope(_MAX_DERIVATIVE, None),
    Method.COFFEY: _Envelope(99, None),
    Method.BELL_FAMILY: _Envelope(_MAX_DERIVATIVE, None),
    Method.BREDE: _Envelope(10, 1.0),
    Method.LIMIT: _Envelope(8, 1.0),
})


def _require_route(method: Method, n: int, u: float) -> Tuple[int, float]:
    """(n, u) as an order and a positive argument that lie in the route's
    entry of ENVELOPES, and where log^n(u)/u, the term that dominates
    gamma_n(u) as u -> 0, fits binary64."""
    n = _require_order(n, "order n")
    u = _require_positive(u, "argument u")
    if not ENVELOPES[method].admits(n, u):
        max_n, at_u = ENVELOPES[method]
        at = "" if at_u is None else f" at u = {at_u:g}"
        raise ValueError(
            f"{method.value} is defined for n <= {max_n}{at}, got n = {n}, u = {u:.15g}"
        )
    if u < 1.0:
        _shift_term(n, u)
    return n, u


@dataclass(frozen=True)
class RealPolynomial:
    """Dense univariate polynomial, coefficients in ascending degree."""

    coefficients: Tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        acc = np.polyval(self.coefficients[::-1], np.asarray(z, dtype=float))
        return acc if acc.ndim else float(acc)

    def derivative(self) -> "RealPolynomial":
        if self.degree == 0:
            return RealPolynomial((0.0,))
        return RealPolynomial(
            tuple(k * c for k, c in enumerate(self.coefficients) if k > 0)
        )


def _result(method, value, estimate, max_term, evaluations, converged=True, roundoff=2e-16):
    """The one result rule: the propagated ``estimate`` plus ``roundoff`` times
    the largest intermediate ``max_term``; "cancellation" when that
    intermediate exceeds |value| * 1e8, "no_convergence" when an integral did
    not converge."""
    flags = (FLAG_CANCELLATION,) if max_term > abs(value) * _CANCELLATION_RATIO else ()
    if not converged:
        flags += (FLAG_NO_CONVERGENCE,)
    return MethodResult(value, estimate + roundoff * max_term, method, evaluations, flags)


def _log_power_prefactor(n: int, u: float) -> float:
    """log^n(u)/(2u) - log^{n+1}(u)/(n+1), the boundary terms shared by the
    Coffey and Bell-family representations (log^0 = 1, so n = 0 gives
    1/(2u) - log u)."""
    lg = math.log(u)
    return lg**n / (2.0 * u) - lg ** (n + 1) / (n + 1)


def _shift_term(n: int, u: float) -> float:
    """log^n(u)/u for u < 1, the term of the shift
    gamma_n(u) = gamma_n(u+1) + log^n(u)/u; ValueError where it overflows
    binary64."""
    lg = math.log(u)
    if n * math.log(-lg) - lg > _LOG_MAX:
        raise ValueError(f"log^n(u)/u overflows binary64 at n = {n}, u = {u!r}")
    return lg**n / u


def _beyond_peak(n: int, u: float) -> bool:
    """Whether log^n(u)/u^2 exceeds 1e300 (below u = 1e-150 at n = 0), where
    the u-integrals break down and the value comes by a shift in u."""
    lg = math.log(u)
    return lg < 0.0 and n * math.log(-lg) - 2.0 * lg > _PEAK_LOG_MAX


def _small_u_shift(n: int, u: float) -> Tuple[float, float, float]:
    """(log^n(u)/u, its roundoff, u + 1) where :func:`_beyond_peak`, else
    (0, 0, u): the term a u-route adds, what it adds to the error
    estimate, and the argument it integrates at, by the exact shift
    gamma_n(u) = gamma_n(u+1) + log^n(u)/u.  The roundoff is
    (n + 1) 2^-53 |log^n(u)/u|: the n-th power multiplies the rounding of
    log u n-fold, and the division adds one more."""
    if _beyond_peak(n, u):
        shift = _shift_term(n, u)
        return shift, (n + 1) * 2.0**-53 * abs(shift), u + 1.0
    return 0.0, 0.0, u


# --- Hasse series with exact integral tail ----------------------------------


@lru_cache(maxsize=64)
def _hasse_tail_kernel(j_max: int):
    """Vectorized K(t) = rho_J(t)/t, rho_J(t) = (t - L_{J+1}(phi))/phi,
    phi = 1 - e^{-t}.

    This is the generating-function remainder of the Hasse outer sum
    truncated after j = J: sum_{j>J} phi^j/(j+1) = rho_J(t)/t with
    L_N(phi) = sum_{m=1}^N phi^m/m (so that L_inf = -log(1-phi) = t).
    Where the analytic bound phi^{J+1}/((J+2)(1-phi)) = phi^{J+1} e^t/(J+2)
    is below 1e-19 the density is forced to exactly 0: the true value is
    below that bound and the raw t - L difference there is pure cancellation
    noise.
    """
    # L_{J+1}(phi) = sum_{m=1}^{J+1} phi^m/m as a polynomial in phi.
    recip = [1.0 / m for m in range(j_max + 1, 0, -1)] + [0.0]
    log_threshold = math.log(1e-19) + math.log(j_max + 2)

    def kernel(t: np.ndarray) -> np.ndarray:
        phi = -np.expm1(-t)
        acc = np.polyval(recip, phi)
        bound = (j_max + 1) * np.log(phi) + t
        return np.where(bound > log_threshold, (t - acc) / phi, 0.0) / t

    return kernel


@lru_cache(maxsize=1)
def _hasse_logs(u: float, j_max: int, dps: int) -> tuple:
    """The logs log(u + k), k = 0..J, at ``dps`` digits, as raw mpf tuples
    (``mpf._mpf_``) for :func:`_hasse_head`.  Every n of a table at one u
    shares them; one entry, so no request meets a table left by an earlier
    one at another u."""
    import mpmath as mp

    with mp.workdps(dps):
        um = mp.mpf(u)
        return tuple(mp.log(um + k)._mpf_ for k in range(j_max + 1))


@lru_cache(maxsize=4)
def _hasse_weights(j_max: int) -> Tuple[int, Tuple[int, ...]]:
    """(L, W_0..W_J) with L = lcm(1..J+1) and the exact integer weights
    W_k = (-1)^k sum_{j=k}^{J} C(j,k) L/(j+1), so that
    sum_{j<=J} [L/(j+1)] sum_k C(j,k)(-1)^k a_k = sum_k W_k a_k.
    Built on the first Hasse call, not at import (~3 ms at J = 120)."""
    lcm = math.lcm(*range(1, j_max + 2))
    return lcm, tuple(
        (-1) ** k * sum(comb(j, k) * (lcm // (j + 1)) for j in range(k, j_max + 1))
        for k in range(j_max + 1)
    )


def _hasse_head(n: int, u: float, j_max: int) -> float:
    """sum_{j=0}^{J} [1/(j+1)] sum_k C(j,k)(-1)^k log^{n+1}(u+k).

    The table a_k = log^{n+1}(u+k) is computed on the raw mpf logs of
    :func:`_hasse_logs` by mpmath's ``mpf_pow_int`` at ``prec`` bits,
    rounded to nearest (the call ``mpf.__pow__`` makes, without its
    wrapper), and cut once to fixed point with ``prec`` fractional bits.
    Over the common denominator
    L = lcm(1..J+1) the double sum regroups into one fixed weight per entry,
    sum_k W_k a_k (``_hasse_weights``), an exact integer dot product, and
    one correctly rounded int/int division gives the binary64 head.  That
    is the same integer the iterated forward differences of the table give,
    so the head is bit-identical to those differences done in mpf at this
    precision, and so is every gamma_hasse value built on it; a different
    dps could move the last bit of a head that sits near a binary64
    rounding boundary.

    The partial terms are exact integers, so the only errors are the
    table's and the final rounding.  Each entry is off by at most
    (n + 3) 2^-prec max(1, |a_k|) (the rounded log, its power and the
    fixed-point cut), and sum_k |W_k|/L = sum_j 2^j/(j+1) <= 2^J, so the
    head is within (n + 3) 2^(J - prec) max(1, |a_k|) of the exact sum:
    below 2e-25 of the largest entry at J = 120 (prec = 206) for n <= 12.
    The working precision grows with j_max (~0.30 digits per order) to pay
    for that 2^J.  The rounded head is the only binary64 intermediate, so
    it alone enters gamma_hasse's roundoff term.
    """
    from mpmath.libmp import dps_to_prec, mpf_pow_int, round_nearest, to_fixed

    dps = int(0.302 * j_max) + 25
    prec = dps_to_prec(dps)
    table = [
        to_fixed(mpf_pow_int(lg, n + 1, prec, round_nearest), prec)
        for lg in _hasse_logs(u, j_max, dps)
    ]
    lcm, weights = _hasse_weights(j_max)
    return sum(map(int.__mul__, table, weights)) / (lcm << prec)


def _moment_convolution(kernel, n: int, u: float, cfg: Optional[QuadConfig]) -> tuple:
    """(-1)^n sum_{k=0}^{n} C(n,k) c_k M_{n-k}(u), the shared tail of the
    Hasse and Bell-family routes, and the largest |term|.  The sum is a
    QuadResult with the propagated estimate and the evaluations and level
    of the deepest moment; it is converged only if every moment is.

    The moments come from :func:`.quad._log_moments`, whose table keeps the
    rows of the last (kernel, u, cfg), so n = 0..12 at one u integrate each
    moment once; the result equals one pass over p = 0..n."""
    moments = _log_moments(kernel, u, range(n + 1), cfg)
    total = estimate = max_term = 0.0
    for k, c_k in enumerate(_C_K[: n + 1]):
        weight = comb(n, k) * c_k
        term = weight * moments[n - k].value
        total += term
        estimate += abs(weight) * moments[n - k].error_estimate
        max_term = max(max_term, abs(term))
    deepest = max(moments, key=lambda r: r.level)
    converged = all(r.converged for r in moments)
    tail = QuadResult((-1.0) ** n * total, estimate, deepest.evaluations, converged, deepest.level)
    return tail, max_term


def gamma_hasse(n: int, u: float = 1.0, *, cfg: Optional[QuadConfig] = None) -> MethodResult:
    """gamma_n(u) from the globally convergent binomial double series

        gamma_n(u) = -1/(n+1) sum_{j>=0} 1/(j+1)
                     sum_{k=0}^{j} C(j,k) (-1)^k log^{n+1}(u+k).

    The outer terms decay only like ~1/(j^{u+1} log j), far too slowly to
    truncate at any affordable j, so the series is split exactly: terms
    j <= J = _J_MAX are summed exactly (one fixed-point integer dot product,
    see ``_hasse_head``), and the infinite remainder is resummed in
    closed form through its integral representation

        sum_{j>J} (...)  =  -(-1)^{n+1} sum_{m=0}^{n} C(n,m) c_m
                            int_0^inf log^{n-m}(t) e^{-u t} rho_J(t)/t dt,

    where rho_J is the truncated-geometric remainder density (see
    ``_hasse_tail_kernel``) and c_m = d^m/ds^m [1/Gamma(1+s)] at 0.  The
    result is therefore independent of J to roundoff; J only moves work
    between the series head and the tail integrals.  Below u = 1e-150 (at
    n = 0) the value is the shift gamma_n(u+1) + log^n(u)/u, as in
    :func:`gamma_coffey`.
    """
    n, u = _require_route(Method.HASSE, n, u)
    shift, shift_estimate, u = _small_u_shift(n, u)
    head = -_hasse_head(n, u, _J_MAX) / (n + 1)
    tail, tail_term = _moment_convolution(_hasse_tail_kernel(_J_MAX), n, u, cfg)
    value = head + tail.value + shift
    max_term = max(abs(value), abs(head), tail_term)
    estimate = tail.error_estimate + shift_estimate
    evaluations = _J_MAX + 1 + tail.evaluations
    return _result(Method.HASSE, value, estimate, max_term, evaluations, tail.converged, 4e-16)


@lru_cache(maxsize=1024)
def gamma_value(n: int, u: float = 1.0) -> float:
    """Cached gamma_n(u) value (Hasse route), for identity assembly."""
    return gamma_hasse(n, u).value


# --- Coffey contour integral -------------------------------------------------


def gamma_coffey(n: int, u: float = 1.0, cfg: Optional[QuadConfig] = None) -> MethodResult:
    """gamma_n(u) from the Hermite-contour representation

        gamma_n(u) = log^n(u)/(2u) - log^{n+1}(u)/(n+1)
                     + int_0^inf -2 Im[log^n(z)/z] / (e^{2 pi x} - 1) dx,

    z = u + i x, with the principal complex logarithm (safe: u > 0 keeps z in
    the right half-plane).  The i[L/z - conj(L/z)] combination of the
    analytic form is folded to -2 Im[L/z] so the whole computation is real.
    Dividing by z never forms u^2 + x^2, which underflows for tiny u and x.
    Where log^n(u)/u^2 exceeds 1e300 (below u = 1e-150 at n = 0) the
    integrand nears overflow, so the value is the shift
    gamma_n(u+1) + log^n(u)/u instead, as in the Hasse and Bell-family
    routes; (n, u) where log^n(u)/u overflows binary64 is rejected.
    """
    n, u = _require_route(Method.COFFEY, n, u)
    shift, shift_estimate, u = _small_u_shift(n, u)
    prefactor = _log_power_prefactor(n, u) + shift

    def g(x):
        z = u + 1j * x
        return -2.0 * np.imag(np.log(z) ** n / z)

    r = _abel_plana(g, cfg)
    max_term = max(abs(prefactor), abs(r.value))
    estimate = r.error_estimate + shift_estimate
    return _result(
        Method.COFFEY, prefactor + r.value, estimate, max_term, r.evaluations, r.converged
    )


# --- Bell-family representation ---------------------------------------------


def gamma_bell_family(n: int, u: float = 1.0, *, cfg: Optional[QuadConfig] = None) -> MethodResult:
    """gamma_n(u) from Binet-kernel integrals weighted by the c_k,

        gamma_n(u) = log^n(u)/(2u) - log^{n+1}(u)/(n+1)
                     + (-1)^n sum_{k=0}^{n} C(n,k) c_k
                       int_0^inf e^{-u v} log^{n-k}(v) B(v) dv,

    with B(v) = 1/(e^v - 1) - 1/v + 1/2 and c_k from
    :func:`stieltjes.bellpoly.inv_gamma_derivative_at_zero`.  At u = 1 and
    n >= 1 the kernel B(v) - 1/2 gives the same value, since the c_k
    convolve against the Gamma-derivatives (the moments of e^{-v}) to zero
    there.  Below u = 1e-150 (at n = 0) the value is the shift
    gamma_n(u+1) + log^n(u)/u, as in :func:`gamma_coffey`.
    """
    n, u = _require_route(Method.BELL_FAMILY, n, u)
    shift, shift_estimate, u = _small_u_shift(n, u)
    prefactor = _log_power_prefactor(n, u) + shift
    tail, tail_term = _moment_convolution(binet_bracket, n, u, cfg)
    max_term = max(abs(prefactor), tail_term)
    estimate = tail.error_estimate + shift_estimate
    return _result(
        Method.BELL_FAMILY, prefactor + tail.value, estimate, max_term, tail.evaluations,
        tail.converged,
    )


# --- Brede polynomials -------------------------------------------------------


def brede_poly(n: int) -> RealPolynomial:
    """The degree-n Appell polynomial p_n(z) = sum_k C(n,k)(-1)^k c_k z^{n-k}.

    Monic by construction (the k = 0 term is z^n); p_0 = 1, p_1 = z - gamma,
    p_2 = z^2 - 2 gamma z + gamma^2 - zeta(2).  Satisfies p_n' = n p_{n-1}.
    """
    n = _require_order(n, "n", 0, _MAX_DERIVATIVE)
    coefficients = [0.0] * (n + 1)
    for k in range(n + 1):
        coefficients[n - k] = comb(n, k) * (-1.0) ** k * _C_K[k]
    return RealPolynomial(tuple(coefficients))


def gamma_brede(n: int, cfg: Optional[QuadConfig] = None) -> MethodResult:
    """gamma_n = int_0^1 p_n(-log log(1/t)) [1/log t + 1/(1-t)] dt.

    Implemented after the substitution v = log(1/t), which maps the weight
    onto the semi-axis kernel:

        gamma_n = int_0^inf p_n(-log v) e^{-v} [1/(1 - e^{-v}) - 1/v] dv,

    where 1/(1 - e^{-v}) - 1/v = B(v) + 1/2.  The substitution avoids
    sampling log log(1/t) near t = 1 (where it diverges) and conditions the
    integrand dramatically better; the value is identical by change of
    variables.

    Since p_n(-log v) = (-1)^n sum_k C(n,k) c_k log^{n-k}(v), this is the
    u = 1 Bell-family integral with the c_k sum moved inside the integrand
    (the extra 1/2 of the kernel integrates to delta_{n0}/2, the Bell
    route's own constant; the derivation is in ROADMAP item 4).  Agreement
    with :func:`gamma_bell_family` checks the order of summation; it is not
    an independent vote.
    """
    poly = brede_poly(_require_route(Method.BREDE, n, 1.0)[0])

    def f(v):
        return poly(-np.log(v)) * np.exp(-v) * (binet_bracket(v) + 0.5)

    r = integrate_semiaxis(f, cfg)
    max_term = max(abs(c) for c in poly.coefficients)
    return _result(Method.BREDE, r.value, r.error_estimate, max_term, r.evaluations, r.converged)


# --- defining limit with Euler-Maclaurin correction -------------------------


# _chunked_sum's chunk length: 2^14 binary64 terms, 128 KB per array.  At
# 2^16 (512 KB) glibc returned each chunk's freed arrays to the OS, and
# refaulting them made the sum three times slower.
_SUM_CHUNK = 1 << 14


def _chunked_sum(f, a: int, b: int) -> float:
    """sum_{m=a}^{b} f(m) for a vectorized f, taken _SUM_CHUNK terms at a
    time: np.sum within a chunk, math.fsum over the chunk sums.  Memory
    does not grow with b - a."""
    return math.fsum(
        float(np.sum(f(np.arange(lo, min(lo + _SUM_CHUNK, b + 1), dtype=float))))
        for lo in range(a, b + 1, _SUM_CHUNK)
    )


def gamma_limit(n: int, r: int) -> MethodResult:
    """gamma_n = lim_{r->inf} [sum_{m=1}^r log^n(m)/m - log^{n+1}(r)/(n+1)],
    evaluated at finite r with the first Euler-Maclaurin correction
    -log^n(r)/(2r) applied, which improves the convergence from O(log^n r/r)
    to O(log^{n+1} r / r^2).

    The error estimate is |value(r) - value(r/2)|, an honest upper-bound
    proxy for the remaining truncation error.  Terms 1..r/2 are summed once
    and shared by both values, in fixed-size chunks, so memory does not
    depend on r.
    """
    n = _require_route(Method.LIMIT, n, 1.0)[0]
    r = _require_order(r, "r", _LIMIT_MIN_TERMS)

    def term(m):
        return np.log(m) ** n / m

    def assemble(partial: float, rr: int) -> float:
        lr = math.log(rr)
        return partial - lr ** (n + 1) / (n + 1) - lr**n / (2.0 * rr)

    half = _chunked_sum(term, 1, r // 2)
    value = assemble(half + _chunked_sum(term, r // 2 + 1, r), r)
    return _result(Method.LIMIT, value, abs(value - assemble(half, r // 2)), 0.0, r)


# --- inversion / positivity machinery ---------------------------------------


# The integral side of inversion_sum stops at the last exp-sinh node,
# v = e^668.  Against the sum side over n = 0..8 its truncated tail e^{-uv}
# costs 2.5e-10 relative at u e^668 = 20, 1e-13 at 27 and 1.9e-14 at 28.4;
# from 28.5 it is below the ~1.4e-14 to which the sides agree at larger u.
_INVERSION_UV_MIN = 28.5


def inversion_sum(n: int, u: float = 1.0, cfg: Optional[QuadConfig] = None) -> Tuple[float, float]:
    """Both sides of the inversion identity expressing the pure log-power
    Binet integrals through gamma-values:

        sum side:      sum_k C(n,k)(-1)^k [gamma_k(u) - log^k(u)/(2u)
                         + log^{k+1}(u)/(k+1)] Gamma^{(n-k)}(1),
        integral side: int_0^inf e^{-u v} log^n(v) B(v) dv.

    Returned as (sum side, integral side).  u below 28.5 e^-668 (~2.2e-289,
    ``_INVERSION_UV_MIN``) is rejected, where the integral side is truncated
    at the last node, and so is (n, u) where its level sums overflow.  The
    integral is ~(log(1/u) - gamma)^n/(2u); a level-L sum is ~2^(L-1) times
    that once the peak at v ~ 1/u is resolved, and ~log(1/u) times it at
    the first levels.  At the default 12 levels that rejects n = 8 below
    u ~ 1.8e-283; on a grid of 0.004 decades in u it rejects every inf of
    n = 6, 7, 8 and no finite value.
    """
    n = _require_order(n, "n", 0, 8)
    u = _require_positive(u, "u")
    if u * math.exp(_ES_ABSCISSA_LOG_CAP) < _INVERSION_UV_MIN:
        raise ValueError(f"e^(-u v) has not decayed by the last node v = e^668, got u = {u!r}")
    lg = -math.log(u)
    if lg > 1.0:
        size = lg + n * math.log(lg - np.euler_gamma) - math.log(2.0)
        spread = max(((cfg or QuadConfig()).max_level - 1) * math.log(2.0), math.log(lg))
        if size + spread > _LOG_MAX:
            raise ValueError(f"the integral side's level sums overflow binary64 at n = {n}, u = {u!r}")
    return _inversion_sum_side(n, u), _log_moments(binet_bracket, u, (n,), cfg)[0].value


def _inversion_sum_side(n: int, u: float) -> float:
    """The sum side of :func:`inversion_sum`, for a checked (n, u)."""
    return math.fsum(
        comb(n, k)
        * (-1.0) ** k
        * (gamma_value(k, u) - _log_power_prefactor(k, u))
        * gamma_derivative_at_one(n - k)
        for k in range(n + 1)
    )


def i_n_integral(n: int, cfg: Optional[QuadConfig] = None) -> MethodResult:
    """I_n = int_0^inf log^n(v) e^{-v} B(v) dv.

    Equal to the binomial expression sum_k C(n,k)(-1)^k gamma_k
    Gamma^{(n-k)}(1).  The sign pattern is subtler than it looks: I_n > 0
    for every even n and for n in {1, 3}, but the family turns *negative*
    at the odd orders n = 5, 7, 9, 11 (I_5 = -0.04131..., I_7 = -1.3216...),
    because the contribution of v in (0, 1), where log^n v < 0, outgrows
    the positive v > 1 part once n is large and odd.
    """
    n = _require_order(n, "n", 0, _MAX_DERIVATIVE)
    r = _log_moments(binet_bracket, 1.0, (n,), cfg)[0]
    return _result(Method.BELL_FAMILY, r.value, r.error_estimate, 0.0, r.evaluations, r.converged)


# --- zeta derivatives at s = 0 ----------------------------------------------


def zeta_prime0(u: float, cfg: Optional[QuadConfig] = None) -> float:
    """zeta'(0, u) = int_0^inf (e^{-u v}/v) B(v) dv - (1/2 - u) log u - u.

    Lerch's identity zeta'(0, u) = log Gamma(u) - (1/2) log 2pi is the
    external check; u = 1 gives -(1/2) log 2pi.  The bracket-over-v kernel
    uses its series form near 0 (removable singularity, limit 1/12).  Below
    u = 1e-150, where e^{-u v} has not decayed by the last exp-sinh node,
    the value is the exact shift zeta'(0, u+1) - log u, the gamma_0 routes'
    rule.  u where (u - 1/2) log u overflows binary64 (above ~2.56e305) is
    rejected.
    """
    u = _require_positive(u, "u")
    if math.isinf((0.5 - u) * math.log(u)):
        raise ValueError(f"(u - 1/2) log u overflows binary64 at u = {u!r}")
    if _beyond_peak(0, u):
        return zeta_prime0(u + 1.0, cfg) - math.log(u)
    moment = _log_moments(binet_bracket_over_v, u, (0,), cfg)[0].value
    return moment - (0.5 - u) * math.log(u) - u


def zeta_second0(u: float, cfg: Optional[QuadConfig] = None) -> float:
    """zeta''(0, u) = (1/2 - u) log^2 u + 2u log u - 2u
                      - 2 int_0^inf log(u^2 + x^2) atan(x/u) / (e^{2 pi x} - 1) dx.

    Its u-derivative equals 2 gamma_1(u), which the test suite checks by
    central finite differences against :func:`gamma_hasse`.  Below
    u = 1e-150, where u^2 underflows in log(u^2 + x^2), the value is the
    exact shift zeta''(0, u+1) + log^2 u, as in :func:`zeta_prime0`.  u
    where u^2 overflows binary64 (above ~1.34e154) is rejected.
    """
    u = _require_positive(u, "u")
    if math.isinf(u * u):
        raise ValueError(f"u^2 overflows binary64 in log(u^2 + x^2) at u = {u!r}")
    if _beyond_peak(0, u):
        return zeta_second0(u + 1.0, cfg) + math.log(u) ** 2
    r = _abel_plana(lambda x: np.log(u * u + x * x) * np.arctan2(x, u), cfg)
    lg = math.log(u)
    return (0.5 - u) * lg * lg + 2.0 * u * lg - 2.0 * u - 2.0 * r.value


def barnes_g_log(t: float, cfg: Optional[QuadConfig] = None) -> float:
    """log G(1+t) for the Barnes G-function (G(1) = G(2) = 1),

        log G(1+t) = t log Gamma(t) + (t^2 - 1)/4 - (t/2)(t-1) log t
                     + int_0^inf (e^{-t v} - e^{-v})/v^2 B(v) dv.

    Satisfies the recursion G(1+t) = Gamma(t) G(t); t = 3 gives log 2.
    The largest term, t log Gamma(t) ~ t^2 (log t - 1), overflows binary64
    before the answer ~ t^2 log(t)/2 does, so t where t^2 log t overflows
    (t above ~7.1e152) is rejected.
    """
    t = _require_positive(t, "t")
    if t > 1.0 and 2.0 * math.log(t) + math.log(math.log(t)) > _LOG_MAX:
        raise ValueError(f"t^2 log t overflows binary64 at t = {t!r}")
    # e^{-t v} - e^{-v} = -sign e^{-a v} expm1((a - b) v), a = min(t, 1) and
    # b = max(t, 1): no cancellation, and expm1 of a non-positive argument.
    a, b = min(t, 1.0), max(t, 1.0)
    sign = 1.0 if t < 1.0 else -1.0

    def f(v):
        return -sign * np.exp(-a * v) * np.expm1((a - b) * v) / v * binet_bracket_over_v(v)

    r = integrate_semiaxis(f, cfg)
    return (
        t * log_gamma(t)
        + (t * t - 1.0) / 4.0
        - 0.5 * t * (t - 1.0) * math.log(t)
        + r.value
    )


# --- Hurwitz zeta continuations ---------------------------------------------


# Below this s Hermite's integral cancels against the boundary terms.  Worst
# |h - zeta|/max(1, |zeta|) against 80-digit mpmath.zeta over u in [0.1, 100]
# (a 0.01 grid to u = 4, 59 log-spaced u to 100 and every real zero of
# zeta(s, u) there) at 119 s in [-20, -1]: at most 4.6e-11 for s >= -18,
# then 1.2e-10 at -18.9, 3.5e-10 at -19 and 9.3e-10 at -20.
_HERMITE_S_MIN = -18.0


def _hurwitz(s: float, u: float, integral) -> float:
    """zeta(s, u), ``integral`` run at u >= 1 only: zeta(s, u) = u^{-s} + zeta(s, u + 1) below 1."""
    if u < 1.0:
        return u ** (-s) + _hurwitz(s, u + 1.0, integral)
    return u ** (-s) / 2.0 + u ** (1.0 - s) / (s - 1.0) + integral(u)


def hurwitz_hermite(s: float, u: float, cfg: Optional[QuadConfig] = None) -> float:
    """zeta(s, u) by Hermite's integral, for real s != 1:

        zeta(s, u) = u^{-s}/2 + u^{1-s}/(s-1)
                     + 2 u^{-s} int_0^inf sin(s atan(x/u))
                       / [(1 + (x/u)^2)^{s/2} (e^{2 pi x} - 1)] dx,

    with u^{-s} factored out of the integral so that its size does not fall
    below the engine's absolute convergence test at large s.  u < 1 goes by
    the shift zeta(s, u) = u^{-s} + zeta(s, u + 1); (s, u) where u^{-s} or
    u^{1-s} overflows binary64 is rejected.  As s falls the integral cancels
    against the boundary terms, so s < -18 (``_HERMITE_S_MIN``) is rejected
    too: from s ~ -18.9 the error passes 1e-10 of max(1, |zeta|).
    """
    s, u = _require_hurwitz(s, u)
    if s < _HERMITE_S_MIN:
        raise ValueError(
            f"s < {_HERMITE_S_MIN:g} loses Hermite's integral to cancellation, got s = {s!r}"
        )

    def integral(v):
        r = _abel_plana(
            lambda x: np.sin(s * np.arctan2(x, v)) / (1.0 + (x / v) ** 2) ** (0.5 * s), cfg
        )
        return 2.0 * r.value * v ** (-s)

    return _hurwitz(s, u, integral)


def hurwitz_laplace(s: float, u: float, cfg: Optional[QuadConfig] = None) -> float:
    """zeta(s, u) by the Laplace/Binet-kernel representation, s in [-0.95, 106]:

        zeta(s, u) = u^{-s}/2 + u^{1-s}/(s-1)
                     + (1/Gamma(s)) int_0^inf e^{-u v} v^{s-1} B(v) dv,

    integrated in w = u v as u^{-s-1} int_0^inf e^{-w} w^s [B(w/u)/(w/u)] dw,
    whose size does not shrink with u; the small-u shift and the overflow rule
    are :func:`hurwitz_hermite`'s.  Beyond w = 800 the e^{-w} factor has
    underflowed past anything w^s can recover, so those nodes are masked;
    800^s overflows past s = 106, which is rejected.  Near s = -1 the kernel
    ~ w^s/12 puts mass (1e-300)^(s+1)/(12(s+1)) below the smallest exp-sinh
    node (~1e-300), which the quadrature loses, so s + 1 < 0.05 is rejected
    in favor of :func:`hurwitz_hermite`, as is |s| < 1e-3 (1/Gamma(s) -> 0).
    """
    s, u = _require_hurwitz(s, u)
    if not s + 1.0 >= 0.05:
        raise ValueError(
            f"s + 1 < 0.05 loses the kernel mass below the first node, got s = {s!r}; "
            "use hurwitz_hermite"
        )
    if abs(s) < 1e-3:
        raise ValueError("s within 1e-3 of 0 degenerates (1/Gamma(s) -> 0); use hurwitz_hermite")
    if s > 106.0:
        raise ValueError(f"s > 106 overflows w^s on the kept nodes, got s = {s!r}")

    def integral(v):
        def f(w):
            live = w <= _EXP_DEAD
            wl = np.where(live, w, 1.0)
            return np.where(live, np.exp(-wl) * wl**s * binet_bracket_over_v(wl / v), 0.0)

        # integral / Gamma(s) is O(s); v^{-s-1} last, so no partial product underflows.
        return 1.0 / math.gamma(s) * integrate_semiaxis(f, cfg).value * v ** (-s - 1.0)

    return _hurwitz(s, u, integral)


# --- Maclaurin delta constants ----------------------------------------------


def delta_n(n: int, m: int = 1_000_000) -> Tuple[float, float]:
    """The Maclaurin-series constants delta_0 = 1/2 and delta_1, both ways:

        limit form:  sum_{k=1}^{m} log^n(k) - int_1^m log^n(x) dx
                     - (1/2) log^n(m),   evaluated at the given m,
        closed form: (-1)^n [zeta^{(n)}(0) + n!], i.e. 1/2 for n = 0 and
                     (1/2) log 2pi - 1 for n = 1 (using zeta'(0) from
                     :func:`zeta_prime0`).

    Returned as (limit form, closed form).  For n = 0 the partial sum
    telescopes to 1/2 at every m; for n = 1 the limit converges like
    O(1/m), and sum log k is taken in fixed-size chunks, so memory does
    not depend on m.
    """
    n = _require_order(n, "n", 0, 1)
    m = _require_order(m, "m", 10)
    if n == 0:
        # sum_{k<=m} 1 - int_1^m dx - 1/2 = m - (m-1) - 1/2, exactly 1/2.
        limit_form = float(m) - (m - 1.0) - 0.5
        closed_form = 0.5  # (-1)^0 [zeta(0) + 0!] = -1/2 + 1
    else:
        log_sum = _chunked_sum(np.log, 1, m)
        integral = m * math.log(m) - m + 1.0
        limit_form = log_sum - integral - 0.5 * math.log(m)
        closed_form = -(zeta_prime0(1.0) + 1.0)
    return limit_form, closed_form
