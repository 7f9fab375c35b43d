"""Generalized Stieltjes constants gamma_n(u) via independent representations.

gamma_n(u) are the Laurent coefficients of the Hurwitz zeta function about
s = 1,

    zeta(s, u) = 1/(s-1) + sum_{n>=0} (-1)^n gamma_n(u) (s-1)^n / n!,

with gamma_0(u) = -psi(u) and gamma_n = gamma_n(1) the classical Stieltjes
constants.  Four mathematically independent computational routes are
provided and cross-validated:

* :func:`gamma_hasse`      -- the globally convergent binomial double series,
* :func:`gamma_coffey`     -- a Hermite-type contour integral (real form),
* :func:`gamma_bell_family`-- Laplace-kernel integrals weighted by the
                              reciprocal-gamma derivative coefficients c_k,
* :func:`gamma_brede`      -- the Appell-polynomial weighted integral (u = 1).

Around them sit the objects they certify: the Brede polynomials p_n, the
inversion identity tying gamma-values to pure log-power integrals I_n, the
zeta derivatives at s = 0 (log-gamma / Binet, second derivative, Barnes G),
two analytic continuations of zeta(s, u) (Hermite and Laplace forms), and
the Euler-Maclaurin-accelerated defining limit.

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

import mpmath as mp
import numpy as np

from .bellpoly import _MAX_DERIVATIVE, gamma_derivative_at_one, inv_gamma_derivative_at_zero
from .quad import (
    QuadConfig,
    QuadResult,
    binet_bracket,
    binet_bracket_over_v,
    integrate_finite,
    integrate_semiaxis,
)
from .specfun import _require_finite, _require_order, _require_positive, constant_table, log_gamma

__all__ = [
    "FLAG_CANCELLATION",
    "FLAG_NO_CONVERGENCE",
    "ENVELOPES",
    "Method",
    "MethodResult",
    "GammaRequest",
    "RealPolynomial",
    "gamma_hasse",
    "gamma_coffey",
    "gamma1_hermite",
    "bell_family_coefficients",
    "gamma_bell_family",
    "brede_poly",
    "gamma_brede",
    "gamma_limit",
    "a_coefficient",
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
# Beyond this, exp(-2 pi x) has underflowed and the e^{2 pi x}-weighted
# integrands are identically zero to binary64.
_WEIGHT_CUTOFF = 200.0

FLAG_CANCELLATION = "cancellation"
FLAG_NO_CONVERGENCE = "no_convergence"


class Method(str, Enum):
    """Which representation produced a value."""

    HASSE = "hasse"
    COFFEY = "coffey"
    BELL_FAMILY = "bell"
    BREDE = "brede"
    LIMIT = "limit"
    HERMITE1 = "hermite1"


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


class _Envelope(NamedTuple):
    """A route's domain: n <= max_n (None: no cap) and that one u (None: any u > 0)."""

    max_n: Optional[int]
    u: Optional[float]

    def admits(self, n: int, u: float) -> bool:
        return (self.max_n is None or n <= self.max_n) and (self.u is None or u == self.u)


# Each gamma_n(u) route's domain.  Hasse and Bell-family need c_k for k <= n,
# tabulated to _MAX_DERIVATIVE; Coffey needs none (measured against
# mp.stieltjes to n = 40 over u in [0.1, 10]); Brede and the limit are u = 1
# forms with the caps their tests cover.
ENVELOPES = MappingProxyType({
    Method.HASSE: _Envelope(_MAX_DERIVATIVE, None),
    Method.COFFEY: _Envelope(None, None),
    Method.BELL_FAMILY: _Envelope(_MAX_DERIVATIVE, None),
    Method.BREDE: _Envelope(10, 1.0),
    Method.LIMIT: _Envelope(8, 1.0),
})


@dataclass(frozen=True)
class GammaRequest:
    """A validated (order n, argument u) pair for the gamma_n(u) ops; with a
    ``method``, (n, u) must also lie in that route's entry of ENVELOPES."""

    n: int
    u: float
    method: Optional[Method] = None

    def __post_init__(self):
        object.__setattr__(self, "n", _require_order(self.n, "order n"))
        object.__setattr__(self, "u", _require_positive(self.u, "argument u"))
        if self.method is not None and not ENVELOPES[self.method].admits(self.n, self.u):
            max_n, u = ENVELOPES[self.method]
            at = "" if u is None else f" at u = {u:g}"
            raise ValueError(
                f"{Method(self.method).value} is defined for n <= {max_n}{at}, "
                f"got n = {self.n}, u = {self.u:.15g}"
            )


@dataclass(frozen=True)
class RealPolynomial:
    """Dense univariate polynomial, coefficients in ascending degree."""

    coefficients: Tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        acc = np.zeros_like(np.asarray(z, dtype=float)) + self.coefficients[-1]
        for c in self.coefficients[-2::-1]:
            acc = acc * z + c
        return acc if acc.ndim else float(acc)

    def derivative(self) -> "RealPolynomial":
        if self.degree == 0:
            return RealPolynomial((0.0,))
        return RealPolynomial(
            tuple(k * c for k, c in enumerate(self.coefficients) if k > 0)
        )


def _assemble_flags(max_intermediate: float, value: float, converged: bool) -> Tuple[str, ...]:
    flags = []
    if max_intermediate > abs(value) * _CANCELLATION_RATIO:
        flags.append(FLAG_CANCELLATION)
    if not converged:
        flags.append(FLAG_NO_CONVERGENCE)
    return tuple(flags)


def _log_power_prefactor(n: int, u: float) -> float:
    """log^n(u)/(2u) - log^{n+1}(u)/(n+1), the boundary terms shared by the
    Coffey and Bell-family representations (log^0 = 1, so n = 0 gives
    1/(2u) - log u)."""
    lg = math.log(u)
    return lg**n / (2.0 * u) - lg ** (n + 1) / (n + 1)


def _hermite_weighted(g):
    """Integrand on (0, inf) for a g carrying the 1/(e^{2 pi x} - 1) weight.

    g only ever sees the clamped nodes xc = min(x, _WEIGHT_CUTOFF); past the
    cutoff the weighted integrand is identically zero to binary64.
    """

    def f(x):
        xc = np.minimum(x, _WEIGHT_CUTOFF)
        return np.where(x > _WEIGHT_CUTOFF, 0.0, g(xc))

    return f


# --- Hasse series with exact integral tail ----------------------------------


@lru_cache(maxsize=64)
def _hasse_tail_kernel(j_max: int):
    """Vectorized K(t) = rho_J(t)/t, rho_J(t) = (t - L_{J+1}(phi))/phi,
    phi = 1 - e^{-t}.

    This is the generating-function remainder of the Hasse outer sum
    truncated after j = J: sum_{j>J} phi^j/(j+1) = rho_J(t)/t with
    L_N(phi) = sum_{m=1}^N phi^m/m (so that L_inf = -log(1-phi) = t).
    Where the analytic bound phi^{J+1}/((J+2)(1-phi)) is below 1e-19 the
    density is forced to exactly 0: the true value is below that bound and
    the raw t - L difference there is pure cancellation noise.
    """
    recip = [1.0 / m for m in range(j_max + 1, 0, -1)]
    log_threshold = math.log(1e-19)

    def kernel(t: np.ndarray) -> np.ndarray:
        phi = -np.expm1(-t)
        acc = np.zeros_like(phi)
        for c in recip:
            acc = (acc + c) * phi
        with np.errstate(divide="ignore"):
            bound = (j_max + 1) * np.log(phi) - np.log(
                (j_max + 2) * np.maximum(1.0 - phi, 1e-305)
            )
        return np.where(bound > log_threshold, (t - acc) / phi, 0.0) / t

    return kernel


def _hasse_head(n: int, u: float, j_max: int) -> Tuple[float, float]:
    """sum_{j=0}^{J} [1/(j+1)] sum_k C(j,k)(-1)^k log^{n+1}(u+k), and the
    largest |partial term|/(n+1) seen (for the cancellation diagnostic).

    The inner alternating binomial sums are iterated forward differences of
    the sequence log^{n+1}(u+k).  The table is computed in mpmath and rounded
    once to fixed point with ``prec`` fractional bits; the differences and
    the sum over j (over the common denominator lcm(1..J+1)) are then exact
    integer arithmetic, and one correctly rounded int/int division gives the
    binary64 head.  That table rounding is the only error: at most half a
    fixed-point ulp per entry, which the j-th difference amplifies by at most
    2^j.  Each difference order thus costs ~0.30 decimal digits, so the
    working precision grows linearly with j_max.  This fixed-point head is
    bit-identical to the same differences done in mpf at this precision, and
    so is every gamma_hasse value built on it; a different dps could move
    the last bit of a head that sits near a binary64 rounding boundary.
    """
    dps = int(0.302 * j_max) + 25
    with mp.workdps(dps):
        prec = mp.mp.prec
        um = mp.mpf(u)
        table = [
            mp.libmp.to_fixed((mp.log(um + k) ** (n + 1))._mpf_, prec)
            for k in range(j_max + 1)
        ]
    lcm = math.lcm(*range(1, j_max + 2))
    total = 0
    max_term = 0.0
    for j in range(j_max + 1):
        d = table[0]
        total += d * (lcm // (j + 1))
        max_term = max(max_term, abs(d / ((j + 1) << prec)) / (n + 1))
        for k in range(j_max - j):
            table[k] -= table[k + 1]
    return total / (lcm << prec), max_term


def _log_moments(kernel, u: float, powers, cfg: Optional[QuadConfig]) -> QuadResult:
    """M_p(u) = int_0^inf log^p(v) e^{-u v} K(v) dv for every p in ``powers``,
    as the rows of one stacked exp-sinh pass over the kernel K."""

    def f(v):
        damped = np.exp(-u * v)
        lg = np.log(v)
        kv = kernel(v)
        out = np.empty((len(powers), len(v)))
        for row, p in zip(out, powers):
            row[:] = damped * lg**p * kv if p else damped * kv
        return out

    return integrate_semiaxis(f, cfg)


def _moment_convolution(kernel, n: int, u: float, cfg: Optional[QuadConfig]):
    """(-1)^n sum_{k=0}^{n} C(n,k) c_k M_{n-k}(u), the shared tail of the
    Hasse and Bell-family routes, from one moment pass: returns the sum, its
    propagated estimate, the largest |term| and the pass's QuadResult."""
    r = _log_moments(kernel, u, range(n + 1), cfg)
    total = estimate = max_term = 0.0
    for k, c_k in enumerate(bell_family_coefficients(n)):
        weight = comb(n, k) * c_k
        term = weight * r.value[n - k]
        total += term
        estimate += abs(weight) * r.error_estimate[n - k]
        max_term = max(max_term, abs(term))
    return (-1.0) ** n * total, estimate, max_term, r


def gamma_hasse(
    n: int,
    u: float = 1.0,
    *,
    j_max: int = 120,
    cfg: Optional[QuadConfig] = None,
) -> MethodResult:
    """gamma_n(u) from the globally convergent binomial double series

        gamma_n(u) = -1/(n+1) sum_{j>=0} 1/(j+1)
                     sum_{k=0}^{j} C(j,k) (-1)^k log^{n+1}(u+k).

    The outer terms decay only like ~1/(j^{u+1} log j), far too slowly to
    truncate at any affordable j, so the series is split exactly: terms
    j <= j_max are summed as written (iterated forward differences in exact
    fixed-point integers), and the infinite remainder is resummed in closed
    form through its integral representation

        sum_{j>J} (...)  =  -(-1)^{n+1} sum_{m=0}^{n} C(n,m) c_m
                            int_0^inf log^{n-m}(t) e^{-u t} rho_J(t)/t dt,

    where rho_J is the truncated-geometric remainder density (see
    ``_hasse_tail_kernel``) and c_m = d^m/ds^m [1/Gamma(1+s)] at 0.  The
    result is therefore independent of ``j_max`` to roundoff; ``j_max``
    only moves work between the series head and the tail integrals.
    """
    req = GammaRequest(n, u, Method.HASSE)
    j_max = _require_order(j_max, "j_max")
    head, head_term = _hasse_head(req.n, req.u, j_max)
    tail, tail_estimate, tail_term, r = _moment_convolution(
        _hasse_tail_kernel(j_max), req.n, req.u, cfg
    )
    value = -head / (req.n + 1) + tail
    max_term = max(head_term, tail_term)
    return MethodResult(
        value=value,
        error_estimate=tail_estimate + 4e-16 * max(abs(value), max_term),
        method=Method.HASSE,
        evaluations=j_max + 1 + r.evaluations,
        flags=_assemble_flags(max_term, value, r.converged),
    )


@lru_cache(maxsize=1024)
def gamma_value(n: int, u: float = 1.0) -> float:
    """Cached gamma_n(u) value (Hasse route), for identity assembly."""
    return gamma_hasse(n, u).value


# --- Coffey contour integral -------------------------------------------------


def gamma_coffey(n: int, u: float = 1.0, cfg: Optional[QuadConfig] = None) -> MethodResult:
    """gamma_n(u) from the Hermite-contour representation

        gamma_n(u) = log^n(u)/(2u) - log^{n+1}(u)/(n+1)
                     + int_0^inf -2 Im[(u - i x) log^n(u + i x)]
                                 / [(u^2 + x^2)(e^{2 pi x} - 1)] dx,

    with the principal complex logarithm (safe: u > 0 keeps u + i x in the
    right half-plane).  The i[z L - conj(z L)] combination of the analytic
    form is folded to -2 Im[z L] so the whole computation is real.
    """
    req = GammaRequest(n, u, Method.COFFEY)
    u = req.u
    prefactor = _log_power_prefactor(req.n, u)

    def f(xc):
        z = u + 1j * xc
        num = -2.0 * np.imag((u - 1j * xc) * np.log(z) ** req.n)
        den = (u * u + xc * xc) * np.expm1(2.0 * math.pi * xc)
        return num / den

    r = integrate_semiaxis(_hermite_weighted(f), cfg)
    value = prefactor + r.value
    max_term = max(abs(prefactor), abs(r.value))
    return MethodResult(
        value=value,
        error_estimate=r.error_estimate + 2e-16 * max_term,
        method=Method.COFFEY,
        evaluations=r.evaluations,
        flags=_assemble_flags(max_term, value, r.converged),
    )


def gamma1_hermite(u: float, cfg: Optional[QuadConfig] = None) -> MethodResult:
    """gamma_1(u) from the pair of real Hermite-type integrals

        gamma_1(u) = log(u)/(2u) - log^2(u)/2
                     + int_0^inf x log(u^2 + x^2) / [(u^2+x^2)(e^{2 pi x}-1)] dx
                     - 2u int_0^inf atan(x/u) / [(u^2+x^2)(e^{2 pi x}-1)] dx.

    This is Coffey's integrand at n = 1 split into two real integrals, since
    -2 Im[(u - ix) log(u + ix)] = x log(u^2 + x^2) - 2u atan(x/u); agreement
    with :func:`gamma_coffey` is not an independent vote.
    """
    u = _require_positive(u, "u")

    def f_log(xc):
        den = (u * u + xc * xc) * np.expm1(2.0 * math.pi * xc)
        return xc * np.log(u * u + xc * xc) / den

    def f_atan(xc):
        den = (u * u + xc * xc) * np.expm1(2.0 * math.pi * xc)
        return np.arctan2(xc, u) / den

    r1 = integrate_semiaxis(_hermite_weighted(f_log), cfg)
    r2 = integrate_semiaxis(_hermite_weighted(f_atan), cfg)
    prefactor = math.log(u) / (2.0 * u) - math.log(u) ** 2 / 2.0
    value = prefactor + r1.value - 2.0 * u * r2.value
    max_term = max(abs(prefactor), abs(r1.value), abs(2.0 * u * r2.value))
    return MethodResult(
        value=value,
        error_estimate=r1.error_estimate + 2.0 * u * r2.error_estimate + 2e-16 * max_term,
        method=Method.HERMITE1,
        evaluations=r1.evaluations + r2.evaluations,
        flags=_assemble_flags(max_term, value, r1.converged and r2.converged),
    )


# --- Bell-family representation ---------------------------------------------


@lru_cache(maxsize=None)
def bell_family_coefficients(k_max: int) -> Tuple[float, ...]:
    """c_k = d^k/ds^k [1/Gamma(s)] at s = 1, for k = 0..k_max.

    These are the complete Bell polynomial values Y_k at the arguments
    -psi(1), -psi'(1), ..., -psi^{(k-1)}(1); first values 1, gamma,
    gamma^2 - zeta(2).  Computed once per process and cached immutably.
    """
    k_max = _require_order(k_max, "k_max", 0, _MAX_DERIVATIVE)
    return tuple(inv_gamma_derivative_at_zero(k) for k in range(k_max + 1))


def gamma_bell_family(
    n: int,
    u: float = 1.0,
    *,
    kernel: str = "half",
    cfg: Optional[QuadConfig] = None,
) -> MethodResult:
    """gamma_n(u) from Binet-kernel integrals weighted by the c_k,

        gamma_n(u) = log^n(u)/(2u) - log^{n+1}(u)/(n+1)
                     + (-1)^n sum_{k=0}^{n} C(n,k) c_k
                       int_0^inf e^{-u v} log^{n-k}(v) B(v) dv,

    with B(v) = 1/(e^v - 1) - 1/v + 1/2 and c_k from
    :func:`bell_family_coefficients`.

    ``kernel="bare"`` (u = 1, n >= 1 only) drops the +1/2 inside the
    kernel; the two kernels agree there because the reciprocal-gamma
    derivative coefficients convolve against Gamma-derivatives to zero for
    n >= 1 (the negation identity of the Bell polynomials).
    """
    req = GammaRequest(n, u, Method.BELL_FAMILY)
    u = req.u
    if kernel not in ("half", "bare"):
        raise ValueError(f"kernel must be 'half' or 'bare', got {kernel!r}")
    if kernel == "bare" and (u != 1.0 or req.n < 1):
        raise ValueError("kernel='bare' is only valid at u = 1 with n >= 1")
    shift = 0.0 if kernel == "half" else -0.5
    prefactor = _log_power_prefactor(req.n, u)
    total, estimate, max_term, r = _moment_convolution(
        lambda v: binet_bracket(v) + shift, req.n, u, cfg
    )
    value = prefactor + total
    max_term = max(abs(prefactor), max_term)
    return MethodResult(
        value=value,
        error_estimate=estimate + 2e-16 * max_term,
        method=Method.BELL_FAMILY,
        evaluations=r.evaluations,
        flags=_assemble_flags(max_term, value, r.converged),
    )


# --- Brede polynomials -------------------------------------------------------


def brede_poly(n: int) -> RealPolynomial:
    """The degree-n Appell polynomial p_n(z) = sum_k C(n,k)(-1)^k c_k z^{n-k}.

    Monic by construction (the k = 0 term is z^n); p_0 = 1, p_1 = z - gamma,
    p_2 = z^2 - 2 gamma z + gamma^2 - zeta(2).  Satisfies p_n' = n p_{n-1}.
    """
    n = _require_order(n, "n", 0, _MAX_DERIVATIVE)
    cs = bell_family_coefficients(n)
    coefficients = [0.0] * (n + 1)
    for k in range(n + 1):
        coefficients[n - k] = comb(n, k) * (-1.0) ** k * cs[k]
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
    poly = brede_poly(GammaRequest(n, 1.0, Method.BREDE).n)

    def f(v):
        return poly(-np.log(v)) * np.exp(-v) * (binet_bracket(v) + 0.5)

    r = integrate_semiaxis(f, cfg)
    max_term = max(abs(c) for c in poly.coefficients)
    return MethodResult(
        value=r.value,
        error_estimate=r.error_estimate + 2e-16 * max_term,
        method=Method.BREDE,
        evaluations=r.evaluations,
        flags=_assemble_flags(max_term, r.value, r.converged),
    )


# --- defining limit with Euler-Maclaurin correction -------------------------


def gamma_limit(n: int, r: int) -> MethodResult:
    """gamma_n = lim_{r->inf} [sum_{m=1}^r log^n(m)/m - log^{n+1}(r)/(n+1)],
    evaluated at finite r with the first Euler-Maclaurin correction
    -log^n(r)/(2r) applied, which improves the convergence from O(log^n r/r)
    to O(log^{n+1} r / r^2).

    The error estimate is |value(r) - value(r/2)|, an honest upper-bound
    proxy for the remaining truncation error.
    """
    n = GammaRequest(n, 1.0, Method.LIMIT).n
    r = _require_order(r, "r", 10)
    m = np.arange(1, r + 1, dtype=float)
    lg = np.log(m)
    terms = lg**n / m

    def assemble(rr: int) -> float:
        lr = lg[rr - 1]
        return float(np.sum(terms[:rr])) - lr ** (n + 1) / (n + 1) - lr**n / (2.0 * rr)

    value = assemble(r)
    half = assemble(r // 2)
    return MethodResult(
        value=value,
        error_estimate=abs(value - half),
        method=Method.LIMIT,
        evaluations=r,
        flags=(),
    )


# --- inversion / positivity machinery ---------------------------------------


def a_coefficient(n: int, cfg: Optional[QuadConfig] = None) -> Tuple[float, float]:
    """The Stieltjes expansion coefficients a_n, both ways:

        integral form:  int_0^inf e^{-x} [1/(1 - e^{-x}) - 1/x] log^n(x) dx,
        binomial form:  sum_{j=0}^{n} C(n,j) (-1)^j gamma_j Gamma^{(n-j)}(1).

    Returned as (integral form, binomial form); their equality is the test.
    """
    n = _require_order(n, "n", 0, 8)
    integral = _log_moments(lambda v: binet_bracket(v) + 0.5, 1.0, (n,), cfg).value[0]
    binomial = math.fsum(
        comb(n, j) * (-1.0) ** j * gamma_value(j, 1.0) * gamma_derivative_at_one(n - j)
        for j in range(n + 1)
    )
    return integral, binomial


def inversion_sum(n: int, u: float = 1.0, cfg: Optional[QuadConfig] = None) -> Tuple[float, float]:
    """Both sides of the inversion identity expressing the pure log-power
    Binet integrals through gamma-values:

        sum side:      sum_k C(n,k)(-1)^k [gamma_k(u) - log^k(u)/(2u)
                         + log^{k+1}(u)/(k+1)] Gamma^{(n-k)}(1),
        integral side: int_0^inf e^{-u v} log^n(v) B(v) dv.

    Returned as (sum side, integral side).
    """
    n = _require_order(n, "n", 0, 8)
    u = _require_positive(u, "u")
    lg = math.log(u)
    sum_side = math.fsum(
        comb(n, k)
        * (-1.0) ** k
        * (gamma_value(k, u) - lg**k / (2.0 * u) + lg ** (k + 1) / (k + 1))
        * gamma_derivative_at_one(n - k)
        for k in range(n + 1)
    )
    integral_side = _log_moments(binet_bracket, u, (n,), cfg).value[0]
    return sum_side, integral_side


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
    r = _log_moments(binet_bracket, 1.0, (n,), cfg)
    return MethodResult(
        value=r.value[0],
        error_estimate=r.error_estimate[0],
        method=Method.BELL_FAMILY,
        evaluations=r.evaluations,
        flags=_assemble_flags(abs(r.value[0]), r.value[0], r.converged),
    )


# --- zeta derivatives at s = 0 ----------------------------------------------


def zeta_prime0(u: float, cfg: Optional[QuadConfig] = None) -> float:
    """zeta'(0, u) = int_0^inf (e^{-u v}/v) B(v) dv - (1/2 - u) log u - u.

    Lerch's identity zeta'(0, u) = log Gamma(u) - (1/2) log 2pi is the
    external check; u = 1 gives -(1/2) log 2pi.  The bracket-over-v kernel
    uses its series form near 0 (removable singularity, limit 1/12).
    """
    u = _require_positive(u, "u")
    moment = _log_moments(binet_bracket_over_v, u, (0,), cfg).value[0]
    return moment - (0.5 - u) * math.log(u) - u


def zeta_second0(u: float, cfg: Optional[QuadConfig] = None) -> float:
    """zeta''(0, u) = (1/2 - u) log^2 u + 2u log u - 2u
                      - 2 int_0^inf log(u^2 + x^2) atan(x/u) / (e^{2 pi x} - 1) dx.

    Its u-derivative equals 2 gamma_1(u), which the test suite checks by
    central finite differences against :func:`gamma_hasse`.
    """
    u = _require_positive(u, "u")

    def f(xc):
        num = np.log(u * u + xc * xc) * np.arctan2(xc, u)
        return num / np.expm1(2.0 * math.pi * xc)

    r = integrate_semiaxis(_hermite_weighted(f), cfg)
    lg = math.log(u)
    return (0.5 - u) * lg * lg + 2.0 * u * lg - 2.0 * u - 2.0 * r.value


def barnes_g_log(t: float, cfg: Optional[QuadConfig] = None) -> float:
    """log G(1+t) for the Barnes G-function (G(1) = G(2) = 1),

        log G(1+t) = t log Gamma(t) + (t^2 - 1)/4 - (t/2)(t-1) log t
                     + int_0^inf (e^{-t v} - e^{-v})/v^2 B(v) dv.

    Satisfies the recursion G(1+t) = Gamma(t) G(t); t = 3 gives log 2.
    """
    t = _require_positive(t, "t")

    def f(v):
        # (e^{-t v} - e^{-v})/v, stabilized: expm1 form in the cancellation
        # zone (both exponentials ~1), direct difference elsewhere.
        d = (1.0 - t) * v
        near = np.abs(d) < 20.0
        ds = np.where(near, d, 0.0)
        stable = -np.expm1(-ds) * np.exp(-t * v)
        direct = np.exp(-t * v) - np.exp(-v)
        return np.where(near, stable, direct) / v * binet_bracket_over_v(v)

    r = integrate_semiaxis(f, cfg)
    return (
        t * log_gamma(t)
        + (t * t - 1.0) / 4.0
        - 0.5 * t * (t - 1.0) * math.log(t)
        + r.value
    )


# --- Hurwitz zeta continuations ---------------------------------------------


def hurwitz_hermite(s: float, u: float, cfg: Optional[QuadConfig] = None) -> float:
    """zeta(s, u) by Hermite's integral, valid for every real s != 1:

        zeta(s, u) = u^{-s}/2 + u^{1-s}/(s-1)
                     + 2 int_0^inf sin(s atan(x/u))
                       / [(u^2 + x^2)^{s/2} (e^{2 pi x} - 1)] dx.

    Reaches the analytic continuation: s = 0 gives -1/2 - ... 1/2 - 1 = -1/2
    (the integrand vanishes identically) and s = -1 gives -1/12.
    """
    s = _require_finite(s, "s")
    u = _require_positive(u, "u")
    if s == 1.0:
        raise ValueError("s = 1 is the pole of zeta(s, u)")

    def f(xc):
        num = np.sin(s * np.arctan2(xc, u))
        den = (u * u + xc * xc) ** (0.5 * s) * np.expm1(2.0 * math.pi * xc)
        return num / den

    r = integrate_semiaxis(_hermite_weighted(f), cfg)
    return u ** (-s) / 2.0 + u ** (1.0 - s) / (s - 1.0) + 2.0 * r.value


def hurwitz_laplace(s: float, u: float, cfg: Optional[QuadConfig] = None) -> float:
    """zeta(s, u) by the Laplace/Binet-kernel representation, s in (-1, inf):

        zeta(s, u) = u^{-s}/2 + u^{1-s}/(s-1)
                     + (1/Gamma(s)) int_0^inf e^{-u v} v^{s-1} B(v) dv.

    At s = 0 the 1/Gamma(s) factor vanishes and the representation
    degenerates, so |s| < 1e-3 is rejected in favor of
    :func:`hurwitz_hermite`; likewise s = 1 (pole) and s <= -1 (kernel no
    longer integrable) are domain errors.
    """
    s = _require_finite(s, "s")
    u = _require_positive(u, "u")
    if s == 1.0:
        raise ValueError("s = 1 is the pole of zeta(s, u)")
    if not s > -1.0:
        raise ValueError(f"this representation needs s > -1, got {s!r}")
    if abs(s) < 1e-3:
        raise ValueError(
            "s within 1e-3 of 0 degenerates (1/Gamma(s) -> 0); use hurwitz_hermite"
        )

    # v^{s-1} B(v) = v^s * [B(v)/v]; the over-v form keeps the subnormal-v
    # nodes finite for s in (-1, 0].  Beyond v = 800/u the e^{-u v} factor
    # has underflowed past anything v^{s-1} can recover, so those nodes are
    # masked before v**(s-1) gets a chance to overflow.
    cut = 800.0 / u

    def f(v):
        live = v <= cut
        vl = np.where(live, v, 1.0)
        small = vl < 0.5
        vn = np.where(small, vl, 1.0)
        vf = np.where(small, 1.0, vl)
        kernel = np.where(
            small,
            vn**s * binet_bracket_over_v(vn),
            vf ** (s - 1.0) * binet_bracket(vf),
        )
        return np.where(live, np.exp(-u * vl) * kernel, 0.0)

    r = integrate_semiaxis(f, cfg)
    return u ** (-s) / 2.0 + u ** (1.0 - s) / (s - 1.0) + float(mp.rgamma(s)) * r.value


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
    O(1/m).
    """
    n = _require_order(n, "n", 0, 1)
    m = _require_order(m, "m", 10)
    if n == 0:
        # sum_{k<=m} 1 - int_1^m dx - 1/2 = m - (m-1) - 1/2, exactly 1/2.
        limit_form = float(m) - (m - 1.0) - 0.5
        closed_form = 0.5  # (-1)^0 [zeta(0) + 0!] = -1/2 + 1
    else:
        k = np.arange(1, m + 1, dtype=float)
        log_sum = float(np.sum(np.log(k)))
        integral = m * math.log(m) - m + 1.0
        limit_form = log_sum - integral - 0.5 * math.log(m)
        closed_form = -(zeta_prime0(1.0) + 1.0)
    return limit_form, closed_form
