"""Tests for the generalized-Stieltjes-constant representations.

Each computational route (binomial series with integral tail, oscillatory
Laplace integral, kernel-moment family, Appell-polynomial moments, partial-sum
limit, Hermite integral) is checked independently against 50-digit reference
values in :mod:`refs`, then against each other; the zeta-derivative and
Barnes-function evaluators and the inversion/moment identities follow.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from stieltjes import (
    ENVELOPES,
    FLAG_NO_CONVERGENCE,
    GammaRequest,
    Method,
    MethodResult,
    QuadConfig,
    RealPolynomial,
    a_coefficient,
    barnes_g_log,
    bell_family_coefficients,
    brede_poly,
    delta_n,
    gamma1_hermite,
    gamma_bell_family,
    gamma_brede,
    gamma_coffey,
    gamma_hasse,
    gamma_limit,
    gamma_value,
    hurwitz_hermite,
    hurwitz_laplace,
    i_n_integral,
    inversion_sum,
    log_gamma,
    zeta_prime0,
    zeta_second0,
)
from stieltjes.core import _hasse_head

import refs


def _scaled(ref, rel):
    return rel * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# request validation and result plumbing


def test_request_validation():
    for n, u in [(-1, 1.0), (1.5, 1.0), (0, 0.0), (0, -2.0), (0, math.inf), (0, math.nan)]:
        with pytest.raises(ValueError):
            GammaRequest(n, u)


def test_envelopes_bound_each_route():
    """Each route's request admits its largest n (at its one u, if any) and
    rejects the next n and any other u."""
    for method, envelope in ENVELOPES.items():
        u = envelope.u or 2.0
        top = 40 if envelope.max_n is None else envelope.max_n
        assert GammaRequest(top, u, method).n == top
        if envelope.max_n is not None:
            with pytest.raises(ValueError, match=f"n <= {envelope.max_n}"):
                GammaRequest(top + 1, u, method)
        if envelope.u is not None:
            with pytest.raises(ValueError, match="at u = 1"):
                GammaRequest(0, 2.0, method)


@pytest.mark.parametrize("u", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n", [13, 20, 40])
def test_coffey_beyond_table_matches_mpmath(n, u):
    """Coffey has no order cap: past the c_k table it still matches
    mp.stieltjes at 30 digits, and warns of nothing.  Its estimate is not
    asserted; it under-reports at several of these points."""
    with mp.workdps(30):
        ref = float(mp.stieltjes(n, u))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = gamma_coffey(n, u)
    assert not r.flags
    assert abs(r.value - ref) < _scaled(ref, 1e-12)


@pytest.mark.parametrize("route", [gamma_hasse, gamma_bell_family])
def test_table_routes_reject_large_order_without_warning(route):
    """Hasse and Bell-family need c_k for k <= n, tabulated to n = 12: they
    refuse n = 13 outright instead of warning and then failing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n <= 12"):
            route(13, 1.0)


def test_method_result_converged_property():
    ok = MethodResult(1.0, 1e-15, Method.HASSE, 10)
    bad = MethodResult(1.0, 1e-2, Method.HASSE, 10, flags=(FLAG_NO_CONVERGENCE,))
    assert ok.converged and not bad.converged


def test_method_enum_values():
    assert Method.HASSE.value == "hasse"
    assert Method("coffey") is Method.COFFEY


# ---------------------------------------------------------------------------
# route 1: binomial series with integral tail


@pytest.mark.parametrize("n,u", sorted(refs.GAMMA))
def test_hasse_full_grid(n, u):
    ref = refs.GAMMA[(n, u)]
    r = gamma_hasse(n, u)
    assert r.converged
    assert r.method is Method.HASSE
    assert abs(r.value - ref) < _scaled(ref, 5e-12)


@pytest.mark.parametrize("n,u", [(2, 0.75), (12, 0.1), (12, 0.75), (12, 10.0)])
def test_hasse_series_depth_independence(n, u):
    """The head-plus-tail split is exact: the result must not move with the
    truncation depth beyond roundoff."""
    a = gamma_hasse(n, u, j_max=90).value
    b = gamma_hasse(n, u, j_max=150).value
    assert abs(a - b) < _scaled(a, 1e-12)


def _hasse_head_mpf(n, u, j_max):
    """Reference head: the forward differences and the 1/(j+1) sum in mpf
    arithmetic at the working precision, rounded to binary64 at the end."""
    with mp.workdps(int(0.302 * j_max) + 25):
        um = mp.mpf(u)
        table = [mp.log(um + k) ** (n + 1) for k in range(j_max + 1)]
        head = mp.mpf(0)
        max_term = 0.0
        for j in range(j_max + 1):
            term = table[0] / (j + 1)
            head += term
            max_term = max(max_term, abs(float(term)) / (n + 1))
            for k in range(j_max - j):
                table[k] = -(table[k + 1] - table[k])
        return float(head), max_term


@pytest.mark.parametrize("j_max", [0, 1, 20, 120, 150])
def test_hasse_head_matches_mpf_differences(j_max):
    """The fixed-point head is bit-identical to the all-mpf difference loop."""
    for n in range(13):
        for u in (1e-3, 0.1, 0.37, 1.0, 3.3, 10.0, 100.0):
            assert _hasse_head(n, u, j_max) == _hasse_head_mpf(n, u, j_max), (n, u)


def test_gamma_value_is_cached_float():
    x = gamma_value(3, 1.5)
    assert isinstance(x, float)
    assert x == gamma_value(3, 1.5)
    assert abs(x - refs.GAMMA[(3, 1.5)]) < _scaled(refs.GAMMA[(3, 1.5)], 5e-12)


# ---------------------------------------------------------------------------
# route 2: oscillatory Laplace integral


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("n", range(6))
def test_coffey_grid(n, u):
    ref = refs.GAMMA[(n, u)]
    r = gamma_coffey(n, u)
    assert r.converged
    assert abs(r.value - ref) < _scaled(ref, 1e-13)


# ---------------------------------------------------------------------------
# route 3: kernel-moment (reciprocal-Gamma-coefficient) family


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(6))
def test_bell_family_grid(n, u):
    ref = refs.GAMMA[(n, u)]
    r = gamma_bell_family(n, u)
    assert abs(r.value - ref) < _scaled(ref, 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bell_family_bare_kernel(n):
    ref = refs.GAMMA_AT_1[n]
    r = gamma_bell_family(n, 1.0, kernel="bare")
    assert abs(r.value - ref) < _scaled(ref, 1e-12)


def test_bare_kernel_domain():
    with pytest.raises(ValueError):
        gamma_bell_family(0, 1.0, kernel="bare")  # n = 0 diverges bare
    with pytest.raises(ValueError):
        gamma_bell_family(1, 2.0, kernel="bare")  # bare form is u = 1 only
    with pytest.raises(ValueError):
        gamma_bell_family(1, 1.0, kernel="other")


def test_family_coefficients_match_reciprocal_gamma_derivatives():
    coeffs = bell_family_coefficients(8)
    for k, c in enumerate(coeffs):
        assert abs(c - refs.INV_GAMMA_DERIVS[k]) < 1e-12 * max(1.0, abs(refs.INV_GAMMA_DERIVS[k]))


# ---------------------------------------------------------------------------
# route 4: Appell-polynomial moments


@pytest.mark.parametrize("n", range(11))
def test_brede_route(n):
    ref = refs.GAMMA_AT_1[n]
    r = gamma_brede(n)
    assert abs(r.value - ref) < _scaled(ref, 1e-9)


def test_brede_route_order_cap():
    with pytest.raises(ValueError):
        gamma_brede(11)


def test_brede_polynomial_low_orders():
    """p_0 = 1, p_1 = z - gamma, p_2 = z^2 - 2 gamma z + gamma^2 - zeta(2)."""
    g = refs.CONST["euler_gamma"]
    z2 = refs.CONST["zeta_2"]
    assert brede_poly(0).coefficients == (1.0,)
    p1 = brede_poly(1).coefficients
    assert abs(p1[0] + g) < 1e-15 and p1[1] == 1.0
    p2 = brede_poly(2).coefficients
    assert abs(p2[0] - (g * g - z2)) < 1e-14
    assert abs(p2[1] + 2.0 * g) < 1e-14
    assert p2[2] == 1.0


@pytest.mark.parametrize("n", range(1, 11))
def test_brede_appell_property(n):
    """p_n' = n p_{n-1}: the family is an Appell sequence."""
    deriv = brede_poly(n).derivative().coefficients
    scaled = tuple(n * c for c in brede_poly(n - 1).coefficients)
    for d, s in zip(deriv, scaled):
        assert abs(d - s) < 1e-12 * max(1.0, abs(s))


def test_real_polynomial_behavior():
    p = RealPolynomial((1.0, -2.0, 3.0))  # 1 - 2z + 3z^2
    assert p.degree == 2
    assert p(2.0) == 9.0
    assert np.allclose(p(np.array([0.0, 1.0])), [1.0, 2.0])
    assert p.derivative().coefficients == (-2.0, 6.0)


# ---------------------------------------------------------------------------
# route 5: partial-sum limit


@pytest.mark.parametrize("n,tol", [(0, 1e-12), (1, 1e-10), (2, 1e-9)])
def test_limit_route(n, tol):
    ref = refs.GAMMA_AT_1[n]
    r = gamma_limit(n, 10**6)
    assert abs(r.value - ref) < tol
    assert r.error_estimate > 0.0


def test_limit_route_domain():
    with pytest.raises(ValueError):
        gamma_limit(9, 10**6)
    with pytest.raises(ValueError):
        gamma_limit(0, 5)


# ---------------------------------------------------------------------------
# route 6: Hermite integral for gamma_1(u)


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 5.0])
def test_hermite_route(u):
    ref = refs.GAMMA[(1, u)]
    r = gamma1_hermite(u)
    assert r.converged
    assert abs(r.value - ref) < _scaled(ref, 1e-13)


# ---------------------------------------------------------------------------
# moment integrals and the inversion identity


@pytest.mark.parametrize("n", range(13))
def test_i_n_against_references(n):
    ref = refs.I_N[n]
    r = i_n_integral(n)
    assert r.converged
    assert abs(r.value - ref) < _scaled(ref, 1e-11)


def test_i_n_sign_pattern():
    """I_n > 0 for even n and n in {1, 3}; I_n < 0 for odd n >= 5.

    The negative odd tail (first instance I_5 ~ -0.0413) comes from the
    (0, 1) part of the integral, where log^n v < 0 for odd n; from n = 5
    on it outweighs the positive v > 1 part.
    """
    for n in range(13):
        value = i_n_integral(n).value
        if n % 2 == 0 or n in (1, 3):
            assert value > 0.0, f"I_{n} should be positive, got {value}"
        else:
            assert value < 0.0, f"I_{n} should be negative, got {value}"


def test_i_0_closed_form():
    assert abs(i_n_integral(0).value - (refs.CONST["euler_gamma"] - 0.5)) < 1e-13


@pytest.mark.parametrize("n", range(7))
def test_a_coefficient_both_forms(n):
    ref = refs.A_N[n]
    integral, binomial = a_coefficient(n)
    assert abs(integral - ref) < _scaled(ref, 1e-12)
    assert abs(binomial - ref) < _scaled(ref, 1e-10)


def test_a_coefficient_domain():
    with pytest.raises(ValueError):
        a_coefficient(9)


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(7))
def test_inversion_sum_sides_agree(n, u):
    sum_side, integral_side = inversion_sum(n, u)
    assert abs(sum_side - integral_side) < _scaled(integral_side, 1e-11)


@pytest.mark.parametrize("n", range(7))
def test_inversion_integral_side_is_i_n_at_unit_argument(n):
    _, integral_side = inversion_sum(n, 1.0)
    assert abs(integral_side - refs.I_N[n]) < _scaled(refs.I_N[n], 1e-11)


# ---------------------------------------------------------------------------
# zeta derivatives at s = 0, Barnes function


@pytest.mark.parametrize("u", sorted(refs.ZETA_PRIME0))
def test_zeta_prime0(u):
    ref = refs.ZETA_PRIME0[u]
    assert abs(zeta_prime0(u) - ref) < _scaled(ref, 1e-13)


def test_zeta_prime0_closed_form():
    """zeta'(0, u) = log Gamma(u) - (1/2) log 2 pi."""
    for u in (0.25, 1.0, 2.0, 5.0):
        closed = log_gamma(u) - 0.5 * refs.CONST["log_2pi"]
        assert abs(zeta_prime0(u) - closed) < 1e-12


@pytest.mark.parametrize("u", sorted(refs.ZETA_SECOND0))
def test_zeta_second0(u):
    ref = refs.ZETA_SECOND0[u]
    assert abs(zeta_second0(u) - ref) < _scaled(ref, 1e-13)


def test_zeta_second0_unit_shift_invariance():
    """zeta''(0, u) - zeta''(0, u+1) = log^2 u; at u = 1 the two agree."""
    assert abs(zeta_second0(1.0) - zeta_second0(2.0)) < 1e-12
    lhs = zeta_second0(0.5) - zeta_second0(1.5)
    assert abs(lhs - math.log(0.5) ** 2) < 1e-12


@pytest.mark.parametrize("t", sorted(refs.LOG_BARNES))
def test_barnes_g_log(t):
    ref = refs.LOG_BARNES[t]
    assert abs(barnes_g_log(t) - ref) < _scaled(ref, 1e-13)


def test_barnes_g_literals():
    """G(2) = G(3) = 1 and G(4) = 2, i.e. log G(1+t) = 0, 0, log 2."""
    assert abs(barnes_g_log(1.0)) < 1e-12
    assert abs(barnes_g_log(2.0)) < 1e-12
    assert abs(barnes_g_log(3.0) - refs.CONST["log_2"]) < 1e-12


@pytest.mark.parametrize("t", [1.5, 2.5, 3.0])
def test_barnes_g_recursion(t):
    """log G(1+t) - log G(t) = log Gamma(t)."""
    lhs = barnes_g_log(t) - barnes_g_log(t - 1.0)
    assert abs(lhs - log_gamma(t)) < 1e-11


# ---------------------------------------------------------------------------
# Hurwitz zeta continuation routes


@pytest.mark.parametrize("s,u", sorted(refs.HURWITZ))
def test_hurwitz_routes_against_references(s, u):
    ref = refs.HURWITZ[(s, u)]
    assert abs(hurwitz_hermite(s, u) - ref) < _scaled(ref, 1e-13)
    assert abs(hurwitz_laplace(s, u) - ref) < _scaled(ref, 1e-13)


def test_hurwitz_domain():
    with pytest.raises(ValueError):
        hurwitz_hermite(1.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_laplace(1.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_laplace(-2.0, 1.0)  # representation needs s > -1
    with pytest.raises(ValueError):
        hurwitz_laplace(1e-4, 1.0)  # the 1/s split loses all digits near 0
    with pytest.raises(ValueError):
        hurwitz_hermite(2.0, -1.0)


# ---------------------------------------------------------------------------
# Maclaurin-series constants delta_n


@pytest.mark.parametrize("m", [10, 1000, 10**6])
def test_delta_0_exact(m):
    limit_form, closed_form = delta_n(0, m)
    assert limit_form == 0.5
    assert closed_form == 0.5


def test_delta_1():
    limit_form, closed_form = delta_n(1, 10**6)
    assert abs(closed_form - refs.CONST["delta_1"]) < 1e-11
    assert abs(limit_form - closed_form) < 1e-5


def test_delta_domain():
    with pytest.raises(ValueError):
        delta_n(2)
    with pytest.raises(ValueError):
        delta_n(0, 5)


# ---------------------------------------------------------------------------
# cross-route agreement (spot check; the validation suites sweep wider)


@pytest.mark.parametrize("u", [0.5, 2.0])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_cross_route_spread(n, u):
    values = [
        gamma_hasse(n, u).value,
        gamma_coffey(n, u).value,
        gamma_bell_family(n, u).value,
    ]
    assert max(values) - min(values) < 1e-10


def test_custom_quad_config_reaches_engine():
    cfg = QuadConfig(target_tol=1e-12, max_level=8)
    r = gamma_coffey(1, 1.0, cfg)
    assert abs(r.value - refs.GAMMA_AT_1[1]) < 1e-10
