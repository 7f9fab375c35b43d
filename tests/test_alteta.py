"""Tests for the alternating Hurwitz zeta function and its identity web.

The two evaluators (parity split through the Hurwitz integrals; damped
binomial double sum) are compared against alternating-series references
computed independently with series acceleration, and the closed-form
expressions they induce for gamma, gamma_1, gamma_p(1/2), and sums of
gamma_p over rational arguments are checked against the same frozen refs.
"""

import math

import pytest

from stieltjes import (
    alt_deriv_at_1,
    alt_zeta,
    alt_zeta_hasse,
    euler_constant_59,
    gamma1_via_alt,
    gamma_half_closed,
    gamma_value,
    half_shift_check,
    stieltjes_sum_over_fractions,
)

import refs


# ---------------------------------------------------------------------------
# request validation


def test_request_validation():
    with pytest.raises(ValueError):
        alt_zeta(2.0, 0.0)
    with pytest.raises(ValueError):
        alt_zeta(2.0, -1.0)
    with pytest.raises(ValueError):
        alt_zeta(math.inf, 1.0)
    with pytest.raises(ValueError):
        alt_zeta_hasse(2.0, 1.0, n=7)
    with pytest.raises(ValueError):
        alt_zeta_hasse(2.0, 1.0, n=-1)


# ---------------------------------------------------------------------------
# the two evaluators


@pytest.mark.parametrize("s,x", sorted(refs.ALT_ZETA))
def test_parity_split_evaluator(s, x):
    ref = refs.ALT_ZETA[(s, x)]
    assert abs(alt_zeta(s, x) - ref) < 1e-13


@pytest.mark.parametrize("x", sorted(refs.ALT_AT_1))
def test_parity_split_at_pole(x):
    """At s = 1 the two Hurwitz poles cancel; the limit is
    (1/2)[psi((1+x)/2) - psi(x/2)], in particular log 2 at x = 1."""
    assert abs(alt_zeta(1.0, x) - refs.ALT_AT_1[x]) < 1e-13


def test_eta_values():
    """x = 1 specializes to the Dirichlet eta function."""
    assert abs(alt_zeta(1.0, 1.0) - refs.CONST["log_2"]) < 1e-14
    assert abs(alt_zeta(2.0, 1.0) - math.pi**2 / 12.0) < 1e-13


@pytest.mark.parametrize("n,x", sorted(refs.ALT_DERIV))
def test_damped_binomial_sum(n, x):
    """The double sum equals sum_k (-1)^k log^n(x+k)/(x+k) for every order."""
    ref = refs.ALT_DERIV[(n, x)]
    assert abs(alt_zeta_hasse(1.0, x, n) - ref) < 1e-13 * max(1.0, abs(ref))


def test_damped_sum_away_from_pole():
    """s != 1 also works; compare with the parity-split route."""
    for s in (0.5, 1.5, 2.0):
        for x in (0.5, 1.0, 2.0):
            assert abs(alt_zeta_hasse(s, x) - alt_zeta(s, x)) < 1e-12


def test_damped_sum_truncation_argument():
    with pytest.raises(ValueError):
        alt_zeta_hasse(1.0, 1.0, 0, i_max=-1)


# ---------------------------------------------------------------------------
# derivative bridge: Stieltjes form vs damped sum


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(5))
def test_derivative_bridge(n, x):
    """(1/2) sum_k C(n,k) log^{n-k} 2 [gamma_k(x/2) - gamma_k((1+x)/2)]
    equals the damped binomial sum; both equal the frozen reference."""
    s_form, h_form = alt_deriv_at_1(n, x)
    ref = refs.ALT_DERIV[(n, x)]
    scale = max(1.0, abs(ref))
    assert abs(s_form - h_form) < 1e-12 * scale
    assert abs(s_form - ref) < 1e-12 * scale


def test_eta_prime_special_value():
    """n = 1, x = 1: the sum is -eta'(1) = log^2(2)/2 - gamma log 2."""
    _, h_form = alt_deriv_at_1(1, 1.0)
    assert abs(h_form + refs.CONST["eta_prime_1"]) < 1e-14


def test_derivative_bridge_order_cap():
    with pytest.raises(ValueError):
        alt_deriv_at_1(5, 1.0)


# ---------------------------------------------------------------------------
# closed forms for gamma, gamma_1, gamma_p(1/2)


def test_euler_constant_from_damped_sums():
    assert abs(euler_constant_59() - refs.CONST["euler_gamma"]) < 1e-13


def test_gamma1_from_damped_sums():
    assert abs(gamma1_via_alt() - refs.GAMMA_AT_1[1]) < 1e-13


@pytest.mark.parametrize("p", range(7))
def test_gamma_at_one_half(p):
    ref = refs.GAMMA[(p, 0.5)]
    assert abs(gamma_half_closed(p) - ref) < 1e-13 * max(1.0, abs(ref))


def test_gamma_half_reference_value():
    """gamma_1(1/2) = -1.3534596808049... (printed check digit)."""
    assert abs(gamma_half_closed(1) + 1.353459680804942) < 1e-12


# ---------------------------------------------------------------------------
# rational-argument sums and the half-shift relation


@pytest.mark.parametrize("p", range(3))
@pytest.mark.parametrize("q", [2, 3, 4])
def test_fraction_ladder_sums(p, q):
    """sum_{r<q} gamma_p(r/q): the closed form and the direct sum must both
    reproduce the independently computed reference."""
    ref = refs.FRACTION_SUMS[(p, q)]
    closed, direct = stieltjes_sum_over_fractions(p, q)
    scale = max(1.0, abs(ref))
    assert abs(closed - ref) < 1e-12 * scale
    assert abs(direct - ref) < 1e-12 * scale


def test_fraction_ladder_domain():
    with pytest.raises(ValueError):
        stieltjes_sum_over_fractions(5, 2)
    with pytest.raises(ValueError):
        stieltjes_sum_over_fractions(0, 7)
    with pytest.raises(ValueError):
        stieltjes_sum_over_fractions(0, 1)


@pytest.mark.parametrize("k", range(6))
def test_half_shift_relation(k):
    """gamma_k(3/2) - gamma_k(1/2) = (-1)^k 2 log^k 2 up to sign convention;
    the residual of the implemented identity must vanish."""
    assert half_shift_check(k) < 1e-13


def test_half_shift_consistency_with_gamma_values():
    """Independent rebuild of the k = 1 case from gamma_value directly:
    gamma_1(3/2) - gamma_1(1/2) = 2 log 2."""
    lhs = gamma_value(1, 1.5) - gamma_value(1, 0.5)
    assert abs(lhs - 2.0 * refs.CONST["log_2"]) < 1e-12
