"""The input contract: bad input is a ValueError raised when the request is
checked, before any quadrature, never a number and never an error from deep
in the engine; input just inside a documented edge is answered with finite
values, so a rule that rejects too much fails here too.

Each case is a call written as source, evaluated in the package namespace;
the id of a case is its call.  Every public function of the numerical
modules either has a bad case here or is listed in ``NO_ARGUMENT_TO_CHECK``.
"""

import math
import re

import pytest

import stieltjes
from stieltjes import alteta, bellpoly, core, quad, specfun

BAD_CALLS = [
    # specfun
    "log_gamma(inf)",
    "log_gamma(nan)",
    "log_gamma(1e306)",
    "digamma(inf)",
    "digamma(nan)",
    "digamma(5e-324)",
    "hurwitz_zeta_series(inf, 1.0)",
    "hurwitz_zeta_series(nan, 1.0)",
    "hurwitz_zeta_series(2.0, inf)",
    "hurwitz_zeta_series(2.0, nan)",
    "hurwitz_zeta_series(31.6, 3.4e-177)",
    # quad
    "QuadConfig(max_level=2.5)",
    "QuadConfig(target_tol=inf)",
    "integrate_finite(abs, 0.0, inf)",
    "integrate_finite(abs, nan, 1.0)",
    "integrate_finite(abs, -1e308, 1e308)",
    "integrate_finite(abs, 5e-324, 1e-323)",
    "legendre_relation_check(inf)",
    "legendre_relation_check(nan)",
    "legendre_relation_check(5e-324)",
    "legendre_relation_check(1e-310)",
    "legendre_relation_check(1e306)",
    "atan_laplace_check(inf, 1.0)",
    "atan_laplace_check(nan, 1.0)",
    "atan_laplace_check(1.0, inf)",
    "atan_laplace_check(1.0, nan)",
    "atan_laplace_check(1.0, 1.7e308)",
    "atan_laplace_check(1e-300, 1e10)",
    # bellpoly
    "list(partitions(2.5))",
    "complete_bell(2.5)",
    "eval_bell(2.5, [1, 2, 3])",
    "bell_number(2.5)",
    "gamma_derivative_at_one(2.5)",
    "inv_gamma_derivative_at_zero(2.5)",
    # core: the gamma_n(u) routes
    "gamma_hasse(2.5)",
    "gamma_hasse(0, inf)",
    "gamma_hasse(0, nan)",
    "gamma_value(2.5)",
    "gamma_coffey(2.5)",
    "gamma_coffey(0, inf)",
    "gamma_coffey(0, nan)",
    "gamma_coffey(3, 1e-300)",
    "gamma_hasse(3, 1e-300)",
    "gamma_bell_family(2.5)",
    "gamma_bell_family(0, inf)",
    "gamma_bell_family(0, nan)",
    "brede_poly(2.5)",
    "gamma_brede(2.5)",
    "gamma_limit(2.5, 1000)",
    "gamma_limit(2, 1000.5)",
    # core: the objects the routes certify
    "inversion_sum(2.5)",
    "inversion_sum(1, inf)",
    "inversion_sum(1, nan)",
    "inversion_sum(0, 1e-289)",
    "inversion_sum(3, 1e-289)",
    "inversion_sum(0, 1e-300)",
    "inversion_sum(8, 3e-287)",
    "inversion_sum(6, 4.646847004585899e-291)",
    "i_n_integral(2.5)",
    "zeta_prime0(inf)",
    "zeta_prime0(nan)",
    "zeta_prime0(1e306)",
    "zeta_second0(inf)",
    "zeta_second0(nan)",
    "zeta_second0(1e300)",
    "barnes_g_log(inf)",
    "barnes_g_log(nan)",
    "barnes_g_log(1e154)",
    "hurwitz_hermite(nan, 1.0)",
    "hurwitz_hermite(inf, 1.0)",
    "hurwitz_hermite(2.0, inf)",
    "hurwitz_hermite(2.0, nan)",
    "hurwitz_laplace(nan, 1.0)",
    "hurwitz_laplace(inf, 1.0)",
    "hurwitz_laplace(2.0, inf)",
    "hurwitz_laplace(2.0, nan)",
    "hurwitz_laplace(100, 1e-5)",
    "hurwitz_hermite(100, 1e-5)",
    "hurwitz_hermite(-300, 1e3)",
    "hurwitz_hermite(-300, 1.0)",
    "hurwitz_hermite(-18.5, 2.0)",
    "delta_n(1.5)",
    "delta_n(1, 1000.5)",
    # alteta
    "alt_zeta(inf, 1.0)",
    "alt_zeta(nan, 1.0)",
    "alt_zeta(2.0, inf)",
    "alt_zeta_hasse(nan, 1.0)",
    "alt_zeta_hasse(1.0, inf)",
    "alt_zeta_hasse(1.0, 1.0, 2.5)",
    "alt_zeta_hasse(1.0, 1.0, 1, i_max=2.5)",
    "alt_zeta_hasse(300.0, 1e3)",
    "alt_zeta_hasse(-300.0, 1e3)",
    "alt_zeta_hasse(300.0, 1e-3)",
    "alt_zeta_hasse(-30.0, 1e12, 1)",
    "alt_zeta_hasse(-2.451432461130011, 1.451703875419098e125, 2)",
    "alt_zeta_hasse(-17.73241799088816, 1.3191827259274686e16, 6)",
    "alt_deriv_at_1(2.5)",
    "alt_deriv_at_1(1, inf)",
    "alt_deriv_at_1(1, nan)",
    "euler_constant_59(i_max=2.5)",
    "gamma_half_closed(2.5)",
    "stieltjes_sum_over_fractions(2.5, 2)",
    "stieltjes_sum_over_fractions(1, 2.5)",
    "half_shift_check(2.5)",
]

# Calls just inside an edge that README's input contract documents.
GOOD_CALLS = [
    "digamma(6e-309)",
    "log_gamma(2.5e305)",
    "integrate_finite(abs, 5e-324, 1.5e-323)",
    "legendre_relation_check(2.0**-1021)",
    "legendre_relation_check(8.9e305)",
    "atan_laplace_check(1e300, 3e299)",
    "atan_laplace_check(1.0, 1e100)",
    "gamma_hasse(2, 1e-300)",
    "gamma_coffey(2, 1e-300)",
    "gamma_value(2, 1e-300)",
    "inversion_sum(0, 2.3e-289)",
    "inversion_sum(8, 1e-283)",
    "inversion_sum(8, 1e-285)",
    "inversion_sum(7, 1e-287)",
    "zeta_prime0(2.5e305)",
    "zeta_second0(1.3e154)",
    "barnes_g_log(7e152)",
    "hurwitz_laplace(-0.95, 2.0)",
    "hurwitz_laplace(106, 2.0)",
    "hurwitz_hermite(-18, 2.0)",
    "alt_zeta_hasse(59.05, 2.44e-5, 3)",
]

# Public callables that take no order or real argument of their own: records
# and exceptions, the integrand-only semi-axis engine, the vectorized Binet
# kernels (evaluated on quadrature nodes, where B(inf) = 1/2 is their limit)
# and the argument-free gamma1_via_alt.
NO_ARGUMENT_TO_CHECK = {
    "BellPolynomial",
    "IntegrandError",
    "Method",
    "MethodResult",
    "QuadResult",
    "RealPolynomial",
    "binet_bracket",
    "binet_bracket_over_v",
    "gamma1_via_alt",
    "integrate_semiaxis",
}

_NAMESPACE = {**vars(stieltjes), "inf": math.inf, "nan": math.nan}


def _no_quadrature(*args, **kwargs):
    raise AssertionError("bad input reached the quadrature engine")


@pytest.mark.parametrize("call", BAD_CALLS)
def test_bad_input_is_value_error(call, monkeypatch):
    monkeypatch.setattr(quad, "_refine", _no_quadrature)
    with pytest.raises(ValueError):
        eval(call, _NAMESPACE)


def _numbers(result) -> tuple:
    """The floats of a result: a record's value and estimate, or a tuple's items."""
    if isinstance(result, tuple):
        return result
    if hasattr(result, "error_estimate"):
        return result.value, result.error_estimate
    return (result,)


@pytest.mark.parametrize("call", GOOD_CALLS)
def test_input_inside_an_edge_is_answered(call):
    assert all(map(math.isfinite, _numbers(eval(call, _NAMESPACE))))


def test_every_public_function_has_a_case():
    public = {
        name
        for module in (specfun, quad, bellpoly, core, alteta)
        for name in module.__all__
        if callable(getattr(module, name))
    }
    called = {token for call in BAD_CALLS for token in re.findall(r"\w+", call)}
    assert public - called == NO_ARGUMENT_TO_CHECK
