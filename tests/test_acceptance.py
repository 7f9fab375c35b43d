"""Acceptance suite: twelve end-to-end criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE criterion-NN PASS`` line (visible with
``pytest -s``; under ``pytest -v`` the test name itself is the per-criterion
pass/fail line) and asserts with the pinned tolerances.  Tolerances here are
contract values, deliberately looser than the per-module regression tests;
they must never be edited to make a failing criterion pass.

Criterion 5 (positivity of the moment family I_n) is asserted exactly as
stated -- I_n > 0 with error_estimate < value for n = 0..12 -- and FAILS,
honestly: the statement is mathematically false for the odd orders n = 5, 7,
9, 11, where I_n is genuinely negative (I_5 = -0.04131, I_7 = -1.3216,
I_9 = -28.257, I_11 = -803.28, all confirmed independently at 50-digit
precision and by the binomial identity I_n = sum_k C(n,k)(-1)^k gamma_k
Gamma^{(n-k)}(1)).  For odd n the v in (0,1) part of the integral is
negative and grows like n! while the positive v > 1 part grows more slowly,
so the sign flips from n = 5 on.  The true sign pattern is locked in by
tests/test_core.py::test_i_n_sign_pattern and by the identities validation
suite instead.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from stieltjes import (
    QuadConfig,
    alt_deriv_at_1,
    bell_number,
    brede_poly,
    complete_bell,
    delta_n,
    euler_constant_59,
    eval_bell,
    gamma1_via_alt,
    gamma_bell_family,
    gamma_brede,
    gamma_coffey,
    gamma_derivative_at_one,
    gamma_half_closed,
    gamma_hasse,
    gamma_limit,
    gamma_value,
    half_shift_check,
    hurwitz_hermite,
    hurwitz_laplace,
    hurwitz_zeta_series,
    i_n_integral,
    integrate_semiaxis,
    inversion_sum,
    log_gamma,
    stieltjes_sum_over_fractions,
    zeta_prime0,
)

import refs

# The three reference constants as printed in the literature.
GAMMA_0 = 0.5772156649015328606
GAMMA_1 = -0.0728158454836767249
GAMMA_2 = -0.0096903631928709175

EULER = refs.CONST["euler_gamma"]
LOG_2 = refs.CONST["log_2"]
LOG_2PI = refs.CONST["log_2pi"]
ZETA_2 = refs.ZETA_INT[2]


def _report(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid} {status}{'  ' + detail if detail else ''}")
    return ok


def test_criterion_01_reference_digits_and_cross_method_spread():
    """gamma, gamma_1, gamma_2 by every applicable route; spread <= 1e-8 for
    n <= 3 at u = 1; <= 10 s per method."""
    printed = {0: GAMMA_0, 1: GAMMA_1, 2: GAMMA_2}
    timings = {}
    worst_spread = 0.0
    for n in range(4):
        values = {}
        for name, call in [
            ("hasse", lambda: gamma_hasse(n, 1.0).value),
            ("coffey", lambda: gamma_coffey(n, 1.0).value),
            ("bell", lambda: gamma_bell_family(n, 1.0).value),
            ("brede", lambda: gamma_brede(n).value),
            ("limit", lambda: gamma_limit(n, 10**6).value),
        ]:
            start = time.perf_counter()
            values[name] = call()
            timings[(name, n)] = time.perf_counter() - start
        spread = max(values.values()) - min(values.values())
        worst_spread = max(worst_spread, spread)
        assert spread <= 1e-8, f"ACCEPTANCE criterion-01 FAIL: spread {spread:.3g} at n={n}"
        if n in printed:
            for name, value in values.items():
                # precision routes must hit near machine accuracy; the
                # partial-sum limit and polynomial-moment routes are held to
                # their intrinsic O(1e-10) accuracy -- all far beyond the
                # printed digits of the reference values.
                tol = 1e-13 if name in ("hasse", "coffey", "bell") else 1e-9
                assert abs(value - printed[n]) <= tol, (
                    f"ACCEPTANCE criterion-01 FAIL: {name} gamma_{n} = {value!r} "
                    f"differs from printed {printed[n]!r} by {abs(value - printed[n]):.3g}"
                )
    slowest = max(timings.values())
    assert slowest <= 10.0, f"ACCEPTANCE criterion-01 FAIL: slowest method took {slowest:.1f}s"
    assert _report(
        "criterion-01", True, f"worst spread {worst_spread:.3g}, slowest {slowest:.2f}s"
    )


def test_criterion_02_lerch_identity():
    """|zeta'(0,u) - log Gamma(u) + (1/2) log 2pi| <= 1e-9 on the u grid;
    zeta'(0) = -(1/2) log 2pi and zeta'(0,1/2) = -(1/2) log 2."""
    worst = max(
        abs(zeta_prime0(u) - log_gamma(u) + 0.5 * LOG_2PI)
        for u in (0.25, 0.5, 1.0, 2.0, 5.0)
    )
    assert worst <= 1e-9, f"ACCEPTANCE criterion-02 FAIL: worst residual {worst:.3g}"
    assert abs(zeta_prime0(1.0) + 0.5 * LOG_2PI) <= 1e-9
    assert abs(zeta_prime0(0.5) + 0.5 * LOG_2) <= 1e-9
    assert _report("criterion-02", True, f"worst residual {worst:.3g}")


def test_criterion_03_quarter_integral():
    """int_0^inf (1-e^{-v})/v^2 [1/(e^v-1) - 1/v + 1/2] dv = 1/4 within 1e-10."""
    from stieltjes import binet_bracket_over_v

    def f(v):
        return (-np.expm1(-v) / v) * binet_bracket_over_v(v)

    r = integrate_semiaxis(f)
    err = abs(r.value - 0.25)
    assert err <= 1e-10, f"ACCEPTANCE criterion-03 FAIL: |value - 1/4| = {err:.3g}"
    assert _report("criterion-03", True, f"|value - 1/4| = {err:.3g}")


def test_criterion_04_inversion_identity():
    """Both sides of the inversion identity within 1e-7 for n = 0..6,
    including the closed forms gamma - 1/2, -gamma^2 - gamma_1 + gamma/2,
    (gamma - 1/2)(gamma^2 + zeta(2)) + 2 gamma gamma_1 + gamma_2."""
    worst = 0.0
    for n in range(7):
        sum_side, integral_side = inversion_sum(n, 1.0)
        gap = abs(sum_side - integral_side)
        worst = max(worst, gap)
        assert gap <= 1e-7, f"ACCEPTANCE criterion-04 FAIL: gap {gap:.3g} at n={n}"
    g1 = gamma_value(1, 1.0)
    g2 = gamma_value(2, 1.0)
    closed = {
        0: EULER - 0.5,
        1: -EULER**2 - g1 + 0.5 * EULER,
        2: (EULER - 0.5) * (EULER**2 + ZETA_2) + 2.0 * EULER * g1 + g2,
    }
    for n, expect in closed.items():
        _, integral_side = inversion_sum(n, 1.0)
        err = abs(integral_side - expect)
        assert err <= 1e-7, f"ACCEPTANCE criterion-04 FAIL: closed form n={n} off by {err:.3g}"
    assert _report("criterion-04", True, f"worst side gap {worst:.3g}")


def test_criterion_05_moment_family_positivity():
    """I_n > 0 with error_estimate < value for n = 0..12, as stated.

    This criterion is asserted verbatim and fails for n in {5, 7, 9, 11}:
    the inequality is mathematically false there (see the module docstring).
    The assertion is kept as stated rather than weakened.
    """
    violations = []
    for n in range(13):
        r = i_n_integral(n)
        positive = r.value > 0.0
        tight = r.error_estimate < r.value
        print(
            f"  I_{n:<2d} = {r.value: .15g}  est {r.error_estimate:.3g}  "
            f"{'ok' if positive and tight else 'VIOLATION'}"
        )
        if not (positive and tight):
            violations.append((n, r.value))
    ok = not violations
    _report("criterion-05", ok, f"violations at n = {[n for n, _ in violations]}")
    assert ok, (
        "ACCEPTANCE criterion-05 FAIL: I_n > 0 does not hold at "
        f"n = {[n for n, _ in violations]} "
        f"(values {[f'{v:.6g}' for _, v in violations]}). "
        "The positivity claim is false for odd n >= 5: on (0, 1) the factor "
        "log^n v is negative and its moment against e^{-v} B(v) grows "
        "factorially, overtaking the positive v > 1 contribution from n = 5 "
        "onward.  Confirmed at 50-digit precision and by the binomial "
        "identity over gamma_k and Gamma^{(n-k)}(1); the implementation is "
        "correct and the criterion itself is unattainable."
    )


def test_criterion_06_exact_bell_suite():
    """Negation convolution, addition formula, homogeneity, shift, and
    recurrence-vs-expansion hold exactly for n <= 10; all-ones evaluation
    gives the Bell numbers 1, 1, 2, 5, 15, 52, 203."""
    xs_of = lambda n: [Fraction(2, j + 1) for j in range(n)]
    for n in range(1, 11):
        xs = xs_of(n)
        neg = [-x for x in xs]
        conv = sum(
            math.comb(n, j) * eval_bell(j, xs) * eval_bell(n - j, neg)
            for j in range(n + 1)
        )
        assert conv == 0, f"ACCEPTANCE criterion-06 FAIL: negation convolution n={n}"
        ys = [Fraction(j + 1, 2 * j + 3) for j in range(n)]
        addition = sum(
            math.comb(n, k) * eval_bell(n - k, xs) * eval_bell(k, ys)
            for k in range(n + 1)
        )
        assert eval_bell(n, [a + b for a, b in zip(xs, ys)]) == addition
        a = Fraction(-3, 2)
        scaled = [a ** (j + 1) * xs[j] for j in range(n)]
        assert eval_bell(n, scaled) == a**n * eval_bell(n, xs)
        shift = Fraction(5, 3)
        shifted = [xs[0] + shift] + xs[1:]
        assert eval_bell(n, shifted) == sum(
            math.comb(n, k) * shift**k * eval_bell(n - k, xs) for k in range(n + 1)
        )
        assert eval_bell(n, xs) == complete_bell(n).evaluate(xs)
    assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert _report("criterion-06", True, "all identities exact through n = 10")


def test_criterion_07_gamma_derivative_bridge():
    """Gamma^{(m)}(1) from Bell polynomials matches the quadrature of
    int_0^inf e^{-v} log^m v dv within 1e-8 for m <= 6."""
    worst = 0.0
    for m in range(7):

        def f(v, m=m):
            vc = np.minimum(v, 700.0)
            return np.where(v > 700.0, 0.0, np.exp(-vc) * np.log(vc) ** m)

        quad_value = integrate_semiaxis(f).value
        err = abs(gamma_derivative_at_one(m) - quad_value)
        worst = max(worst, err)
        assert err <= 1e-8, f"ACCEPTANCE criterion-07 FAIL: m={m} off by {err:.3g}"
    assert _report("criterion-07", True, f"worst bridge error {worst:.3g}")


def test_criterion_08_euler_constant_and_gamma1_from_damped_sums():
    """gamma from the damped binomial sums to >= 8 significant digits with
    i <= 60 outer terms; gamma_1 the same way within 1e-7 of the series
    route."""
    gamma_est = euler_constant_59(i_max=60)
    rel = abs(gamma_est - EULER) / EULER
    assert rel <= 0.5e-8, f"ACCEPTANCE criterion-08 FAIL: only {rel:.3g} relative"
    g1_est = gamma1_via_alt()
    err = abs(g1_est - gamma_hasse(1, 1.0).value)
    assert err <= 1e-7, f"ACCEPTANCE criterion-08 FAIL: gamma_1 off by {err:.3g}"
    assert _report("criterion-08", True, f"gamma rel {rel:.3g}, gamma_1 err {err:.3g}")


def test_criterion_09_hurwitz_evaluator_consistency():
    """|hermite - laplace| <= 1e-8 on s in {-0.5, 0.5, 2, 3} x u in
    {1/2, 1, 2}; both match the direct series for s in {2, 3}."""
    worst = 0.0
    for s in (-0.5, 0.5, 2.0, 3.0):
        for u in (0.5, 1.0, 2.0):
            h = hurwitz_hermite(s, u)
            l = hurwitz_laplace(s, u)
            worst = max(worst, abs(h - l))
            assert abs(h - l) <= 1e-8, (
                f"ACCEPTANCE criterion-09 FAIL: routes differ by {abs(h - l):.3g} "
                f"at s={s}, u={u}"
            )
            if s in (2.0, 3.0):
                series = hurwitz_zeta_series(s, u)
                assert abs(h - series) <= 1e-8
                assert abs(l - series) <= 1e-8
    assert _report("criterion-09", True, f"worst route gap {worst:.3g}")


def test_criterion_10_appell_polynomial_suite():
    """p_0..p_2 coefficients to 1e-12; p_n' = n p_{n-1} for n <= 10;
    int_0^inf p_n(x - log z) e^{-z} dz = x^n within 1e-8 for n <= 5,
    x in {0, 1, 2}."""
    assert brede_poly(0).coefficients == (1.0,)
    p1 = brede_poly(1).coefficients
    assert abs(p1[0] + EULER) <= 1e-12 and abs(p1[1] - 1.0) <= 1e-12
    p2 = brede_poly(2).coefficients
    for got, expect in zip(p2, (EULER**2 - ZETA_2, -2.0 * EULER, 1.0)):
        assert abs(got - expect) <= 1e-12, "ACCEPTANCE criterion-10 FAIL: p_2 coefficients"
    for n in range(1, 11):
        deriv = brede_poly(n).derivative().coefficients
        scaled = tuple(n * c for c in brede_poly(n - 1).coefficients)
        for d, s in zip(deriv, scaled):
            assert abs(d - s) <= 1e-9 * max(1.0, abs(s)), (
                f"ACCEPTANCE criterion-10 FAIL: Appell property at n={n}"
            )
    worst = 0.0
    for n in range(6):
        poly = brede_poly(n)
        for x in (0.0, 1.0, 2.0):

            def f(z, poly=poly, x=x):
                zc = np.minimum(z, 700.0)
                return np.where(z > 700.0, 0.0, poly(x - np.log(zc)) * np.exp(-zc))

            moment = integrate_semiaxis(f).value
            err = abs(moment - x**n)
            worst = max(worst, err)
            assert err <= 1e-8, (
                f"ACCEPTANCE criterion-10 FAIL: unit moment n={n}, x={x} off by {err:.3g}"
            )
    assert _report("criterion-10", True, f"worst unit-moment error {worst:.3g}")


def test_criterion_11_closed_form_web():
    """gamma_p(1/2) closed forms within 1e-7 for p <= 4; rational-argument
    sums agree both ways for (p, q) in {0..2} x {2, 3, 4}; half-shift
    residuals within 1e-7 for k <= 5."""
    worst_half = max(
        abs(gamma_half_closed(p) - gamma_value(p, 0.5)) for p in range(5)
    )
    assert worst_half <= 1e-7, f"ACCEPTANCE criterion-11 FAIL: gamma_p(1/2) {worst_half:.3g}"
    worst_frac = 0.0
    for p in range(3):
        for q in (2, 3, 4):
            closed, direct = stieltjes_sum_over_fractions(p, q)
            worst_frac = max(worst_frac, abs(closed - direct))
            assert abs(closed - direct) <= 1e-7, (
                f"ACCEPTANCE criterion-11 FAIL: fraction sums (p={p}, q={q})"
            )
    worst_shift = max(half_shift_check(k) for k in range(6))
    assert worst_shift <= 1e-7, f"ACCEPTANCE criterion-11 FAIL: half-shift {worst_shift:.3g}"
    assert _report(
        "criterion-11",
        True,
        f"worst: half {worst_half:.3g}, fractions {worst_frac:.3g}, shift {worst_shift:.3g}",
    )


def test_criterion_12_maclaurin_constants():
    """delta_0 = 1/2 exactly at every m; delta_1 limit at m = 10^6 within
    1e-5 of (1/2) log 2pi - 1."""
    for m in (10, 100, 10**4, 10**6):
        limit_form, closed_form = delta_n(0, m)
        assert limit_form == 0.5, f"ACCEPTANCE criterion-12 FAIL: delta_0 at m={m}"
        assert closed_form == 0.5
    limit_form, _ = delta_n(1, 10**6)
    err = abs(limit_form - (0.5 * LOG_2PI - 1.0))
    assert err <= 1e-5, f"ACCEPTANCE criterion-12 FAIL: delta_1 off by {err:.3g}"
    assert _report("criterion-12", True, f"delta_1 limit error {err:.3g}")
