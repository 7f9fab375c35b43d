"""Tests for the double-exponential quadrature engine and the Binet kernel.

The engine is exercised on integrals with known closed forms, on endpoint
singularities of the admissible (logarithmic) kind, and on its failure
contracts: non-finite samples must raise ``IntegrandError`` with the
offending abscissa, and exhausting ``max_level`` must clear ``converged``.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from stieltjes import (
    IntegrandError,
    QuadConfig,
    atan_laplace_check,
    binet_bracket,
    binet_bracket_over_v,
    integrate_finite,
    integrate_semiaxis,
    legendre_relation_check,
)
from stieltjes import quad
from stieltjes.quad import _abel_plana

import refs


# ---------------------------------------------------------------------------
# closed-form integrals, finite interval


def test_unit_interval():
    r = integrate_finite(lambda v: np.full_like(v, 1.0), 0.0, 1.0)
    assert r.converged
    assert abs(r.value - 1.0) < 1e-14


def test_cubic():
    r = integrate_finite(lambda v: 3.0 * v**3 - 2.0 * v + 1.0, 0.0, 1.0)
    assert abs(r.value - 0.75) < 1e-14


def test_shifted_interval():
    """int_2^5 dv/v = log(5/2) on an interval away from the origin."""
    r = integrate_finite(lambda v: 1.0 / v, 2.0, 5.0)
    assert abs(r.value - math.log(2.5)) < 1e-13


@pytest.mark.parametrize("n", range(9))
def test_log_moments(n):
    """int_0^1 v log^n v dv = (-1)^n n!/2^{n+1}, a log-singular endpoint."""
    r = integrate_finite(lambda v: v * np.log(v) ** n, 0.0, 1.0)
    exact = (-1.0) ** n * math.factorial(n) / 2.0 ** (n + 1)
    assert r.converged
    assert abs(r.value - exact) < 1e-13 * max(1.0, math.factorial(n))


def test_euler_constant_integral():
    """int_0^1 [1/log t + 1/(1-t)] dt = gamma (removable singularities
    at both endpoints)."""
    r = integrate_finite(lambda t: 1.0 / np.log(t) + 1.0 / (1.0 - t), 0.0, 1.0)
    assert abs(r.value - refs.CONST["euler_gamma"]) < 1e-12


def test_loglog_integral():
    """int_0^1 log(-log t) [1/log t + 1/(1-t)] dt = -gamma_1 - gamma^2.

    log(-log t) must be evaluated in exactly that form: log(log(1/t))
    collapses to log(0) one ulp below t = 1.
    """
    r = integrate_finite(
        lambda t: np.log(-np.log(t)) * (1.0 / np.log(t) + 1.0 / (1.0 - t)),
        0.0,
        1.0,
    )
    exact = -refs.GAMMA_AT_1[1] - refs.CONST["euler_gamma"] ** 2
    assert abs(r.value - exact) < 1e-11


# ---------------------------------------------------------------------------
# closed-form integrals, semi-axis


@pytest.mark.parametrize("k", range(7))
def test_gamma_function_moments(k):
    """int_0^inf v^k e^{-v} dv = k!."""

    def f(v):
        vc = np.minimum(v, 700.0)
        return np.where(v > 700.0, 0.0, vc**k * np.exp(-vc))

    r = integrate_semiaxis(f)
    assert r.converged
    assert abs(r.value - math.factorial(k)) < 1e-12 * math.factorial(k)


def test_log_weighted_moments():
    """int e^{-v} log v = -gamma and int e^{-v} log^2 v = gamma^2 + zeta(2)."""

    def damped(extra):
        def f(v):
            vc = np.minimum(v, 700.0)
            return np.where(v > 700.0, 0.0, np.exp(-vc) * extra(vc))

        return f

    g = refs.CONST["euler_gamma"]
    r1 = integrate_semiaxis(damped(np.log))
    assert abs(r1.value + g) < 1e-13
    r2 = integrate_semiaxis(damped(lambda v: np.log(v) ** 2))
    assert abs(r2.value - (g * g + refs.ZETA_INT[2])) < 1e-12


def test_integrands_must_be_vectorized():
    """f is called once on the whole node array: a scalar-only integrand's
    own exception passes through, and a result of the wrong shape raises
    IntegrandError naming that shape."""
    with pytest.raises(ValueError) as excinfo:
        integrate_semiaxis(lambda v: math.exp(-min(v, 700.0)))
    assert not isinstance(excinfo.value, IntegrandError)
    with pytest.raises(IntegrandError, match=r"shape \(\)"):
        integrate_semiaxis(lambda v: 1.0)


# ---------------------------------------------------------------------------
# failure contracts


def test_integrand_error_carries_abscissa():
    def f(v):
        return np.where(v > 0.5, np.nan, 1.0)

    with pytest.raises(IntegrandError) as excinfo:
        integrate_finite(f, 0.0, 1.0)
    assert excinfo.value.abscissa > 0.5


def test_integrand_error_is_value_error():
    assert issubclass(IntegrandError, ValueError)


def test_nonconvergence_is_flagged_not_raised():
    cfg = QuadConfig(target_tol=1e-15, max_level=2)
    r = integrate_finite(lambda v: np.sin(40.0 * v), 0.0, 1.0, cfg)
    assert not r.converged
    assert np.isfinite(r.value)


def test_overflowing_sum_is_never_converged():
    """A level sum that overflows binary64 is inf: the row stays unconverged,
    and no numpy overflow warning escapes (warnings are errors here).  The
    integral, 1e309, overflows too."""
    r = integrate_finite(lambda v: np.full_like(v, 1e308), 0.0, 10.0)
    assert not r.converged
    assert math.isinf(r.value)


def test_wide_interval_sum_is_scaled_before_it_overflows():
    """On (-1e308, 0) the sum of f w would overflow without the step 2^-L,
    which the weights carry: the integral of 1 is 1e308, converged, and
    (-1e307, 0) keeps its bits."""

    def one(v):
        return np.full_like(v, 1.0)

    wide = integrate_finite(one, -1e308, 0.0)
    assert wide.converged and wide.value == 1e308
    narrow = integrate_finite(one, -1e307, 0.0)
    assert (narrow.value, narrow.evaluations, narrow.level) == (1e307, 74, 3)


def _counted(f, seen):
    """f, recording the nodes of each call in ``seen``."""

    def counted(v):
        seen.append(v)
        return f(v)

    return counted


def test_each_level_samples_the_integrand_once():
    """The engine samples each level once, with the step in its weights, and
    the nodes it samples sum to ``evaluations``: on (-1e308, 0), and for
    e^(-u v) log^8(v) B(v) at u = 1e-283, an integral near 1.6e305.  In
    both, sums of f w without the step 2^-L would overflow."""
    seen = []
    wide = integrate_finite(_counted(lambda v: np.full_like(v, 1.0), seen), -1e308, 0.0)
    assert len(seen) == wide.level + 1
    assert sum(map(len, seen)) == wide.evaluations

    u = 1e-283
    seen = []
    moment = integrate_semiaxis(
        _counted(lambda v: np.exp(-u * v) * np.log(v) ** 8 * binet_bracket(v), seen)
    )
    assert math.isfinite(moment.value)
    assert len(seen) == moment.level + 1
    for level, v in enumerate(seen):
        assert np.array_equal(v, quad._es_xw(level)[0])
    assert sum(map(len, seen)) == moment.evaluations


def test_level_budget_controls_accuracy():
    exact = math.e - 1.0
    shallow = integrate_finite(
        lambda v: np.exp(v), 0.0, 1.0, QuadConfig(target_tol=1e-15, max_level=2)
    )
    deep = integrate_finite(lambda v: np.exp(v), 0.0, 1.0)
    assert abs(deep.value - exact) < 1e-13
    assert abs(shallow.value - exact) > abs(deep.value - exact)


def test_evaluation_counts_accumulate():
    r = integrate_finite(lambda v: np.exp(v), 0.0, 1.0)
    assert r.evaluations > 100  # several levels' worth of nodes


def test_interval_validation():
    for a, b in [
        (1.0, 1.0),
        (2.0, 1.0),
        (0.0, math.inf),
        (math.nan, 1.0),
        (-1e308, 1e308),  # b - a overflows
        (5e-324, 1e-323),  # no binary64 value lies strictly between
    ]:
        with pytest.raises(ValueError):
            integrate_finite(lambda v: v, a, b)


def _tanh_sinh_closed_form(f, a, b, level):
    """h sum f(x) w and the node count of tanh-sinh with lambda = pi/2 on
    the full lattice t = k h, h = 2^-level, |t| <= asinh(345.4/lambda),
    where the weight reaches 1e-300.  x = a + (b-a)(1 + tanh z)/2 and
    w = (b-a) lambda cosh t/(2 cosh^2 z), z = lambda sinh t, are evaluated
    at 330 digits, so 1 + tanh z keeps its digits down to 1e-300, and
    rounded once; nodes that round onto an endpoint are dropped."""
    h = 2.0**-level
    k_max = math.floor(math.asinh(345.4 / (math.pi / 2)) / h)
    x, w = [], []
    with mp.workdps(330):
        lam = mp.pi / 2
        a_, b_ = mp.mpf(a), mp.mpf(b)
        for k in range(-k_max, k_max + 1):
            t = mp.mpf(k * h)
            z = lam * mp.sinh(t)
            xk = float(a_ + (b_ - a_) * (1 + mp.tanh(z)) / 2)
            if a < xk < b:
                x.append(xk)
                w.append(float((b_ - a_) * lam * mp.cosh(t) / (2 * mp.cosh(z) ** 2)))
    x = np.array(x)
    return h * math.fsum(f(x) * np.array(w)), len(x)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (2.0, 5.0), (-3.0, 7.0), (1e-8, 1.0), (-2.0, -1.0)])
@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_finite_rule_is_tanh_sinh(a, b, level):
    """integrate_finite at max_level = L is the tanh-sinh sum of step 2^-L:
    the same value to a few ulp and one evaluation per node.  The kink
    keeps every level from converging, so all levels 0..L run."""
    c = a + 0.3 * (b - a)

    def f(v):
        return 1.0 + np.abs(v - c)

    r = integrate_finite(f, a, b, QuadConfig(target_tol=1e-15, max_level=level))
    value, count = _tanh_sinh_closed_form(f, a, b, level)
    assert not r.converged
    assert r.evaluations == count
    assert abs(r.value - value) <= 4 * math.ulp(value)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(target_tol=1e-16)
    with pytest.raises(ValueError):
        QuadConfig(max_level=1)
    with pytest.raises(ValueError):
        QuadConfig(max_level=21)


# ---------------------------------------------------------------------------
# stacked integrands


@pytest.mark.parametrize(
    "rows, integrate, row_converged, stop_levels",
    [
        (
            [lambda v, p=p: np.exp(-v) * np.log(v) ** p for p in range(6)],
            integrate_semiaxis,
            [True] * 6,
            1,
        ),
        (
            [lambda v: v, np.exp],
            lambda f: integrate_finite(
                f, 0.0, 1.0, QuadConfig(target_tol=1e-15, max_level=3)
            ),
            [False, False],
            1,
        ),
        (
            [lambda v: 1.0 / np.sqrt(v), np.exp, lambda v: np.sin(40.0 * v)],
            lambda f: integrate_finite(f, 0.0, 1.0),
            [True] * 3,
            3,
        ),
        (
            [
                lambda x: x * np.log(1.0 + x * x) / (1.0 + x * x),
                lambda x: np.arctan2(x, 1.0) / (1.0 + x * x),
            ],
            lambda g: _abel_plana(g, None),
            [True] * 2,
            1,
        ),
    ],
    ids=["semiaxis_log_moments", "finite_starved", "finite_staggered", "abel_plana_hermite1"],
)
def test_stacked_rows_match_scalar_calls(rows, integrate, row_converged, stop_levels):
    """A (k, len(x)) integrand is one pass whose k results equal k separate
    calls bit for bit: value, estimate, evaluations, convergence and level.
    ``stop_levels`` counts the distinct levels at which the scalar calls
    stop, so rows of one pass report different levels and costs."""
    stacked = integrate(lambda v: np.array([f(v) for f in rows]))
    scalar = tuple(integrate(f) for f in rows)
    assert [r.converged for r in scalar] == row_converged
    assert len({r.evaluations for r in scalar}) == stop_levels
    assert len({r.level for r in scalar}) == stop_levels
    assert stacked == scalar


@pytest.mark.parametrize(
    "integrate",
    [
        lambda cfg: integrate_semiaxis(lambda v: np.exp(-v) * np.log(v) ** 3, cfg),
        lambda cfg: integrate_finite(np.exp, 0.0, 1.0, cfg),
        lambda cfg: integrate_finite(lambda v: np.where(v > 0.3, 1.0, 0.0), 0.0, 1.0, cfg),
    ],
    ids=["semiaxis", "finite", "finite_jump"],
)
def test_level_is_the_level_reported(integrate):
    """``level`` is the level whose value is reported (``max_level`` if the
    test was never met): a run capped at that level gives the same result,
    evaluations included, and a run capped one level lower does not."""
    r = integrate(QuadConfig())
    capped = integrate(QuadConfig(max_level=r.level))
    assert capped == r
    if r.converged:
        assert r.level < QuadConfig().max_level
        assert integrate(QuadConfig(max_level=r.level - 1)).evaluations < r.evaluations
    else:
        assert r.level == QuadConfig().max_level


# ---------------------------------------------------------------------------
# regularized Binet kernel


@pytest.mark.parametrize("v", [1e-12, 1e-6, 0.01, 0.2, 0.49, 0.51, 1.0, 5.0, 30.0])
def test_bracket_oddness(v):
    """B(v) + B(-v) = 0: the kernel is odd, on both sides of the series
    switch at |v| = 1/2."""
    assert abs(binet_bracket(v) + binet_bracket(-v)) < 1e-15


def test_bracket_series_matches_raw_form():
    """Inside the series window the series must agree with the raw form
    evaluated where cancellation is still mild."""
    for v in (0.3, 0.4, 0.49):
        raw = 1.0 / math.expm1(v) - 1.0 / v + 0.5
        assert abs(binet_bracket(v) - raw) < 5e-15


def test_bracket_switch_continuity():
    below = binet_bracket(0.5 - 1e-12)
    above = binet_bracket(0.5 + 1e-12)
    assert abs(below - above) < 1e-12


def test_bracket_origin_limits():
    """B(v) ~ v/12 and B(v)/v -> 1/12 at the origin."""
    assert binet_bracket(0.0) == 0.0
    assert abs(binet_bracket_over_v(0.0) - 1.0 / 12.0) < 1e-16
    assert abs(binet_bracket_over_v(1e-200) - 1.0 / 12.0) < 1e-16
    assert abs(binet_bracket(1e-8) - 1e-8 / 12.0) < 1e-24


def test_bracket_large_argument():
    """For large v, B(v) -> 1/2 - 1/v + O(e^{-v})."""
    v = 40.0
    assert abs(binet_bracket(v) - (0.5 - 1.0 / v)) < 1e-15


def test_bracket_vectorized():
    v = np.array([-1.0, -0.25, 0.0, 0.25, 1.0])
    out = binet_bracket(v)
    assert out.shape == v.shape
    assert np.allclose(out, [binet_bracket(float(x)) for x in v], atol=1e-16, rtol=0.0)


# ---------------------------------------------------------------------------
# oscillatory identity residuals


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_legendre_relation(t):
    assert legendre_relation_check(t).value < 1e-12


@pytest.mark.parametrize("u,x", [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)])
def test_atan_laplace(u, x):
    assert atan_laplace_check(u, x).value < 1e-12


@pytest.mark.parametrize("x", [1e19, 1e100])
def test_atan_laplace_at_large_x_is_finite(x):
    """sin(x y) overflows at the last exp-sinh nodes, where e^(-u y) is
    already 0; those nodes are masked, so the residual is finite (the
    oscillation is too fast for the nodes, so it is not small)."""
    assert math.isfinite(atan_laplace_check(1.0, x).value)


@pytest.mark.parametrize("u,x", [(1e-200, 1e-200), (1e200, 1e200), (1e300, 3e299)])
def test_atan_laplace_at_extreme_u(u, x):
    """In w = u y the mass sits at w ~ 1 whatever u, so extreme u and x with
    a moderate x/u integrate as u = 1 does."""
    assert atan_laplace_check(u, x).value < 1e-13


def test_legendre_relation_at_its_smallest_t():
    """At t = 2^-1021, the least t accepted, the residual is still ~t/6."""
    t = 2.0**-1021
    assert legendre_relation_check(t).value < t


def test_legendre_relation_reports_its_integral():
    """The residual comes in its integral's QuadResult: at t = 1e4 the
    default 12 levels do not converge, and 16 do."""
    shallow = legendre_relation_check(1e4)
    assert not shallow.converged and shallow.evaluations > 0
    deep = legendre_relation_check(1e4, QuadConfig(max_level=16))
    assert deep.converged and deep.value < 1e-13


def test_residual_domain_checks():
    with pytest.raises(ValueError):
        legendre_relation_check(0.0)
    with pytest.raises(ValueError):
        legendre_relation_check(math.nextafter(2.0**-1021, 0.0))
    with pytest.raises(ValueError):
        atan_laplace_check(-1.0, 1.0)
