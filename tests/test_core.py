"""Tests for the generalized-Stieltjes-constant representations.

Each computational route (binomial series with integral tail, oscillatory
Laplace integral, kernel-moment family, Appell-polynomial moments, partial-sum
limit) is checked independently against 50-digit reference
values in :mod:`refs`, then against each other; the zeta-derivative and
Barnes-function evaluators and the inversion/moment identities follow.
"""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from stieltjes import (
    ENVELOPES,
    FLAG_NO_CONVERGENCE,
    IntegrandError,
    Method,
    MethodResult,
    QuadConfig,
    RealPolynomial,
    barnes_g_log,
    brede_poly,
    delta_n,
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
    run_suite,
    zeta_prime0,
    zeta_second0,
)
from stieltjes import core, quad
from stieltjes.core import (
    _hasse_head,
    _hasse_tail_kernel,
    _hasse_weights,
    _moment_convolution,
    _require_route,
)
from stieltjes.quad import _abel_plana, binet_bracket, binet_bracket_over_v
from stieltjes.specfun import BERN_OVER_FACT

import refs


def _scaled(ref, rel):
    return rel * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# request validation and result plumbing


def test_request_validation():
    for n, u in [(-1, 1.0), (1.5, 1.0), (0, 0.0), (0, -2.0), (0, math.inf), (0, math.nan)]:
        with pytest.raises(ValueError):
            _require_route(Method.COFFEY, n, u)


def test_envelopes_bound_each_route():
    """Each route's request admits its largest n (at its one u, if any) and
    rejects the next n and any other u."""
    for method, envelope in ENVELOPES.items():
        u = envelope.u or 2.0
        top = envelope.max_n
        assert _require_route(method, top, u) == (top, u)
        with pytest.raises(ValueError, match=f"n <= {top}"):
            _require_route(method, top + 1, u)
        if envelope.u is not None:
            with pytest.raises(ValueError, match="at u = 1"):
                _require_route(method, 0, 2.0)


@pytest.mark.parametrize("u", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n", [13, 20, 40])
def test_coffey_beyond_table_matches_mpmath(n, u):
    """Coffey needs no c_k table: past it it still matches mp.stieltjes at
    30 digits, and warns of nothing.  Its estimate is not asserted; it
    under-reports at several of these points."""
    with mp.workdps(30):
        ref = float(mp.stieltjes(n, u))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = gamma_coffey(n, u)
    assert not r.flags
    assert abs(r.value - ref) < _scaled(ref, 1e-12)


@pytest.mark.parametrize("u", [0.1, 1.0, 10.0])
def test_coffey_answers_at_its_cap(u):
    """n = 99, the top of Coffey's envelope, still matches mp.stieltjes."""
    with mp.workdps(30):
        ref = float(mp.stieltjes(99, u))
    r = gamma_coffey(99, u)
    assert not r.flags
    assert abs(r.value - ref) < 1e-12 * abs(ref)


def test_coffey_past_its_cap_is_rejected_when_checked():
    """At n = 100 numpy's complex power changes algorithm and the integrand
    fails in the engine for u <= 0.1: the request check refuses n = 100 at
    every u, with a ValueError, before any quadrature."""
    for u in (1e-6, 0.1, 1.0, 10.0):
        with pytest.raises(ValueError, match="n <= 99") as excinfo:
            gamma_coffey(100, u)
        assert excinfo.type is ValueError


@pytest.mark.parametrize("n", [13, 40, 70, 95, 99])
def test_coffey_never_fails_in_the_engine_below_its_cap(n):
    """Over u in logspace(-300, 3, 68) every n <= 99 either answers,
    converged and unflagged, or is refused by the request check because
    log^n(u)/u overflows binary64; none raises IntegrandError."""
    answered = 0
    for u in np.logspace(-300, 3, 68):
        try:
            r = gamma_coffey(n, float(u))
        except ValueError as exc:
            assert type(exc) is ValueError and "overflows binary64" in str(exc)
            continue
        assert r.converged and not r.flags, (n, u)
        answered += 1
    assert answered >= 19


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
    assert set(Method) == set(ENVELOPES)


# ---------------------------------------------------------------------------
# route 1: binomial series with integral tail


@pytest.mark.parametrize("n,u", sorted(refs.GAMMA))
def test_hasse_full_grid(n, u):
    ref = refs.GAMMA[(n, u)]
    r = gamma_hasse(n, u)
    assert r.converged
    assert r.method is Method.HASSE
    assert abs(r.value - ref) < _scaled(ref, 5e-12)


def test_hasse_estimate_covers_the_reference_error():
    """At every refs.GAMMA point the Hasse error is within its estimate plus
    one rounding of the reference to binary64 (1.2e-16 |ref|)."""
    for (n, u), ref in sorted(refs.GAMMA.items()):
        r = gamma_hasse(n, u)
        assert abs(r.value - ref) <= r.error_estimate + 1.2e-16 * abs(ref), (n, u)


@pytest.mark.parametrize("n,u", [(2, 0.75), (12, 0.1), (12, 0.75), (12, 10.0)])
def test_hasse_series_depth_independence(n, u, monkeypatch):
    """The head-plus-tail split is exact: the result must not move with the
    truncation depth beyond roundoff."""
    monkeypatch.setattr(core, "_J_MAX", 90)
    a = gamma_hasse(n, u).value
    monkeypatch.setattr(core, "_J_MAX", 150)
    b = gamma_hasse(n, u).value
    assert abs(a - b) < _scaled(a, 1e-12)


def _hasse_head_mpf(n, u, j_max):
    """Reference head: the forward differences and the 1/(j+1) sum in mpf
    arithmetic at the working precision, rounded to binary64 at the end."""
    with mp.workdps(int(0.302 * j_max) + 25):
        um = mp.mpf(u)
        table = [mp.log(um + k) ** (n + 1) for k in range(j_max + 1)]
        head = mp.mpf(0)
        for j in range(j_max + 1):
            head += table[0] / (j + 1)
            for k in range(j_max - j):
                table[k] = -(table[k + 1] - table[k])
        return float(head)


@pytest.mark.parametrize("j_max", [0, 1, 20, 120, 150])
def test_hasse_head_matches_mpf_differences(j_max):
    """The fixed-point head is bit-identical to the all-mpf difference loop."""
    for n in range(13):
        for u in (1e-3, 0.1, 0.37, 1.0, 3.3, 10.0, 100.0):
            assert _hasse_head(n, u, j_max) == _hasse_head_mpf(n, u, j_max), (n, u)


@pytest.mark.parametrize("j_max", [0, 1, 2, 20, 120])
def test_hasse_weights_match_the_difference_loop(j_max):
    """Each weight W_k is the O(J^2) integer difference loop, sum over j of
    L/(j+1) times the j-th forward difference at 0, run on the k-th unit
    vector."""
    lcm, weights = _hasse_weights(j_max)
    assert lcm == math.lcm(*range(1, j_max + 2)) and len(weights) == j_max + 1
    for k, weight in enumerate(weights):
        table = [int(i == k) for i in range(j_max + 1)]
        total = 0
        for j in range(j_max + 1):
            total += table[0] * (lcm // (j + 1))
            for i in range(j_max - j):
                table[i] -= table[i + 1]
        assert weight == total, k


def test_gamma_value_is_cached_float():
    x = gamma_value(3, 1.5)
    assert isinstance(x, float)
    assert x == gamma_value(3, 1.5)
    assert abs(x - refs.GAMMA[(3, 1.5)]) < _scaled(refs.GAMMA[(3, 1.5)], 5e-12)


# ---------------------------------------------------------------------------
# route 2: oscillatory Laplace integral


@pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("n", range(6))
def test_coffey_grid(n, u):
    ref = refs.GAMMA[(n, u)]
    r = gamma_coffey(n, u)
    assert r.converged
    assert abs(r.value - ref) < _scaled(ref, 1e-13)


@pytest.mark.parametrize("u", [1e-15, 1e-20])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_coffey_at_tiny_u(n, u):
    """The 1/z form needs no u^2 + x^2, which underflows at tiny u and x;
    the shift identity gamma_n(u) = log^n(u)/u + gamma_n(1 + u) is the
    reference."""
    ref = math.log(u) ** n / u + gamma_value(n, 1.0 + u)
    value = gamma_coffey(n, u).value
    assert math.isfinite(value)
    assert abs(value - ref) < 1e-13 * abs(ref)


@pytest.mark.parametrize(
    "n,u", [(0, 1e-200), (1, 1e-200), (3, 1e-200), (40, 1e-120), (0, 1e-300), (2, 1e-300)]
)
def test_coffey_below_the_direct_range(n, u):
    """Where the integrand nears overflow (below u = 1e-150 at n = 0, at
    larger u for larger n) the route answers by the shift identity; u + 1
    rounds to 1 there, so that identity is the reference to binary64."""
    r = gamma_coffey(n, u)
    ref = math.log(u) ** n / u + gamma_coffey(n, 1.0).value
    assert r.converged and r.method is Method.COFFEY
    assert abs(r.value - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("route", [gamma_hasse, gamma_coffey, gamma_bell_family])
@pytest.mark.parametrize("n,u", [(0, 1e-300), (1, 1e-300), (2, 1e-300), (12, 1e-200)])
def test_u_routes_share_the_small_u_shift(route, n, u):
    """Below the direct range every u-route answers by the shift identity,
    unflagged; u + 1 rounds to 1 there, so log^n(u)/u + gamma_n(1) is the
    reference to binary64."""
    r = route(n, u)
    ref = math.log(u) ** n / u + refs.GAMMA_AT_1[n]
    assert not r.flags
    assert abs(r.value - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("route", [gamma_hasse, gamma_coffey, gamma_bell_family])
def test_small_u_shift_estimate_covers_the_rounded_log(route):
    """Where the shift fires, log u rounded to binary64 and raised to the
    n-th power puts ~n ulps of error on log^n(u)/u, which the estimate must
    count.  The reference is log^n(u)/u at 40 digits plus gamma_n(1): at
    u = 1e-140, gamma_n(1 + u) - gamma_n(1) is far below one ulp."""
    n, u = 12, 1e-140
    r = route(n, u)
    with mp.workdps(40):
        ref = mp.log(mp.mpf(u)) ** n / mp.mpf(u) + refs.GAMMA_AT_1[n]
        err = float(abs(mp.mpf(r.value) - ref))
    assert not r.flags
    assert err <= r.error_estimate


@pytest.mark.parametrize(
    "route,n,u",
    [(gamma_coffey, 3, 1e-300), (gamma_coffey, 41, 1e-200), (gamma_hasse, 3, 1e-300),
     (gamma_bell_family, 12, 1e-300)],
)
def test_overflowing_answer_is_rejected_when_checked(route, n, u):
    """log^n(u)/u overflows binary64: a ValueError from the request check,
    not an IntegrandError from the engine."""
    with pytest.raises(ValueError, match="overflows binary64") as excinfo:
        route(n, u)
    assert excinfo.type is ValueError


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
    """At u = 1 and n >= 1 the Bell family's prefactor is 0 and the kernel
    B - 1/2 gives gamma_n as well."""
    ref = refs.GAMMA_AT_1[n]
    value = _moment_convolution(lambda v: binet_bracket(v) - 0.5, n, 1.0, None)[0].value
    assert abs(value - ref) < _scaled(ref, 1e-12)


@pytest.mark.parametrize("max_level", [4, 12])
def test_moment_convolution_reports_its_deepest_moment(max_level):
    """The convolved tail has the evaluations and level of its deepest
    moment and is converged only if every moment is.  At u = 3 the moments
    0..6 stop at levels 4 and 5; capped at level 4, M_0..M_3 converge and
    M_4..M_6 do not."""
    cfg = QuadConfig(max_level=max_level)
    moments = quad._log_moments(binet_bracket, 3.0, range(7), cfg)
    tail = _moment_convolution(binet_bracket, 6, 3.0, cfg)[0]
    assert len({(r.level, r.converged) for r in moments}) == 2
    assert tail.evaluations == max(r.evaluations for r in moments)
    assert tail.level == max(r.level for r in moments)
    assert tail.converged == all(r.converged for r in moments) == (max_level == 12)


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


def test_polyval_forms_equal_their_horner_loops():
    """RealPolynomial, the Binet series and the Hasse tail kernel's
    L_{J+1}(phi) go through np.polyval; on the exp-sinh nodes of levels
    0..12 each is bit-identical to the written-out Horner loop."""
    x = np.concatenate([quad._es_nodes(level)[0] for level in range(13)])

    def horner(coefficients, z):  # highest degree first
        acc = np.full_like(z, coefficients[0])
        for c in coefficients[1:]:
            acc = acc * z + c
        return acc

    p = brede_poly(12)
    assert np.array_equal(p(-np.log(x)), horner(p.coefficients[::-1], -np.log(x)))
    v = x[x < 0.5]
    assert np.array_equal(binet_bracket_over_v(v), horner(BERN_OVER_FACT[::-1], v * v))
    phi = -np.expm1(-x)
    for j_max in (0, 1, 20, 120):
        big_l = horner([1.0 / m for m in range(j_max + 1, 0, -1)], phi) * phi
        live = (j_max + 1) * np.log(phi) + x > math.log(1e-19) + math.log(j_max + 2)
        want = np.where(live, (x - big_l) / phi, 0.0) / x
        assert np.array_equal(_hasse_tail_kernel(j_max)(x), want)


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


def _limit_term(m):
    return np.log(m) / m


_CHUNK = core._SUM_CHUNK


@pytest.mark.parametrize("a,b", [(1, _CHUNK), (1, _CHUNK + 1), (_CHUNK, 2 * _CHUNK + 3)])
def test_chunked_sum_matches_fsum_across_chunk_edges(a, b):
    """The chunked sum against math.fsum over the whole term list, on ranges
    that end on, end one past, and straddle a chunk edge."""
    ref = math.fsum(_limit_term(np.arange(a, b + 1, dtype=float)).tolist())
    assert abs(core._chunked_sum(_limit_term, a, b) - ref) <= 2.0 * math.ulp(ref)


@pytest.mark.parametrize("r", [2 * _CHUNK + 1, 2 * _CHUNK + 3, 3 * _CHUNK])
def test_limit_route_matches_the_exact_partial_sum(r):
    """gamma_limit(1, r) against the whole term list added by math.fsum.
    The shared partial sum ends at r/2: on a chunk edge, one past it, and
    inside a chunk."""
    partial = math.fsum(_limit_term(np.arange(1, r + 1, dtype=float)).tolist())
    lr = math.log(r)
    ref = partial - lr**2 / 2.0 - lr / (2.0 * r)
    assert abs(gamma_limit(1, r).value - ref) <= 2.0 * math.ulp(partial)


def test_limit_sums_do_not_grow_with_the_length():
    """gamma_limit and delta_n allocate the same few chunks at any length;
    a whole-length array would be 8 MB per array at 10^6 terms."""
    gamma_limit(1, 10)
    delta_n(1, 10)  # fills the per-process tables zeta_prime0 reads
    for call in (lambda: gamma_limit(1, 10**6), lambda: delta_n(1, 10**6)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


# ---------------------------------------------------------------------------
# Hermite integral for gamma_1(u)


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0, 5.0])
def test_hermite_route(u):
    """gamma_1(u) = log(u)/(2u) - log^2(u)/2
    + int_0^inf [x log(u^2+x^2) - 2u atan(x/u)] / [(u^2+x^2)(e^{2 pi x}-1)] dx,
    the real pair of Hermite-type integrals that gamma_coffey folds into one
    complex integrand at n = 1, through the same Abel-Plana weight."""
    ref = refs.GAMMA[(1, u)]

    def g(x):
        r2 = u * u + x * x
        return (x * np.log(r2) - 2.0 * u * np.arctan2(x, u)) / r2

    r = _abel_plana(g, None)
    value = math.log(u) / (2.0 * u) - math.log(u) ** 2 / 2.0 + r.value
    assert r.converged
    assert abs(value - ref) < _scaled(ref, 1e-13)
    assert abs(value - gamma_coffey(1, u).value) < _scaled(ref, 1e-13)


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


@pytest.fixture(scope="module")
def gamma_bridge_records():
    """The identities.gamma_bridge records by m: a_m as the integral side
    (left) and the binomial side (right) of the u = 1 inversion identity."""
    return {
        dict(c.inputs)["m"]: c
        for c in run_suite("identities").checks
        if c.check_id.startswith("identities.gamma_bridge(")
    }


@pytest.mark.parametrize("n", range(7))
def test_a_coefficient_both_forms(n, gamma_bridge_records):
    ref = refs.A_N[n]
    record = gamma_bridge_records[n]
    assert abs(record.left - ref) < _scaled(ref, 1e-12)
    assert abs(record.right - ref) < _scaled(ref, 1e-10)


def test_a_coefficient_domain():
    """The a_n come from the inversion sides, defined for n <= 8."""
    with pytest.raises(ValueError):
        inversion_sum(9)


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


@pytest.mark.parametrize("u", [1e-150, 1e-200, 1e-300, 1.7e-308])
def test_zeta_derivatives_at_tiny_u_take_the_exact_shift(u):
    """Below u = 1e-150 zeta'(0, u) and zeta''(0, u) come by the shifts
    zeta'(0, u+1) - log u and zeta''(0, u+1) + log^2 u; each agrees with
    mpmath's zeta(0, u, k) at 40 digits to 1.7e-16 relative."""
    for k, value in ((1, zeta_prime0(u)), (2, zeta_second0(u))):
        with mp.workdps(40):
            ref = mp.zeta(0, u, k)
            assert abs((value - ref) / ref) <= 1.7e-16


def test_zeta_second0_unit_shift_invariance():
    """zeta''(0, u) - zeta''(0, u+1) = log^2 u; at u = 1 the two agree."""
    assert abs(zeta_second0(1.0) - zeta_second0(2.0)) < 1e-12
    lhs = zeta_second0(0.5) - zeta_second0(1.5)
    assert abs(lhs - math.log(0.5) ** 2) < 1e-12


@pytest.mark.parametrize("t", sorted(refs.LOG_BARNES))
def test_barnes_g_log(t):
    ref = refs.LOG_BARNES[t]
    assert abs(barnes_g_log(t) - ref) < _scaled(ref, 1e-13)


def test_barnes_g_log_at_its_largest_t():
    """Just below the rejection rule the largest term t log Gamma(t) and the
    answer ~ t^2 log(t)/2 are both finite."""
    t = 7e152
    ref = barnes_g_log(t)
    with mp.workdps(30):
        assert abs((ref - mp.log(mp.barnesg(1 + mp.mpf(t)))) / ref) < 1e-13
    with pytest.raises(ValueError):
        barnes_g_log(7.2e152)


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
        hurwitz_laplace(-2.0, 1.0)  # kernel not integrable for s <= -1
    with pytest.raises(ValueError, match="hurwitz_hermite"):
        hurwitz_laplace(-0.99, 1.0)  # mass below the first node is lost
    with pytest.raises(ValueError):
        hurwitz_laplace(1e-4, 1.0)  # the 1/s split loses all digits near 0
    with pytest.raises(ValueError, match="s > 106"):
        hurwitz_laplace(107.0, 1.0)  # w^s overflows on the kept nodes
    with pytest.raises(ValueError):
        hurwitz_hermite(2.0, -1.0)


def test_hurwitz_hermite_below_its_edge_is_rejected():
    """Just below s = -18 the cancellation against the boundary terms is
    refused when the request is checked (1.2e-10 of max(1, |zeta|) was
    measured at s = -18.9)."""
    with pytest.raises(ValueError, match="cancellation"):
        hurwitz_hermite(-18.01, 2.0)


def test_hurwitz_hermite_far_below_its_edge_is_not_an_engine_error():
    """(-300, 1) used to raise IntegrandError from the engine."""
    with pytest.raises(ValueError, match="cancellation") as excinfo:
        hurwitz_hermite(-300.0, 1.0)
    assert not isinstance(excinfo.value, IntegrandError)


# 1.9858946768430077 is a zero of zeta(-18, u), where the scaled error is the
# absolute one; 0.95 and 2.0 are the worst of the edge's sweep grid.
@pytest.mark.parametrize("u", [0.1, 0.5, 0.95, 1.0, 1.9858946768430077, 2.0, 10.0, 100.0])
def test_hurwitz_hermite_at_its_lower_edge(u):
    """At s = -18 Hermite's integral is within 1e-10 of max(1, |zeta|)."""
    with mp.workdps(80):
        ref = mp.zeta(-18.0, u)
        err = abs(mp.mpf(hurwitz_hermite(-18.0, u)) - ref) / max(1, abs(ref))
    assert err <= 1e-10


# s = -0.95, the lower edge; large u, where the integral in v = w/u is tiny
# against an absolute convergence test; large s at small u, where v^s
# overflows before e^{-u v} has underflowed; s = 106, the upper edge; large
# s at moderate u, where Hermite's integral is ~u^{-s}; tiny u, reached by
# the shift zeta(s, u) = u^{-s} + zeta(s, u + 1).
LAPLACE_EDGES = [(-0.95, 0.5), (-0.95, 1.0), (-0.95, 2.0)] + [
    (10.0, 100.0), (30.0, 100.0), (100.0, 100.0), (3.0, 1e3), (2.0, 1e4),
    (100.0, 0.5), (100.0, 0.01), (60.0, 0.001), (106.0, 1.0),
    (100.0, 2.0), (60.0, 2.0), (30.0, 10.0), (10.0, 10.0),
    (-0.5, 1e-40), (-0.5, 1e-100), (0.5, 1e-300),
]
LAPLACE_EDGE_IDS = [str(u) if s == -0.95 else f"s={s:g},u={u:g}" for s, u in LAPLACE_EDGES]


@pytest.mark.parametrize("s,u", LAPLACE_EDGES, ids=LAPLACE_EDGE_IDS)
def test_hurwitz_laplace_at_domain_edge(s, u):
    """Both Hurwitz evaluators match mpmath.zeta at the edges of the Laplace
    form's domain, in relative terms.  mpmath loses digits at large s and u
    (2.5e-11 at (30, 100) with 40 digits), so the reference runs at 80."""
    with mp.workdps(80):
        ref = float(mp.zeta(s, u))
    assert abs(hurwitz_laplace(s, u) - ref) < 1e-14 * abs(ref)
    assert abs(hurwitz_hermite(s, u) - ref) < 1e-14 * abs(ref)


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
