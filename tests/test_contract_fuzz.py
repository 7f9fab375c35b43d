"""The input contract, fuzzed: every numeric public function of ``specfun``,
``quad``, ``core`` and ``alteta``, called on seeded random arguments,
returns finite values or raises a ``ValueError`` that is not an
``IntegrandError``.  Any warning fails the call as well, since
``filterwarnings = "error"``.

Real arguments are log-uniform in magnitude over [1e-324, 1e308], so
subnormals (and 0, where 1e-324 rounds to it) are drawn; each is
stratified, one draw in each of ``calls`` equal slices of the exponent
range in seeded order, so that edges as thin as log_gamma's overflow past
2.56e305 are met whatever the seed.  Orders span their documented ranges,
s spans each evaluator's range, and the counts r and m of the limit forms
stay <= 1e4.  Cheap functions get more calls.
"""

import math
import random

import numpy as np
import pytest

from stieltjes import MethodResult, QuadResult, RealPolynomial, alteta, core, quad, specfun
from stieltjes.quad import IntegrandError

# Each maker takes the generator and q, the call's stratified quantile in [0, 1).


def _pos(rng, q):
    return 10.0 ** (-324.0 + 632.0 * q)


def _real(rng, q):
    return rng.choice((-1.0, 1.0)) * _pos(rng, q)


def _order(lo, hi):
    return lambda rng, q: rng.randint(lo, hi)


def _uniform(lo, hi):
    return lambda rng, q: lo + (hi - lo) * q


def _count(lo, hi):
    return lambda rng, q: round(lo * (hi / lo) ** q)


def _strata(rng, calls):
    """One quantile in each of ``calls`` equal slices of [0, 1), shuffled."""
    q = [(i + rng.random()) / calls for i in range(calls)]
    rng.shuffle(q)
    return q


def _cos(rng, q):
    return np.cos


# name: (calls, argument makers); a dict of makers gives keyword arguments.
FUZZ = {
    # specfun
    "log_gamma": (300, _pos),
    "digamma": (300, _pos),
    "polygamma": (300, _order(1, 12), _pos),
    "hurwitz_zeta_series": (300, _uniform(1.0, 50.0), _pos),
    # quad
    "integrate_finite": (150, _cos, _real, _real),
    "legendre_relation_check": (300, _pos),
    "atan_laplace_check": (150, _pos, _real),
    "binet_bracket": (300, _real),
    "binet_bracket_over_v": (300, _real),
    # core
    "gamma_hasse": (30, _order(0, 12), _pos),
    "gamma_value": (30, _order(0, 12), _pos),
    "gamma_coffey": (40, _order(0, 99), _pos),
    "gamma_bell_family": (40, _order(0, 12), _pos),
    "brede_poly": (50, _order(0, 12)),
    "gamma_brede": (20, _order(0, 10)),
    "gamma_limit": (20, _order(0, 8), _count(10, 1e4)),
    "inversion_sum": (100, _order(0, 8), _pos),
    "i_n_integral": (20, _order(0, 12)),
    "zeta_prime0": (300, _pos),
    "zeta_second0": (60, _pos),
    "barnes_g_log": (100, _pos),
    "hurwitz_hermite": (60, _uniform(-18.0, 300.0), _pos),
    "hurwitz_laplace": (60, _uniform(-0.95, 106.0), _pos),
    "delta_n": (20, _order(0, 1), _count(10, 1e4)),
    # alteta
    "alt_zeta": (40, _uniform(-18.0, 300.0), _pos),
    "alt_zeta_hasse": (10000, _uniform(-30.0, 300.0), _pos, _order(0, 6)),
    "alt_deriv_at_1": (30, _order(0, 4), _pos),
    "euler_constant_59": (20, {"i_max": _order(0, 200)}),
    "gamma_half_closed": (20, _order(0, 6)),
    "stieltjes_sum_over_fractions": (20, _order(0, 4), _order(2, 6)),
    "half_shift_check": (20, _order(0, 5)),
}

# Public callables without a numeric argument of their own: classes and
# records, the integrand-only semi-axis engine and the constant gamma1_via_alt.
NOT_FUZZED = {
    "IntegrandError",
    "Method",
    "MethodResult",
    "QuadConfig",
    "QuadResult",
    "RealPolynomial",
    "gamma1_via_alt",
    "integrate_semiaxis",
}

_MODULES = (specfun, quad, core, alteta)


def _function(name):
    return next(getattr(m, name) for m in _MODULES if name in m.__all__)


def _finite(result) -> bool:
    if isinstance(result, (MethodResult, QuadResult)):
        return math.isfinite(result.value) and math.isfinite(result.error_estimate)
    if isinstance(result, RealPolynomial):
        return all(map(math.isfinite, result.coefficients))
    if isinstance(result, tuple):
        return all(map(_finite, result))
    return bool(np.all(np.isfinite(result)))


def test_every_numeric_public_function_is_fuzzed():
    public = {name for m in _MODULES for name in m.__all__ if callable(getattr(m, name))}
    assert public - NOT_FUZZED == set(FUZZ)


@pytest.mark.parametrize("name", sorted(FUZZ))
def test_fuzzed_calls_are_finite_or_value_errors(name):
    fn = _function(name)
    calls, *makers = FUZZ[name]
    keywords = makers.pop() if isinstance(makers[-1], dict) else {}
    rng = random.Random(f"contract:{name}")
    quantiles = [_strata(rng, calls) for _ in makers]
    failures = []
    for i in range(calls):
        args = [make(rng, q[i]) for make, q in zip(makers, quantiles)]
        kwargs = {key: make(rng, rng.random()) for key, make in keywords.items()}
        try:
            ok = _finite(fn(*args, **kwargs))
        except IntegrandError:
            ok = False
        except ValueError:
            ok = True
        if not ok:
            failures.append((args, kwargs))
    assert not failures, f"{len(failures)} of {calls} calls: {failures[:3]}"
