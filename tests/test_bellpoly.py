"""Exact tests for the complete Bell polynomial engine.

Everything here runs in exact arithmetic (int / Fraction): the symbolic
expansion and the binomial recurrence are compared term-for-term, and the
classical identities (negation convolution, addition formula, homogeneity,
first-argument shift) are asserted with zero tolerance.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes import (
    MAX_ORDER,
    bell_number,
    complete_bell,
    eval_bell,
    gamma_derivative_at_one,
    inv_gamma_derivative_at_zero,
    partitions,
)

import refs

# ---------------------------------------------------------------------------
# partitions and symbolic expansion


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


@pytest.mark.parametrize("n", range(11))
def test_partition_counts(n):
    """The multiplicity-vector enumeration hits p(n) = 1,1,2,3,5,7,11,..."""
    mults = list(partitions(n))
    assert len(mults) == PARTITION_COUNTS[n]
    # every vector respects the weight condition sum_j j*k_j = n
    for mult in mults:
        assert sum((j + 1) * k for j, k in enumerate(mult)) == n
    # no duplicates
    assert len(set(mults)) == len(mults)


def test_partitions_rejects_negative():
    with pytest.raises(ValueError):
        list(partitions(-1))


def test_expansion_matches_printed_forms():
    """Y_2 = x1^2 + x2,  Y_3 = x1^3 + 3 x1 x2 + x3,
    Y_4 = x1^4 + 6 x1^2 x2 + 4 x1 x3 + 3 x2^2 + x4."""
    y2 = complete_bell(2).as_dict()
    assert y2 == {(2, 0): 1, (0, 1): 1}

    y3 = complete_bell(3).as_dict()
    assert y3 == {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 1}

    y4 = complete_bell(4).as_dict()
    assert y4 == {
        (4, 0, 0, 0): 1,
        (2, 1, 0, 0): 6,
        (1, 0, 1, 0): 4,
        (0, 2, 0, 0): 3,
        (0, 0, 0, 1): 1,
    }


def test_expansion_coefficients_sum_to_bell_number():
    """Evaluating at all ones turns every monomial into its coefficient."""
    for n in range(8):
        poly = complete_bell(n)
        assert sum(c for _, c in poly.terms) == bell_number(n)


def test_coefficient_lookup():
    poly = complete_bell(4)
    assert poly.coefficient((2, 1, 0, 0)) == 6
    assert poly.coefficient((0, 0, 0, 0)) == 0  # violates the weight condition


def test_capacity_limits():
    with pytest.raises(ValueError):
        complete_bell(MAX_ORDER + 1)
    with pytest.raises(ValueError):
        complete_bell(-1)
    with pytest.raises(ValueError):
        eval_bell(3, [1, 2])  # too few arguments
    with pytest.raises(ValueError):
        complete_bell(3).evaluate([1, 2])


# ---------------------------------------------------------------------------
# recurrence vs expansion, exact identities


BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


@pytest.mark.parametrize("n", range(11))
def test_bell_numbers(n):
    assert bell_number(n) == BELL_NUMBERS[n]


def _fraction_seq(seed_num, seed_den, length):
    """A deterministic exact sequence x_j = seed_num/(seed_den + j)."""
    return [Fraction(seed_num, seed_den + j) for j in range(length)]


@pytest.mark.parametrize("n", range(11))
def test_recurrence_matches_expansion_exactly(n):
    """eval_bell (binomial recurrence) == complete_bell(...).evaluate, exactly."""
    xs = _fraction_seq(3, 2, n)
    assert eval_bell(n, xs) == complete_bell(n).evaluate(xs)


@given(
    n=st.integers(min_value=1, max_value=8),
    nums=st.lists(st.integers(min_value=-6, max_value=6), min_size=8, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_recurrence_matches_expansion_random(n, nums):
    xs = [Fraction(a, 3) for a in nums]
    assert eval_bell(n, xs) == complete_bell(n).evaluate(xs)


@given(
    n=st.integers(min_value=1, max_value=10),
    num=st.integers(min_value=-5, max_value=5),
    den=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_homogeneity(n, num, den):
    """Y_n(a x_1, a^2 x_2, ..., a^n x_n) = a^n Y_n(x_1, ..., x_n)."""
    a = Fraction(num, den)
    xs = _fraction_seq(1, 1, n)
    scaled = [a ** (j + 1) * xs[j] for j in range(n)]
    assert eval_bell(n, scaled) == a**n * eval_bell(n, xs)


@pytest.mark.parametrize("n", range(1, 11))
def test_negation_convolution_vanishes(n):
    """sum_{j} C(n,j) Y_j(x) Y_{n-j}(-x) = 0 for n >= 1 (exact)."""
    xs = _fraction_seq(2, 3, n)
    neg = [-x for x in xs]
    acc = sum(
        math.comb(n, j) * eval_bell(j, xs) * eval_bell(n - j, neg)
        for j in range(n + 1)
    )
    assert acc == 0


@pytest.mark.parametrize("n", range(1, 11))
def test_addition_formula(n):
    """Y_n(x + y) = sum_k C(n,k) Y_{n-k}(x) Y_k(y), elementwise argument sum."""
    xs = _fraction_seq(1, 2, n)
    ys = [Fraction(j + 1, j + 3) for j in range(n)]
    combined = [xs[j] + ys[j] for j in range(n)]
    rhs = sum(
        math.comb(n, k) * eval_bell(n - k, xs) * eval_bell(k, ys)
        for k in range(n + 1)
    )
    assert eval_bell(n, combined) == rhs


@given(
    n=st.integers(min_value=1, max_value=8),
    anum=st.integers(min_value=-4, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_first_argument_shift(n, anum):
    """Y_n(x_1 + a, x_2, ..., x_n) = sum_k C(n,k) a^k Y_{n-k}(x)."""
    a = Fraction(anum, 2)
    xs = _fraction_seq(2, 1, n)
    shifted = [xs[0] + a] + xs[1:]
    rhs = sum(math.comb(n, k) * a**k * eval_bell(n - k, xs) for k in range(n + 1))
    assert eval_bell(n, shifted) == rhs


@pytest.mark.parametrize("n", range(0, 9))
def test_single_argument_collapse(n):
    """Y_n(a, 0, ..., 0) = a^n."""
    a = Fraction(7, 4)
    xs = [a] + [Fraction(0)] * max(0, n - 1)
    assert eval_bell(n, xs) == a**n


# ---------------------------------------------------------------------------
# derivative values of Gamma and 1/Gamma at the point 1


@pytest.mark.parametrize("m", range(13))
def test_gamma_derivatives_at_one(m):
    """Gamma^{(m)}(1) is the correctly rounded 50-digit reference."""
    assert gamma_derivative_at_one(m) == refs.GAMMA_DERIVS[m]


@pytest.mark.parametrize("k", range(13))
def test_inv_gamma_derivatives(k):
    """The reciprocal-Gamma derivatives are the correctly rounded 50-digit
    references: the table is the recurrence run at 40 digits, so the
    cancellation its alternating-sign arguments cause never reaches binary64."""
    assert inv_gamma_derivative_at_zero(k) == refs.INV_GAMMA_DERIVS[k]


def test_derivative_tables_are_the_40_digit_values_rounded_once():
    """The two stored tables are exactly their 40-digit values rounded once,
    derived two ways: the Bell recurrence over psi^{(p)}(1), and m! times
    the Taylor coefficients of Gamma and 1/Gamma at 1."""
    import mpmath as mp

    from stieltjes.bellpoly import _C_K, _GAMMA_DERIVATIVES, _MAX_DERIVATIVE

    orders = range(_MAX_DERIVATIVE + 1)
    with mp.workdps(40):
        psi = [mp.psi(p, 1) for p in range(_MAX_DERIVATIVE)]
        bell = (
            tuple(float(eval_bell(m, psi)) for m in orders),
            tuple(float(eval_bell(m, [-x for x in psi])) for m in orders),
        )
        taylor = tuple(
            tuple(float(c * mp.factorial(m)) for m, c in enumerate(mp.taylor(f, 1, orders[-1])))
            for f in (mp.gamma, mp.rgamma)
        )
    assert bell == taylor == (_GAMMA_DERIVATIVES, _C_K)


def test_gamma_derivative_low_orders_closed_form():
    """m = 0..2: 1, -gamma, gamma^2 + zeta(2)."""
    g = refs.CONST["euler_gamma"]
    z2 = refs.CONST["zeta_2"]
    assert gamma_derivative_at_one(0) == 1.0
    assert abs(gamma_derivative_at_one(1) + g) < 1e-15
    assert abs(gamma_derivative_at_one(2) - (g * g + z2)) < 1e-14


def test_derivative_convolution_is_delta():
    """sum_k C(n,k) [1/Gamma]^{(k)} Gamma^{(n-k)}(1) = delta_{n0}."""
    for n in range(11):
        acc = math.fsum(
            math.comb(n, k)
            * inv_gamma_derivative_at_zero(k)
            * gamma_derivative_at_one(n - k)
            for k in range(n + 1)
        )
        target = 1.0 if n == 0 else 0.0
        scale = max(1.0, abs(gamma_derivative_at_one(n)))
        assert abs(acc - target) < 1e-12 * scale


def test_derivative_capacity():
    with pytest.raises(ValueError):
        gamma_derivative_at_one(13)
    with pytest.raises(ValueError):
        inv_gamma_derivative_at_zero(-1)
