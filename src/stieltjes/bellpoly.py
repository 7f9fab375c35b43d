"""Exact complete (exponential) Bell polynomials.

The complete Bell polynomial Y_n is the partition sum

    Y_n(x_1, ..., x_n) = sum over (k_1, ..., k_n), k_1 + 2 k_2 + ... + n k_n = n,
                         of  n! / [k_1! ... k_n! (1!)^{k_1} ... (n!)^{k_n}]
                             * x_1^{k_1} ... x_n^{k_n},

with ``Y_0 = 1``.  Two independent computation paths are provided and bound
together by the test suite:

* a symbolic path (:func:`complete_bell`) that enumerates partitions and
  stores exact integer coefficients, and
* a numerical path (:func:`eval_bell`) based on the binomial recurrence

      Y_{n+1}(x) = sum_{k=0}^{n} C(n,k) Y_k(x) x_{n-k+1},

  which is O(n^2), numerically stable, and works for any numeric type
  (int, Fraction, float, mpf) without expanding the polynomial.

Evaluating Y_m at (poly)gamma arguments produces derivative values of Gamma
and of its reciprocal at the point 1:

    Gamma^{(m)}(1)                    = Y_m(psi(1), psi'(1), ..., psi^{(m-1)}(1)),
    d^k/dx^k [1/Gamma(1+x)] at x = 0  = Y_k(-psi(1), -psi'(1), ..., -psi^{(k-1)}(1)),

where psi^{(p)}(1) = (-1)^{p+1} p! zeta(p+1) and psi(1) = -gamma.  Those
arguments alternate in sign and cancel about five digits by order 12, so
the two derivative tables, m <= 12, are that recurrence run at 40 digits and
rounded once; they are fixed numbers, so they are stored as binary64
literals, and the test suite re-derives each at 40 digits, by this
recurrence and by Taylor coefficients, and asserts exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Sequence, Tuple

from .specfun import _require_order

__all__ = [
    "MAX_ORDER",
    "BellPolynomial",
    "partitions",
    "complete_bell",
    "eval_bell",
    "bell_number",
    "gamma_derivative_at_one",
    "inv_gamma_derivative_at_zero",
]

# Symbolic expansion grows with the partition count p(n); the recurrence has
# no such limit but derivative values beyond this order add no tested value.
MAX_ORDER = 20
# The derivative tables, and so the routes' c_k, stop here (precision, not structure).
_MAX_DERIVATIVE = 12


def partitions(n: int) -> Iterator[Tuple[int, ...]]:
    """Yield the multiplicity vectors (k_1, ..., k_n) of all partitions of n.

    Entry k_j counts the parts of size j, so every emitted tuple satisfies the
    weight condition sum_j j*k_j = n.  Enumeration is by nonincreasing part
    lists, giving a deterministic order; n = 0 yields the single empty tuple.
    """
    n = _require_order(n, "partition order")

    def parts(remaining: int, max_part: int) -> Iterator[list]:
        if remaining == 0:
            yield []
            return
        for p in range(min(remaining, max_part), 0, -1):
            for rest in parts(remaining - p, p):
                yield [p] + rest

    for plist in parts(n, n):
        mult = [0] * n
        for p in plist:
            mult[p - 1] += 1
        yield tuple(mult)


@dataclass(frozen=True)
class BellPolynomial:
    """Exact expansion of a complete Bell polynomial Y_n.

    ``terms`` maps each exponent vector (e_1, ..., e_n) -- satisfying the
    weight condition sum_j j*e_j = n -- to its exact integer coefficient.
    Stored term order is lexicographic on the exponent vectors so that the
    representation, and everything printed from it, is deterministic.
    """

    order: int
    terms: Tuple[Tuple[Tuple[int, ...], int], ...] = field(repr=False)

    def as_dict(self) -> Dict[Tuple[int, ...], int]:
        return dict(self.terms)

    def coefficient(self, exponents: Sequence[int]) -> int:
        """Integer coefficient of x_1^{e_1}...x_n^{e_n} (0 if absent)."""
        return self.as_dict().get(tuple(exponents), 0)

    def evaluate(self, xs: Sequence):
        """Evaluate by direct expansion; exact for exact inputs.

        This is the slow reference path; :func:`eval_bell` is the production
        evaluator.  ``xs`` must supply at least ``order`` entries.
        """
        if len(xs) < self.order:
            raise ValueError(
                f"Y_{self.order} needs {self.order} arguments, got {len(xs)}"
            )
        total = 0
        for expo, coef in self.terms:
            term = coef
            for j, e in enumerate(expo):
                if e:
                    term = term * xs[j] ** e
            total = total + term
        return total


def complete_bell(n: int) -> BellPolynomial:
    """Exact symbolic Y_n with integer coefficients from partition enumeration.

    The coefficient of the monomial indexed by multiplicities (k_1, ..., k_n)
    is n!/(k_1!...k_n! (1!)^{k_1}...(n!)^{k_n}); the division is exact.
    Raises ``ValueError`` above order :data:`MAX_ORDER` (capacity, not a
    mathematical limit).
    """
    n = _require_order(n, "order", 0, MAX_ORDER)
    terms = {}
    n_fact = math.factorial(n)
    for mult in partitions(n):
        den = 1
        for j, kj in enumerate(mult, start=1):
            if kj:
                den *= math.factorial(kj) * math.factorial(j) ** kj
        coef, rem = divmod(n_fact, den)
        assert rem == 0, "partition coefficient must be an exact integer"
        terms[mult] = coef
    ordered = tuple(sorted(terms.items()))
    return BellPolynomial(order=n, terms=ordered)


def eval_bell(n: int, xs: Sequence):
    """Y_n(x_1, ..., x_n) by the binomial recurrence (no expansion).

    Exact for exact inputs (int/Fraction), stable in floats; preserves the
    arithmetic type of ``xs``.  ``xs`` must have at least ``n`` entries
    (entry p, 0-based, is x_{p+1}).
    """
    n = _require_order(n, "order")
    if len(xs) < n:
        raise ValueError(f"Y_{n} needs at least {n} arguments, got {len(xs)}")
    values = [1]  # Y_0
    for m in range(n):
        acc = 0
        for k in range(m + 1):
            acc = acc + math.comb(m, k) * values[k] * xs[m - k]
        values.append(acc)
    return values[n]


def bell_number(n: int) -> int:
    """The n-th Bell number B_n = Y_n(1, 1, ..., 1)."""
    n = _require_order(n, "order")
    return eval_bell(n, [1] * n)


# Gamma^{(m)}(1) and [1/Gamma]^{(m)}(1), m = 0.._MAX_DERIVATIVE: the Bell
# recurrence over psi^{(p)}(1) at 40 digits, rounded once (shortest repr).
_GAMMA_DERIVATIVES = (
    1.0,
    -0.5772156649015329,
    1.978111990655945,
    -5.4448744564853175,
    23.561474084025605,
    -117.83940826837743,
    715.0673625273189,
    -5019.848872629855,
    40243.62157333576,
    -362526.289114655,
    3627042.4127568947,
    -39907084.15143134,
    478943291.765183,
)
_C_K = (
    1.0,
    0.5772156649015329,
    -1.3117561430405078,
    -0.2520158102045714,
    3.996926673174996,
    -5.06372814666532,
    -6.927819500071421,
    36.38347396318202,
    -46.9795573037575,
    -78.1068987028334,
    464.668864729996,
    -803.718971313768,
    -598.9883787359107,
)


def gamma_derivative_at_one(m: int) -> float:
    """Gamma^{(m)}(1) = Y_m(psi(1), psi'(1), ..., psi^{(m-1)}(1)).

    First values: -gamma; zeta(2) + gamma^2; -[2 zeta(3) + 3 gamma zeta(2)
    + gamma^3].  Capacity-limited to m <= 12 (precision, not structure).
    """
    return _GAMMA_DERIVATIVES[_require_order(m, "derivative order", 0, _MAX_DERIVATIVE)]


def inv_gamma_derivative_at_zero(k: int) -> float:
    """d^k/dx^k [1/Gamma(1+x)] at x = 0 = Y_k(-psi(1), ..., -psi^{(k-1)}(1)).

    Equivalently the k-th derivative of 1/Gamma(s) at s = 1; the arguments
    are gamma, -zeta(2), 2 zeta(3), -6 zeta(4), ...  First values: 1; gamma;
    gamma^2 - zeta(2).
    """
    return _C_K[_require_order(k, "derivative order", 0, _MAX_DERIVATIVE)]
