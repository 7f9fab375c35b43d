"""
Hurwitz zeta continuation and the kernel moment family
======================================================

Two integral continuations of zeta(s, u) -- the Hermite (Abel-Plana)
integral, valid for every s != 1, and a Laplace-type Binet-kernel integral
for s >= -0.95 -- are compared against each other and against the plain series
where it converges.  The same Binet kernel then yields the moment family
I_n, whose sign pattern is more interesting than folklore suggests.
"""

import numpy as np

from stieltjes import (
    binet_bracket,
    binet_bracket_over_v,
    gamma_derivative_at_one,
    hurwitz_hermite,
    hurwitz_laplace,
    hurwitz_zeta_series,
    i_n_integral,
    integrate_semiaxis,
    inversion_sum,
)

# %% Continuation cross-check: two routes, all real s (s >= -0.95 for laplace)

print("s      u     hermite                laplace                |diff|")
for s in (-0.5, 0.5, 2.0, 3.0):
    for u in (0.5, 1.0, 2.0):
        h = hurwitz_hermite(s, u)
        l = hurwitz_laplace(s, u)
        print(f"{s:<5g}  {u:<4g}  {h: .15g}   {l: .15g}   {abs(h - l):.1e}")

# %% Where the series converges, both continuations must match it

print()
for s in (2.0, 3.0):
    direct = hurwitz_zeta_series(s, 1.5)
    print(f"series  s={s}, u=1.5: {direct:.15g}   hermite diff {abs(hurwitz_hermite(s, 1.5) - direct):.1e}")

# %% The regularized Binet kernel B(v) = 1/(e^v-1) - 1/v + 1/2
#
# Odd, ~v/12 at the origin, -> 1/2 - 1/v at infinity.  A cute identity:
# int_0^inf (1 - e^{-v})/v^2 B(v) dv = 1/4.

quarter = integrate_semiaxis(lambda v: (-np.expm1(-v) / v) * binet_bracket_over_v(v))
print()
print("B(0.3) + B(-0.3) =", binet_bracket(0.3) + binet_bracket(-0.3))
print("quarter integral =", f"{quarter.value:.15g}")

# %% The moment family I_n = int log^n(v) e^{-v} B(v) dv and its sign flip
#
# I_0 = gamma - 1/2 > 0, and the first few orders stay positive -- but the
# family is *not* positive throughout: from n = 5 every odd order is
# negative, because the (0,1) portion of the integral (log^n v < 0 there)
# grows factorially while the positive tail lags behind.

print()
for n in range(9):
    value = i_n_integral(n).value
    print(f"I_{n} = {value: .15g}   {'positive' if value > 0 else 'NEGATIVE'}")

# %% Those same moments, from gamma values instead of quadrature
#
# The inversion identity re-expresses I_n through gamma_k(1) and
# Gamma^{(n-k)}(1); agreement of both sides is a deep consistency check.

print()
for n in (0, 2, 5):
    sum_side, integral_side = inversion_sum(n, 1.0)
    print(f"n={n}: sum {sum_side: .15g}   integral {integral_side: .15g}")

# %% The companion coefficients a_n = I_n + Gamma^{(n)}(1)/2, both ways:
# each side of the inversion identity, shifted by Gamma^{(n)}(1)/2

print()
for n in range(4):
    sum_side, integral_side = inversion_sum(n, 1.0)
    half = 0.5 * gamma_derivative_at_one(n)
    print(f"a_{n}: integral {integral_side + half: .15g}   binomial {sum_side + half: .15g}")
