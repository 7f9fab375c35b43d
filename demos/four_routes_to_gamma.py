"""
Five independent routes to the Stieltjes constants
==================================================

gamma_n(u) are the Laurent coefficients of the Hurwitz zeta function about
its pole: zeta(s, u) = 1/(s-1) + sum_n (-1)^n gamma_n(u)/n! (s-1)^n.  The
package computes them through mathematically unrelated representations; this
script runs all of them side by side so the agreement (or any future
disagreement) is visible at a glance.
"""

from stieltjes import (
    gamma_bell_family,
    gamma_brede,
    gamma_coffey,
    gamma_hasse,
    gamma_limit,
)

# %% The five routes at u = 1, orders 0..2
#
#  hasse   binomial double series, split into an exact fixed-point head and
#          an exact integral tail
#  coffey  oscillatory Laplace integral with the e^{2 pi x} - 1 kernel
#  bell    log-power moments against the Binet kernel, assembled with the
#          reciprocal-Gamma derivative coefficients
#  brede   single moment of an Appell polynomial against the shifted kernel
#  limit   the classical partial-sum limit with Euler-Maclaurin acceleration

for n in range(3):
    print(f"gamma_{n}(1)")
    results = {
        "hasse": gamma_hasse(n, 1.0),
        "coffey": gamma_coffey(n, 1.0),
        "bell": gamma_bell_family(n, 1.0),
        "brede": gamma_brede(n),
        "limit": gamma_limit(n, 10**6),
    }
    for name, r in results.items():
        print(f"  {name:7s} {r.value: .15g}   est {r.error_estimate:.2g}")
    values = [r.value for r in results.values()]
    print(f"  spread  {max(values) - min(values):.2g}\n")

# %% Away from u = 1 three routes remain; gamma_0(u) = -psi(u)
from stieltjes import digamma

for u in (0.5, 1.5, 3.0):
    h = gamma_hasse(0, u).value
    c = gamma_coffey(0, u).value
    b = gamma_bell_family(0, u).value
    print(
        f"gamma_0({u}) = {h:.15g}   -psi({u}) = {-digamma(u):.15g}   "
        f"spread {max(h, c, b) - min(h, c, b):.2g}"
    )

# %% Higher orders: the representations track each other to ~1e-12
print()
for n in (4, 6, 8):
    h = gamma_hasse(n, 1.0).value
    c = gamma_coffey(n, 1.0).value
    print(f"gamma_{n}(1) = {h: .15g}   |hasse - coffey| = {abs(h - c):.2g}")
