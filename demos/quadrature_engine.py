"""
The double-exponential quadrature engine
========================================

Every integral in the package flows through one deterministic
double-exponential engine, whose exp-sinh nodes finite intervals take as
tanh-sinh, with an explicit error-estimate and failure contract.  This
script shows its behavior on benign and endpoint-singular integrands, the
honest error estimates, and what happens when an integrand misbehaves.
"""

import math

import numpy as np

from stieltjes import IntegrandError, QuadConfig, integrate_finite, integrate_semiaxis

# %% Smooth integrand: doubly-exponential convergence, tiny estimates

r = integrate_finite(lambda v: np.exp(v), 0.0, 1.0)
print(f"int_0^1 e^v dv  = {r.value:.15g}   exact {math.e - 1:.15g}")
print(f"  estimate {r.error_estimate:.2g}, {r.evaluations} evaluations, converged={r.converged}")

# %% Logarithmic endpoint singularities are fine: nodes approach the
# endpoints to within ~1e-300 of them rather than stopping at ~1e-16

r = integrate_finite(lambda v: np.log(v) ** 4, 0.0, 1.0)
print(f"\nint_0^1 log^4 v dv = {r.value:.15g}   exact {math.factorial(4)}")

r = integrate_finite(lambda t: 1.0 / np.log(t) + 1.0 / (1.0 - t), 0.0, 1.0)
print(f"int_0^1 [1/log t + 1/(1-t)] dt = {r.value:.15g}   (Euler's constant)")

# %% Semi-axis integrals want exponential decay; guard the far tail so that
# 0 * inf never appears in the samples

def damped_power(v):
    vc = np.minimum(v, 700.0)
    return np.where(v > 700.0, 0.0, vc**5 * np.exp(-vc))

r = integrate_semiaxis(damped_power)
print(f"\nint_0^inf v^5 e^-v dv = {r.value:.15g}   exact {math.factorial(5)}")

# %% The failure contract, part 1: non-finite samples raise IntegrandError
# with the offending abscissa attached

try:
    integrate_finite(lambda v: 1.0 / (v - 0.5), 0.0, 1.0)
except IntegrandError as exc:
    print(f"\nIntegrandError as expected: {exc}")

# %% The failure contract, part 2: exhausting max_level clears `converged`
# instead of raising, and the value/estimate are still reported

cfg = QuadConfig(target_tol=1e-15, max_level=2)
r = integrate_finite(lambda v: np.sin(40.0 * v), 0.0, 1.0, cfg)
print(f"\nstarved refinement: value {r.value:.6g}, estimate {r.error_estimate:.2g}, converged={r.converged}")

# %% Deeper refinement buys accuracy; the estimate tracks the true error

exact = math.e - 1.0
for max_level in (3, 5, 12):
    r = integrate_finite(lambda v: np.exp(v), 0.0, 1.0, QuadConfig(target_tol=1e-15, max_level=max_level))
    print(f"max_level {max_level:>2d}: error {abs(r.value - exact):.2g}, estimate {r.error_estimate:.2g}")
