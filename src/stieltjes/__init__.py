"""Generalized Stieltjes constants gamma_n(u) via cross-validating routes.

The library computes the Laurent coefficients of the Hurwitz zeta function
about s = 1 through three mathematically independent representations
(binomial series, Hermite contour integral, Binet-kernel integrals with
reciprocal-gamma weights) and the Appell-polynomial integral, the third
with its sum moved inside, together with the exact complete Bell
polynomial engine, the zeta derivatives at s = 0, the alternating Hurwitz
zeta web, and a validation harness that checks every identity both ways.

>>> from stieltjes import gamma_hasse
>>> gamma_hasse(0).value            # Euler's constant
0.5772156649015329
"""

__version__ = "1.0.0"

from . import bellpoly, core, alteta, quad, specfun, validate
from .bellpoly import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .alteta import *  # noqa: F401,F403
from .quad import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .validate import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (bellpoly, core, alteta, quad, specfun, validate)
    for name in module.__all__
]
