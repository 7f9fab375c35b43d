"""Seeded inputs, 30-digit references and tolerances for the benchmark.

Every request is a dict ``{"route", "n", "u", "tol"}``: ``route`` is one
of ``hasse``/``coffey``/``bell``/``brede``, ``tol`` is ``None`` for the
library defaults or the ``QuadConfig.target_tol`` of the request.  The
inputs depend on the seed alone; the program under test only sees them.

u values are log-uniform on [0.1, 10] and stratified (one draw per equal
slice of log u), so two seeds give the same mix of cheap and dear inputs
and the figures of a run do not hinge on a lucky draw.
"""

from __future__ import annotations

import random

import mpmath as mp

N_MAX = 12            # largest order sampled; n > 12 is outside the tested domain
BREDE_N_MAX = 10      # gamma_brede is defined for n <= 10, at u = 1 only
U_LO, U_HI = 0.1, 10.0
TIGHT_TOL = 1e-8      # the loose tier of quad_mix: QuadConfig(target_tol=1e-8)

# Strata per pass.  hasse_sweep: one u per stratum, each swept over n = 0..12.
# quad_mix: per (route, order) cell; a multiple of 4 so exactly a quarter of
# each cell runs at TIGHT_TOL.
HASSE_STRATA = 8
QUAD_STRATA = 8

# The library's own agreement ladder: stieltjes.cross_method checks at
# 1e-8 * max(1, |ref|); a request run at target_tol gets 100 * target_tol.
DEFAULT_REL_TOL = 1e-8
TOL_FACTOR = 100.0


def _log_uniform(rng: random.Random, strata: int) -> list:
    """One u per equal slice of [log U_LO, log U_HI], in seeded order."""
    us = [U_LO * (U_HI / U_LO) ** ((i + rng.random()) / strata) for i in range(strata)]
    rng.shuffle(us)
    return us


def hasse_sweep(seed: int, strata: int = HASSE_STRATA) -> list:
    """gamma_hasse(n, u) for n = 0..12 in order at each seeded u (``table gamma_n``)."""
    rng = random.Random(seed)
    return [
        {"route": "hasse", "n": n, "u": u, "tol": None}
        for u in _log_uniform(rng, strata)
        for n in range(N_MAX + 1)
    ]


def quad_mix(seed: int) -> list:
    """Coffey and Bell-family requests over n = 0..12 and seeded u, plus
    Brede at u = 1; no (route, n, u) repeats and a quarter run at TIGHT_TOL."""
    rng = random.Random(seed)
    ops = []
    for route in ("coffey", "bell"):
        for n in range(N_MAX + 1):
            tight = set(rng.sample(range(QUAD_STRATA), QUAD_STRATA // 4))
            for i, u in enumerate(_log_uniform(rng, QUAD_STRATA)):
                ops.append({"route": route, "n": n, "u": u, "tol": TIGHT_TOL if i in tight else None})
    brede_tight = set(rng.sample(range(BREDE_N_MAX + 1), (BREDE_N_MAX + 1 + 2) // 4))
    for n in range(BREDE_N_MAX + 1):
        ops.append({"route": "brede", "n": n, "u": 1.0, "tol": TIGHT_TOL if n in brede_tight else None})
    rng.shuffle(ops)
    keys = {(op["route"], op["n"], op["u"]) for op in ops}
    if len(keys) != len(ops):
        raise RuntimeError("quad_mix drew a repeated (route, n, u)")
    return ops


WORKLOADS = {"hasse_sweep": hasse_sweep, "quad_mix": quad_mix}


def tolerance(op: dict, ref: float) -> float:
    """Absolute tolerance of one request, fixed before the run."""
    rel = DEFAULT_REL_TOL if op["tol"] is None else TOL_FACTOR * op["tol"]
    return rel * max(1.0, abs(ref))


def stieltjes_series(u: float, n_max: int = N_MAX, dps: int = 45) -> list:
    """gamma_0(u) .. gamma_{n_max}(u) to well over 30 digits, as mpf.

    Euler-Maclaurin for zeta(s, u) with N direct terms and M Bernoulli
    corrections, expanded as a power series in e = s - 1:

        zeta(1+e, u) - 1/e = sum_m c_m e^m,   gamma_m(u) = (-1)^m m! c_m.

    This shares no code or formula with the library's routes (nor with
    ``mpmath.stieltjes``, which integrates Coffey's kernel), so a defect
    common to the routes still shows.  N = 40, M = 24 put the remainder
    below 1e-40 for u in [0.1, 10] and m <= 12.
    """
    n_terms, m_corr = 40, 24
    deg = n_max + 1
    with mp.workdps(dps):
        a = mp.mpf(u)
        fact = [mp.factorial(m) for m in range(deg + 1)]

        def exp_series(log_x):
            # coefficients of x^(-e) = exp(-e log x)
            return [(-log_x) ** m / fact[m] for m in range(deg)]

        c = [mp.mpf(0)] * deg
        for k in range(n_terms):
            x = k + a
            for m, t in enumerate(exp_series(mp.log(x))):
                c[m] += t / x
        big = n_terms + a
        log_big = mp.log(big)
        tail = exp_series(log_big)
        for m in range(deg):
            # (N+a)^(-e)/e - 1/e  and  (N+a)^(-1-e)/2
            c[m] += (-log_big) ** (m + 1) / fact[m + 1] + tail[m] / (2 * big)
        poly = [mp.mpf(1)] + [mp.mpf(0)] * (deg - 1)   # s (s+1) ... (s+2j-2), s = 1 + e
        for j in range(1, m_corr + 1):
            for shift in ((2 * j - 3, 2 * j - 2) if j > 1 else (0,)):
                # multiply by (1 + shift + e)
                poly = [(1 + shift) * poly[m] + (poly[m - 1] if m else 0) for m in range(deg)]
            scale = mp.bernoulli(2 * j) / mp.factorial(2 * j) * big ** (-2 * j)
            for m in range(deg):
                c[m] += scale * sum(poly[i] * tail[m - i] for i in range(m + 1))
        return [(-1) ** m * fact[m] * c[m] for m in range(deg)]


def references(ops: list) -> list:
    """Binary64 reference value of every request (30+ digits, then rounded)."""
    top = {}
    for op in ops:
        top[op["u"]] = max(top.get(op["u"], 0), op["n"])
    series = {u: [float(v) for v in stieltjes_series(u, n_max)] for u, n_max in top.items()}
    return [series[op["u"]][op["n"]] for op in ops]
