"""Tests for the base special functions."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

import stieltjes
from stieltjes import (
    digamma,
    hurwitz_zeta_series,
    log_gamma,
)

import refs


# ---------------------------------------------------------------------------
# gamma-family wrappers


def test_log_gamma_values():
    assert abs(log_gamma(1.0)) < 1e-15
    assert abs(log_gamma(2.0)) < 1e-15
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-15
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-14


def test_digamma_values():
    g = refs.CONST["euler_gamma"]
    assert abs(digamma(1.0) + g) < 1e-15
    assert abs(digamma(2.0) - (1.0 - g)) < 1e-15
    # psi(1/2) = -gamma - 2 log 2
    assert abs(digamma(0.5) + g + 2.0 * refs.CONST["log_2"]) < 1e-14
    # Relative accuracy at the double nearest the zero x0 = 1.46163...;
    # the reference is psi at that double to 50 digits (mpmath).
    assert abs(digamma(1.4616321449683622) / -9.241265521729427e-17 - 1.0) < 1e-12


@pytest.mark.parametrize("fn", [log_gamma, digamma])
def test_positive_domain(fn):
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            fn(bad)


# ---------------------------------------------------------------------------
# Hurwitz zeta series (s > 1)


@pytest.mark.parametrize("s,u", sorted(refs.HURWITZ_SERIES))
def test_hurwitz_series_against_references(s, u):
    ref = refs.HURWITZ_SERIES[(s, u)]
    assert abs(hurwitz_zeta_series(s, u) - ref) < 1e-12 * max(1.0, abs(ref))


def test_hurwitz_series_riemann_specials():
    assert abs(hurwitz_zeta_series(2.0, 1.0) - math.pi**2 / 6.0) < 1e-14
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    assert abs(hurwitz_zeta_series(2.0, 0.5) - 3.0 * refs.ZETA_INT[2]) < 1e-13


def test_hurwitz_series_shift_relation():
    """zeta(s, x) - zeta(s, x+1) = x^{-s}, the defining ladder step."""
    for s in (1.5, 3.0, 12.0):
        for x in (0.5, 1.0, 2.5):
            lhs = hurwitz_zeta_series(s, x) - hurwitz_zeta_series(s, x + 1.0)
            assert abs(lhs - x ** (-s)) < 1e-12


def test_hurwitz_series_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta_series(1.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta_series(0.5, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta_series(2.0, 0.0)


# ---------------------------------------------------------------------------
# dependencies


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that finds this checkout's
    package first."""
    src = str(Path(stieltjes.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code, src],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_import_loads_no_package_beyond_numpy():
    """``import stieltjes`` brings in the standard library and numpy only
    (mpmath is imported by the functions that use it, and scipy never).
    Modules a bare interpreter already holds, such as those ``site`` loads,
    are not counted."""
    code = (
        "before = set(sys.modules); "
        "import stieltjes; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))"
    )
    assert _fresh_interpreter(code) == "['numpy', 'stieltjes']"


def test_coffey_bell_and_brede_never_load_mpmath():
    """mpmath is for the Hasse head and psi alone: the Coffey, Bell-family
    and Brede routes, c_k table included, run without it."""
    code = (
        "import stieltjes; "
        "stieltjes.gamma_coffey(1, 1.0); "
        "stieltjes.gamma_bell_family(3, 0.5); "
        "stieltjes.gamma_brede(2); "
        "print('mpmath' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "False"
