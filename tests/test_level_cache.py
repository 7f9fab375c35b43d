"""Tests for the per-process tables of level-only arrays.

The exp-sinh nodes, log x, each kernel on the nodes and the Abel-Plana
weight depend on the quadrature level alone, and the Hasse head's mpf logs
on (u, J) alone, so each is computed once and kept.  A cache must be
invisible: a cold call and a warm call give the same result bit for bit.
"""

import numpy as np
import pytest

from stieltjes import (
    QuadConfig,
    binet_bracket,
    gamma_bell_family,
    gamma_brede,
    gamma_coffey,
    gamma_hasse,
    i_n_integral,
    run_suite,
)
from stieltjes import core, quad

_CACHES = (
    quad._es_nodes,
    quad._abel_weight,
    quad._kernel_on_nodes,
    core._hasse_logs,
    core._hasse_tail_kernel,
)


def _clear_caches():
    for cache in _CACHES:
        cache.cache_clear()


def _bits(r):
    return r.value.hex(), r.error_estimate.hex(), r.evaluations, r.flags


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma_hasse(5, 0.37),
        lambda: gamma_hasse(12, 7.0, cfg=QuadConfig(max_level=14)),
        lambda: gamma_coffey(7, 2.0),
        lambda: gamma_coffey(3, 0.1, QuadConfig(target_tol=1e-8)),
        lambda: gamma_bell_family(4, 3.0),
        lambda: gamma_brede(9),
        lambda: i_n_integral(6),
    ],
    ids=["hasse", "hasse_level14", "coffey", "coffey_tol8", "bell", "brede", "i_n"],
)
def test_cold_and_warm_calls_agree_bit_for_bit(call):
    _clear_caches()
    cold = call()
    warm = call()
    assert _bits(cold) == _bits(warm)


def test_kept_arrays_are_read_only():
    arrays = [
        *quad._kept(quad._es_nodes, 3),
        *quad._kept(quad._abel_weight, 3),
        quad._kept(quad._kernel_on_nodes, 3, binet_bracket),
    ]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_levels_past_the_default_are_not_kept():
    """A max_level = 14 run builds levels 13 and 14 and keeps only 0..12."""
    _clear_caches()
    cfg = QuadConfig(target_tol=1e-15, max_level=14)

    def step(v):  # a jump at v = 1: never converges, so every level runs
        return np.where(v > 1.0, 1.0, 0.0)

    assert not quad._log_moments(step, 1.0, (0,), cfg).converged
    assert not quad._abel_plana(step, cfg).converged
    kept = quad._KEPT_LEVELS + 1
    assert quad._KEPT_LEVELS == QuadConfig().max_level == 12
    for table in (quad._es_nodes, quad._abel_weight, quad._kernel_on_nodes):
        assert table.cache_info().currsize == kept


def test_second_hasse_call_reuses_the_kernel_tables():
    """The tail kernel rho_J(t)/t does not depend on u: a call at a new u
    that reaches no deeper level evaluates it nowhere."""
    gamma_hasse(4, 0.5)
    before = quad._kernel_on_nodes.cache_info()
    gamma_hasse(4, 3.0)
    after = quad._kernel_on_nodes.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_second_stieltjes_suite_run_makes_no_kernel_miss():
    """The suite's kernels are long-lived objects, the B - 1/2 kernel of the
    stieltjes.bare_kernel checks included, so a second run finds every
    kernel table kept."""
    run_suite("stieltjes")
    misses = quad._kernel_on_nodes.cache_info().misses
    run_suite("stieltjes")
    assert quad._kernel_on_nodes.cache_info().misses == misses


def test_hasse_logs_are_shared_by_a_table_at_one_u():
    """n = 0..12 at one u compute the mpf logs once, and only the last
    (u, J) is kept."""
    core._hasse_logs.cache_clear()
    for n in range(13):
        gamma_hasse(n, 0.7)
    info = core._hasse_logs.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 12, 1)
    gamma_hasse(0, 0.8)
    assert core._hasse_logs.cache_info().misses == 2


def test_each_hasse_depth_has_its_own_kernel_table(monkeypatch):
    _clear_caches()
    tables = []
    for j_max in (90, 150):
        monkeypatch.setattr(core, "_J_MAX", j_max)
        misses = quad._kernel_on_nodes.cache_info().misses
        gamma_hasse(2, 0.75)
        assert quad._kernel_on_nodes.cache_info().misses > misses
        tables.append(quad._kept(quad._kernel_on_nodes, 2, core._hasse_tail_kernel(j_max)))
    assert not np.array_equal(*tables)
