"""Tests for the per-process tables of level-only arrays and of moment rows.

The exp-sinh nodes, log x, each kernel on the nodes and the Abel-Plana
weight depend on the quadrature level alone, and the Hasse head's mpf logs
on (u, J) alone, so each is computed once and kept.  Every moment integral
M_p(u) -- the Hasse and Bell-family tails, I_n, the inversion identity's
integral side and zeta'(0, u) -- goes through ``quad._log_moments``, whose
table ``quad._moment_table`` keeps the rows of the last (kernel, u, cfg), so
n = 0..12 at one u integrate each row once.  Every table is an
``lru_cache``.  A cache must be invisible: a cold call and a warm call give
the same result bit for bit, and memory does not grow with the calls made.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stieltjes import (
    QuadConfig,
    binet_bracket,
    gamma_bell_family,
    gamma_brede,
    gamma_coffey,
    gamma_hasse,
    i_n_integral,
    inversion_sum,
    run_suite,
    zeta_prime0,
)
from stieltjes import core, quad

_CACHES = (
    quad._es_nodes,
    quad._abel_weight,
    quad._kernel_on_nodes,
    quad._moment_table,
    core._hasse_logs,
    core._hasse_tail_kernel,
)


def _clear_caches():
    for cache in _CACHES:
        cache.cache_clear()


def _bits(r):
    if isinstance(r, float):
        return r.hex()
    if isinstance(r, tuple):
        return tuple(map(_bits, r))
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

    assert not quad._log_moments(step, 1.0, (0,), cfg)[0].converged
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


_CALLS = {
    "hasse": lambda n, u, cfg: gamma_hasse(n, u, cfg=cfg),
    "bell": lambda n, u, cfg: gamma_bell_family(n, u, cfg=cfg),
    "i_n": lambda n, u, cfg: i_n_integral(n, cfg),
    "inversion": lambda n, u, cfg: inversion_sum(min(n, 8), u, cfg),
    "zeta_prime0": lambda n, u, cfg: zeta_prime0(u, cfg),
}
_CFGS = (None, QuadConfig(target_tol=1e-8))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_CALLS)),
            st.integers(0, 12),
            st.sampled_from((0.13, 0.7, 1.0, 2.5)),
            st.sampled_from(_CFGS),
        ),
        min_size=1,
        max_size=10,
    )
)
@example(
    [
        ("bell", 3, 1.0, None),
        ("i_n", 3, 1.0, None),  # reads the row the Bell call left
        ("bell", 3, 1.0, _CFGS[1]),  # another cfg, whose M_3 stops a level earlier
        ("hasse", 3, 0.7, None),
        ("hasse", 3, 2.5, None),  # another u
        ("zeta_prime0", 0, 2.5, None),  # another kernel
        ("inversion", 4, 2.5, None),
    ]
)
@settings(max_examples=50, deadline=None)
def test_table_calls_equal_fresh_calls(calls):
    """Whatever the moment table holds when a call comes, the call gives
    the bits it gives with the table emptied first.  I_n is at u = 1."""
    for name, n, u, cfg in calls:
        warm = _CALLS[name](n, u, cfg)
        quad._moment_table.cache_clear()
        assert _bits(warm) == _bits(_CALLS[name](n, u, cfg)), (name, n, u, cfg)


def test_a_table_at_one_u_integrates_each_moment_row_once(monkeypatch):
    """n = 0..12 at one u asks the engine for each power p once, in order;
    a call at a new u replaces the table."""
    passes = []
    refine = quad._refine

    def recorded(sample, nodes, cfg):
        results = refine(sample, nodes, cfg)
        passes.append(len(results))
        return results

    monkeypatch.setattr(quad, "_refine", recorded)
    quad._moment_table.cache_clear()
    kernel = core._hasse_tail_kernel(core._J_MAX)
    for n in range(13):
        gamma_hasse(n, 0.45)
        assert passes == [1] * (n + 1)
        assert sorted(quad._moment_table(kernel, 0.45, None)) == list(range(n + 1))

    gamma_hasse(5, 0.45)  # rows 0..5 are in the table: no pass
    gamma_hasse(3, 1.6)
    assert passes[13:] == [4]
    assert sorted(quad._moment_table(kernel, 1.6, None)) == [0, 1, 2, 3]
    assert quad._moment_table.cache_info().currsize == 1


def test_repeated_table_passes_do_not_grow_memory():
    """After a warm-up, 20 passes of n = 0..12 at 8 new u each grow the
    traced memory by less than 64 KB: the table holds one u's rows, not one
    set per u seen.  The Bell-family route shares the table with Hasse and
    runs much faster under tracemalloc, which slows mpmath's small
    allocations ~30-fold."""

    def table_pass(p):
        for i in range(8):
            for n in range(13):
                gamma_bell_family(n, 0.1 + 0.05 * (8 * p + i))

    table_pass(0)
    tracemalloc.start()
    try:
        table_pass(1)
        before = tracemalloc.get_traced_memory()[0]
        for p in range(2, 22):
            table_pass(p)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown
