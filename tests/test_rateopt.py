"""Rate optimizers against the brute-force grid oracle.

The gradient is checked against central finite differences of the
service MGF it claims to differentiate; the analytic optimizers and
grid_argmax_rate's Brent-refined grid are checked against
grid_argmax_reference, a plain grid with one parabolic step that knows
nothing about any of them.
"""

import itertools
import math
import random
import re
import sys
import types
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import GRID_ALPHA, GRID_N, GRID_P_T, miso_cfg_for_kappa
from irsec.channel import LinkConfig, miso_snr_dist, siso_snr_dist
from irsec import eccore, rateopt
from irsec.eccore import LN2, _fixed_rate, get_scenario, mean_service, on_off_probs
from irsec.paper import (
    DescentSettings,
    NonConvergenceError,
    optimize_rate_miso_closed,
    optimize_rate_siso,
    siso_ec_gradient,
)
from irsec.rateopt import RateSolution, _rate_grid, grid_argmax_rate, solve_rate_miso_exact
from reference_samplers import grid_argmax_exhaustive, grid_argmax_reference

CRIT = DescentSettings(r0=1.0, step=0.5, conv_tol=1e-3)


def test_descent_settings_resolve_off_bandwidth():
    assert DescentSettings().resolved(2.0) == (2.0, 0.1, 2e-8)
    assert DescentSettings(r0=0.3, step=0.01, conv_tol=1e-4).resolved(5.0) == (0.3, 0.01, 1e-4)


def test_descent_settings_validation():
    with pytest.raises(ValueError):
        DescentSettings(step=0.0)
    with pytest.raises(ValueError):
        DescentSettings(conv_tol=-1e-3)
    with pytest.raises(ValueError):
        DescentSettings(max_iters=0)


def test_rate_solution_validation():
    with pytest.raises(ValueError):
        RateSolution(r_star=-1.0, ec_at_r_star=0.0, iterations=1, method="grid")
    with pytest.raises(ValueError):
        RateSolution(r_star=1.0, ec_at_r_star=-0.1, iterations=1, method="grid")
    with pytest.raises(ValueError):
        RateSolution(r_star=1.0, ec_at_r_star=0.1, iterations=1, method="newton")


def _service_mgf(cfg, alpha, rate):
    p_on, p_off = on_off_probs(siso_snr_dist(cfg), rate, cfg.bandwidth)
    return p_off + p_on * math.exp(-alpha * rate * cfg.slot)


@pytest.mark.parametrize("alpha,rate", [(0.1, 1.0), (10.0, 0.5), (1.0, 1.35)])
def test_gradient_matches_finite_difference(cfg_siso, alpha, rate):
    h = 1e-6 * rate
    fd = (_service_mgf(cfg_siso, alpha, rate + h)
          - _service_mgf(cfg_siso, alpha, rate - h)) / (2.0 * h)
    assert siso_ec_gradient(cfg_siso, alpha, rate) == pytest.approx(fd, rel=1e-6)


def test_gradient_straddles_optimum(cfg_siso):
    # the MGF is decreasing below the optimal rate and increasing above
    assert siso_ec_gradient(cfg_siso, 0.1, 1.0) < 0.0
    assert siso_ec_gradient(cfg_siso, 0.1, 1.6) > 0.0


def test_gradient_tail_and_domain(cfg_siso):
    assert siso_ec_gradient(cfg_siso, 0.1, 50.0) == 0.0
    assert siso_ec_gradient(cfg_siso, 0.1, 2000.0) == 0.0
    with pytest.raises(ValueError):
        siso_ec_gradient(cfg_siso, 0.1, 0.0)


@pytest.mark.parametrize("rate", [1e-17, 1e-300])
def test_gradient_is_finite_at_tiny_rates(cfg_siso, rate):
    # 2^(r/B) - 1 rounds to 0 below r ~ 1e-16 B; its expm1 does not
    assert math.isfinite(siso_ec_gradient(cfg_siso, 0.1, rate))


@pytest.mark.parametrize("rate", [1e-100, 1e-200])
def test_gradient_keeps_its_limit_at_tiny_rates(cfg_siso, rate):
    """As the rate falls to 0, p_on -> 1 and the gradient -> -alpha slot.
    dp_on grows without bound there, so dp_on decay - dp_on cancelled to
    0.0; dp_on expm1(-alpha rate slot) keeps the limit."""
    assert siso_ec_gradient(cfg_siso, 0.1, rate) == pytest.approx(-0.1, rel=1e-12)


def test_descent_climbs_from_a_tiny_start(cfg_siso):
    """From r0 = 1e-300 the descent reaches the optimum of the default
    start (in 515 steps here) instead of stopping where it began."""
    sol = optimize_rate_siso(cfg_siso, 0.1, DescentSettings(r0=1e-300))
    assert sol.iterations > 1
    assert sol.r_star == pytest.approx(optimize_rate_siso(cfg_siso, 0.1).r_star, abs=1e-7)
    assert sol.r_star == pytest.approx(1.27829, abs=1e-5)


def test_gradient_is_finite_where_alpha_slot_overflows():
    # inf * 0 in the decay terms would make the gradient NaN
    assert math.isfinite(siso_ec_gradient(LinkConfig(slot=1e200), 1e200, 1.0))


def test_descent_reference_budget(cfg_siso):
    sol = optimize_rate_siso(cfg_siso, 0.1, CRIT)
    oracle = grid_argmax_reference(cfg_siso, 0.1, "siso_nocsi", 2.5, 1000)
    assert sol.method == "gradient_descent"
    assert sol.r_star == pytest.approx(oracle.r_star, abs=5e-3)
    assert sol.ec_at_r_star == pytest.approx(oracle.ec_at_r_star, abs=1e-2)
    assert oracle.ec_at_r_star == pytest.approx(1.2075111288102630, rel=1e-8)
    assert oracle.r_star == pytest.approx(1.2782898, abs=2e-3)
    # first-order stationarity at the step size's resolution
    assert abs(siso_ec_gradient(cfg_siso, 0.1, sol.r_star)) < 1e-2


def test_descent_tight_qos_needs_fine_step(cfg_siso):
    """step = 0.5B oscillates at alpha = 10; a 10x finer step with a
    tighter stop lands on the grid optimum."""
    coarse = optimize_rate_siso(cfg_siso, 10.0, CRIT)
    fine = optimize_rate_siso(
        cfg_siso, 10.0, DescentSettings(r0=1.0, step=0.05, conv_tol=1e-6))
    oracle = grid_argmax_reference(cfg_siso, 10.0, "siso_nocsi", 2.5, 1000)
    assert oracle.ec_at_r_star == pytest.approx(0.8857591471710352, rel=1e-7)
    assert fine.r_star == pytest.approx(oracle.r_star, abs=1e-2)
    assert fine.ec_at_r_star == pytest.approx(oracle.ec_at_r_star, rel=1e-4)
    assert fine.ec_at_r_star > coarse.ec_at_r_star


def test_descent_plateau_needs_multi_start(cfg_siso_16):
    """With 16 elements the MGF is flat at the default r0 = B (the on
    probability has underflowed), so single-start descent cannot move;
    it raises naming r0 rather than report the start with zero EC, and
    so does r0 = 0.5 B. Restarting from smaller rates recovers the true
    optimum."""
    for r0 in (1.0, 0.5):
        with pytest.raises(ValueError, match=rf"r0 = {r0!r}: the EC there is 0"):
            optimize_rate_siso(cfg_siso_16, 0.1, DescentSettings(r0=r0))

    fine = DescentSettings(r0=0.02, step=0.05, conv_tol=1e-8)
    best = max(
        (optimize_rate_siso(cfg_siso_16, 0.1, replace(fine, r0=r0))
         for r0 in (0.02, 0.1)),
        key=lambda s: s.ec_at_r_star)
    oracle = grid_argmax_reference(cfg_siso_16, 0.1, "siso_nocsi", 0.3, 1000)
    assert best.r_star == pytest.approx(oracle.r_star, abs=1e-4)
    assert best.ec_at_r_star == pytest.approx(oracle.ec_at_r_star, rel=1e-8)
    assert oracle.ec_at_r_star == pytest.approx(0.03835292574957367, rel=1e-8)


def test_descent_rejects_a_dead_start():
    """A start whose gradient is exactly 0 and whose EC is 0 raises, and
    so does one whose gradient is too small to move the rate."""
    for cfg in (LinkConfig(p_t=1e-5), LinkConfig(n_elems=16)):
        with pytest.raises(ValueError, match=r"^descent stalls at r0 = 1\.0"):
            optimize_rate_siso(cfg, 0.1)
    assert siso_ec_gradient(LinkConfig(p_t=1e-5), 0.1, 1.0) == 0.0


def test_descent_nonconvergence_carries_last_rate(cfg_siso):
    with pytest.raises(NonConvergenceError) as exc:
        optimize_rate_siso(cfg_siso, 0.1, replace(CRIT, max_iters=3))
    assert exc.value.last_rate > 0.0


def test_grid_validation(cfg_siso):
    with pytest.raises(ValueError):
        grid_argmax_rate(cfg_siso, 0.1, "siso_nocsi", 2.0, points=2)
    with pytest.raises(ValueError):
        grid_argmax_rate(cfg_siso, 0.1, "siso_nocsi", 0.0, 1000)
    with pytest.raises(ValueError):
        grid_argmax_rate(cfg_siso, 0.1, "siso_csi", 2.0, 1000)


def test_grid_flat_budget_returns_smallest_rate(cfg_siso):
    dead = replace(cfg_siso, p_t=1e-300)
    sol = grid_argmax_rate(dead, 0.1, "siso_nocsi", 2.0, points=10)
    assert sol.r_star == pytest.approx(0.2, rel=1e-12)
    assert sol.ec_at_r_star == 0.0


@pytest.mark.parametrize("alpha", [0.1, 10.0])
def test_coarse_grid_reaches_reference_peak(cfg_siso, alpha):
    sol = grid_argmax_rate(cfg_siso, alpha, "siso_nocsi", 2.5, 24)
    oracle = grid_argmax_reference(cfg_siso, alpha, "siso_nocsi", 2.5, 1000)
    assert sol.method == "grid"
    assert 24 < sol.iterations <= 100
    assert sol.r_star == pytest.approx(oracle.r_star, abs=2.5 / 1000)
    assert sol.ec_at_r_star >= oracle.ec_at_r_star * (1.0 - 1e-12)


def test_bracket_validation_and_dead_budget(cfg_siso):
    # the 24-point bracket the single-antenna optimizer runs
    with pytest.raises(ValueError):
        grid_argmax_rate(cfg_siso, 0.1, "siso_nocsi", 0.0, 24)
    dead = replace(cfg_siso, p_t=1e-300)
    assert grid_argmax_rate(dead, 0.1, "siso_nocsi", 2.0, 24).ec_at_r_star == 0.0


@pytest.mark.parametrize("points", [3, 24, 1000])
@settings(max_examples=100, deadline=None)
@given(log_r_max=st.floats(-12.0, 4.0))
def test_rate_grid_is_linspace(points, log_r_max):
    r_max = 10.0 ** log_r_max
    want = np.linspace(r_max / points, r_max, points)
    assert [r.hex() for r in _rate_grid(r_max, points)] == [float(r).hex() for r in want]


def test_rate_search_holds_no_numpy():
    """The search runs on floats: no per-evaluation array round trips."""
    assert not [name for name, value in vars(rateopt).items()
                if isinstance(value, types.ModuleType) and value.__name__.startswith("numpy")]


# (scenario, N, p_t, alpha, r_max) -> (r_star, ec_at_r_star,
# iterations) of the 24-point search, frozen from its numpy version; the
# single-antenna r_max is auto_rate's span, the beamformed one twice the
# stationarity root
GRID_PINS = [
    (("siso_nocsi", 1, 1e-9, 1e-6, "0x1.e22a4b76202e6p-31"),
     ("0x1.1c8174a8c74aep-31", "0x1.661a8e8bae1d6p-33", 33)),
    (("siso_nocsi", 16, 1e-3, 0.1, "0x1.1f8bc4350409fp-3"),
     ("0x1.aa160b1909531p-5", "0x1.3a2fea399c589p-5", 33)),
    (("siso_nocsi", 100, 0.1, 10.0, "0x1.e44ec19080a47p+3"),
     ("0x1.0c49e6fee75acp+2", "0x1.088ea6b6e3c3fp+2", 34)),
    (("siso_nocsi", 2000, 1e3, 1e3, "0x1.d7b9660e69f7ep+5"),
     ("0x1.a364de68a9542p+4", "0x1.a364de68a9542p+4", 57)),
    (("miso_nocsi", 100, 1e-5, 1.0, "0x1.cbb5551aa3bb8p-12"),
     ("0x1.cbb55566fcfc2p-13", "0x1.5246190dc5f9cp-14", 33)),
]


@pytest.mark.parametrize("cell, pinned", GRID_PINS)
def test_grid_search_pinned_at_design_cells(cell, pinned):
    scenario, n, p_t, alpha, r_max = cell
    cfg = LinkConfig(n_elems=n, p_t=p_t, n_tx=10 if scenario == "miso_nocsi" else 1)
    sol = grid_argmax_rate(cfg, alpha, scenario, float.fromhex(r_max), 24)
    assert (sol.r_star.hex(), sol.ec_at_r_star.hex(), sol.iterations) == pinned



def _design_cells(scenario):
    """(cfg, alpha, r_max) of every design cell, in a shuffled order so
    that a link's solves are interleaved with other links'; r_max is
    auto_rate's span over twice the mean-SNR Shannon rate."""
    cells = []
    for n, p_t in itertools.product(GRID_N, GRID_P_T):
        if scenario == "siso_nocsi":
            cfg = LinkConfig(n_elems=n, p_t=p_t)
            dist = siso_snr_dist(cfg)
            mean_snr = dist.beta * (1.0 + dist.lam)
        else:
            cfg = LinkConfig(n_elems=n, p_t=p_t, n_tx=10)
            mean_snr = 1.0 / miso_snr_dist(cfg).kappa
        r_max = 2.0 * cfg.bandwidth * math.log1p(mean_snr) / LN2
        cells += [(cfg, alpha, r_max) for alpha in GRID_ALPHA]
    random.Random(2023).shuffle(cells)
    return cells


def _bits(sol):
    return sol.r_star.hex(), sol.ec_at_r_star.hex(), sol.iterations, sol.method


@pytest.mark.parametrize("scenario", ["siso_nocsi", "miso_nocsi"])
def test_grid_memo_returns_the_cold_solution_bit_for_bit(scenario):
    """On all 343 design cells of either link (exact kappa), a search on a
    warm grid memo returns the RateSolution of a search from a cleared
    one; each distinct grid misses once (49 single-antenna links; 39
    beamformed laws, since kappa depends on N p_t only) and every other
    solve hits. Its EC is the full fixed-rate EC at r_star, bit for bit."""
    memo = rateopt._grid_on_off
    cells = _design_cells(scenario)
    grids = {(get_scenario(scenario).law(cfg), cfg.bandwidth, r_max) for cfg, _, r_max in cells}
    assert len(grids) == (49 if scenario == "siso_nocsi" else 39)
    cold = []
    for cfg, alpha, r_max in cells:
        memo.cache_clear()
        cold.append(grid_argmax_rate(cfg, alpha, scenario, r_max, 24))
    memo.cache_clear()
    warm = [grid_argmax_rate(cfg, alpha, scenario, r_max, 24) for cfg, alpha, r_max in cells]
    info = memo.cache_info()
    assert (info.hits, info.misses) == (343 - len(grids), len(grids))
    assert [_bits(s) for s in warm] == [_bits(s) for s in cold]
    for (cfg, alpha, _), sol in zip(cells, warm):
        law = get_scenario(scenario).law(cfg)
        ec = _fixed_rate(law, alpha, sol.r_star, cfg.bandwidth, cfg.slot)[3]
        assert ec.hex() == sol.ec_at_r_star.hex()


def test_grid_memo_is_keyed_by_law_bandwidth_span_and_points(cfg_siso):
    """A search at another exponent or slot shares the link's grid; one at
    another law, bandwidth, r_max or point count does not."""
    memo = rateopt._grid_on_off
    memo.cache_clear()
    grid_argmax_rate(cfg_siso, 0.1, "siso_nocsi", 2.5, 24)
    grid_argmax_rate(cfg_siso, 10.0, "siso_nocsi", 2.5, 24)
    shared = grid_argmax_rate(replace(cfg_siso, slot=3.0), 0.1, "siso_nocsi", 2.5, 24)
    assert memo.cache_info()[:2] == (2, 1)  # hits, misses
    others = [(replace(cfg_siso, p_t=2e-3), 2.5, 24), (replace(cfg_siso, bandwidth=2.0), 2.5, 24),
              (cfg_siso, math.nextafter(2.5, 3.0), 24), (cfg_siso, 2.5, 25)]
    for cfg, r_max, points in others:
        grid_argmax_rate(cfg, 0.1, "siso_nocsi", r_max, points)
    assert memo.cache_info()[:2] == (2, 1 + len(others))
    memo.cache_clear()
    assert _bits(grid_argmax_rate(replace(cfg_siso, slot=3.0), 0.1, "siso_nocsi", 2.5, 24)) \
        == _bits(shared)


def test_grid_memo_calls_on_off_probs_at_the_grid_once_per_link(cfg_siso, monkeypatch):
    """The first search of a link calls on_off_probs at every grid point
    and Brent evaluation; the next, at another exponent, in Brent's only."""
    calls = []
    on_off_probs = eccore.on_off_probs

    def counted(*args):
        calls.append(args)
        return on_off_probs(*args)

    monkeypatch.setattr(eccore, "on_off_probs", counted)
    rateopt._grid_on_off.cache_clear()
    first = grid_argmax_rate(cfg_siso, 0.1, "siso_nocsi", 2.5, 24)
    assert len(calls) == first.iterations
    del calls[:]
    second = grid_argmax_rate(cfg_siso, 10.0, "siso_nocsi", 2.5, 24)
    assert 0 < len(calls) == second.iterations - 24


def test_grid_memo_keeps_no_failed_grid(cfg_siso, monkeypatch):
    """A grid whose on/off step raises is not kept: the next search
    computes it again."""
    memo = rateopt._grid_on_off
    memo.cache_clear()

    def broken(*args):
        raise ZeroDivisionError("broken law")

    with monkeypatch.context() as m:
        m.setattr(eccore, "on_off_probs", broken)
        with pytest.raises(ZeroDivisionError):
            grid_argmax_rate(cfg_siso, 0.1, "siso_nocsi", 2.5, 24)
    assert memo.cache_info().currsize == 0
    sol = grid_argmax_rate(cfg_siso, 0.1, "siso_nocsi", 2.5, 24)
    assert sol.ec_at_r_star > 0.0
    assert memo.cache_info()[:2] == (0, 2)


def test_grid_memo_is_bounded(cfg_siso):
    """The memo keeps the last _GRID_MEMO_LINKS grids and no more."""
    memo = rateopt._grid_on_off
    memo.cache_clear()
    for k in range(rateopt._GRID_MEMO_LINKS + 10):
        grid_argmax_rate(cfg_siso, 0.1, "siso_nocsi", 2.0 + k / 64.0, 24)
    info = memo.cache_info()
    assert info.maxsize == rateopt._GRID_MEMO_LINKS
    assert info.currsize == rateopt._GRID_MEMO_LINKS


def _outcome(search, cfg, alpha, scenario, r_max):
    """The bits of a search's RateSolution, or the type and message of
    the error it raises."""
    try:
        return _bits(search(cfg, alpha, scenario, r_max, 24))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("scenario", ["siso_nocsi", "miso_nocsi"])
def test_pruned_grid_matches_the_exhaustive_pass_on_the_design_grid(scenario, monkeypatch):
    """Skipping the on/off formula where a grid point's mean service is
    below the best EC so far returns the RateSolution of applying it at
    every point, on all 343 design cells of either link, while the
    bound does rule points out."""
    calls = []
    kernel = rateopt._on_off_kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    # the exhaustive pass calls eccore's formula, not rateopt's name for it
    monkeypatch.setattr(rateopt, "_on_off_kernel", counted)
    for cfg, alpha, r_max in _design_cells(scenario):
        want = _bits(grid_argmax_exhaustive(cfg, alpha, scenario, r_max, 24))
        assert _bits(grid_argmax_rate(cfg, alpha, scenario, r_max, 24)) == want, (cfg, alpha)
    assert len(calls) < 343 * 24


@settings(max_examples=300, deadline=None)
@given(
    beamformed=st.booleans(),
    n=st.integers(1, 20000),
    log_p_t=st.floats(-9.0, 3.0),
    log_bandwidth=st.floats(-300.0, 300.0),
    log_slot=st.floats(-300.0, 300.0),
    log_alpha=st.floats(-323.0, 308.0),
    log_r_max=st.floats(-300.0, 300.0),
)
# the on/off formula's named overflow ValueError, on either link
@example(beamformed=False, n=10000, log_p_t=0.0, log_bandwidth=192.0, log_slot=232.0,
         log_alpha=144.0, log_r_max=math.log10(3e185))
@example(beamformed=True, n=100, log_p_t=-3.0, log_bandwidth=300.0, log_slot=100.0,
         log_alpha=-320.0, log_r_max=300.0)
def test_pruned_grid_matches_the_exhaustive_pass(beamformed, n, log_p_t, log_bandwidth,
                                                 log_slot, log_alpha, log_r_max):
    """Over budgets, bandwidths, slots, exponents and spans far beyond
    the design grid, the pruned search returns the exhaustive pass's
    RateSolution bit for bit, or raises its error, such as the on/off
    formula's "overflows a double"."""
    try:
        cfg = LinkConfig(n_elems=n, p_t=10.0 ** log_p_t, n_tx=4 if beamformed else 1,
                         bandwidth=10.0 ** log_bandwidth, slot=10.0 ** log_slot)
        scenario = "miso_nocsi" if beamformed else "siso_nocsi"
        get_scenario(scenario).law(cfg)
    except ValueError:
        assume(False)
    alpha, r_max = 10.0 ** log_alpha, 10.0 ** log_r_max
    assume(alpha > 0.0)
    want = _outcome(grid_argmax_exhaustive, cfg, alpha, scenario, r_max)
    assert _outcome(grid_argmax_rate, cfg, alpha, scenario, r_max) == want


def test_pruned_grid_raises_the_named_overflow():
    """The explicit examples above do reach the on/off formula's error."""
    for scenario, cfg, alpha, r_max in (
            ("siso_nocsi", LinkConfig(n_elems=10000, p_t=1.0, bandwidth=1e192, slot=1e232),
             1e144, 10.0 ** math.log10(3e185)),
            ("miso_nocsi", LinkConfig(n_elems=100, n_tx=4, bandwidth=1e300, slot=1e100),
             1e-320, 1e300)):
        with pytest.raises(ValueError, match="the fixed-rate EC overflows a double"):
            grid_argmax_rate(cfg, alpha, scenario, r_max, 24)


def test_grid_optimum_decreases_with_qos(cfg_siso):
    ecs = [grid_argmax_rate(cfg_siso, a, "siso_nocsi", 2.5, 1000).ec_at_r_star
           for a in (0.1, 10.0, 100.0)]
    assert ecs[0] > ecs[1] > ecs[2] > 0.0


def test_miso_root_reference_points():
    """Frozen roots at rates 0.5 and 0.005."""
    mk = miso_cfg_for_kappa(0.5)
    lo = solve_rate_miso_exact(mk, 0.1)
    assert lo.method == "root_find"
    assert lo.r_star == pytest.approx(1.19048707671, rel=1e-8)
    assert lo.ec_at_r_star == pytest.approx(0.6093217078, rel=1e-8)
    hi = solve_rate_miso_exact(mk, 10.0)
    assert hi.r_star == pytest.approx(0.318386428868, rel=1e-8)
    assert hi.ec_at_r_star == pytest.approx(0.1878864752, rel=1e-8)
    assert lo.r_star > hi.r_star

    wide = solve_rate_miso_exact(miso_cfg_for_kappa(0.005), 0.1)
    assert wide.r_star == pytest.approx(5.349998487, rel=1e-8)
    assert wide.ec_at_r_star == pytest.approx(4.14892246, rel=1e-8)


def test_miso_root_satisfies_stationarity():
    mk = miso_cfg_for_kappa(0.5)
    kappa = miso_snr_dist(mk).kappa
    for alpha in (0.1, 1.0, 10.0):
        r = solve_rate_miso_exact(mk, alpha).r_star
        lhs = LN2 * r + math.log(math.expm1(alpha * r))
        rhs = math.log(alpha / (kappa * LN2))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_miso_root_is_local_max():
    mk = miso_cfg_for_kappa(0.5)
    from irsec.eccore import ec_miso_nocsi

    sol = solve_rate_miso_exact(mk, 0.1)
    for dr in (-0.05, 0.05):
        worse = ec_miso_nocsi(mk, 0.1, sol.r_star + dr).ec_bits_per_slot
        assert worse < sol.ec_at_r_star


def test_miso_root_matches_grid():
    mk = miso_cfg_for_kappa(0.5)
    root = solve_rate_miso_exact(mk, 0.1)
    grid = grid_argmax_reference(mk, 0.1, "miso_nocsi", 2.5, 1000)
    assert abs(root.r_star - grid.r_star) <= 2.5 / 1000
    assert root.ec_at_r_star == pytest.approx(grid.ec_at_r_star, rel=1e-9)


def test_miso_grid_honours_kappa_mode():
    # the root under the paper's closed-form kappa is the closed-law grid's
    # optimum, far below the exact law's
    cfg = LinkConfig(n_tx=10)
    root = solve_rate_miso_exact(cfg, 0.1, kappa_mode="closed")
    r_max = 4.0 * root.r_star
    grid = grid_argmax_reference(cfg, 0.1, "miso_nocsi", r_max, 1000, kappa_mode="closed")
    assert abs(grid.r_star - root.r_star) <= r_max / 1000
    assert grid.ec_at_r_star == pytest.approx(root.ec_at_r_star, rel=1e-6)
    assert solve_rate_miso_exact(cfg, 0.1).r_star > r_max


def test_miso_root_small_alpha_hits_ergodic_argmax():
    # alpha -> 0 turns the problem into maximizing p_on * rate
    mk = miso_cfg_for_kappa(0.5)
    root = solve_rate_miso_exact(mk, 1e-6)
    grid = grid_argmax_reference(mk, 1e-6, "miso_nocsi", 4.0, 4000)
    assert abs(root.r_star - grid.r_star) <= 4.0 / 4000
    # argmax of rate * exp(-kappa (2^r - 1)): r 2^r = 1/(kappa ln2)
    want = brentq(lambda r: r * 2.0 ** r - 1.0 / (0.5 * LN2), 0.0, 4.0, xtol=1e-14)
    assert root.r_star == pytest.approx(want, abs=2e-3)


@pytest.mark.parametrize("field", ["slot", "bandwidth"])
def test_miso_root_answers_at_long_slot_bandwidth(cfg_miso, field):
    """At slot * bandwidth = 1e100 the EC keeps its pinned digits, and at
    1e150, where a bisection from the bandwidth ran out of halvings, the
    root in ln r answers in a few steps."""
    near = solve_rate_miso_exact(replace(cfg_miso, **{field: 1e100}), 0.1)
    assert near.iterations <= 10
    assert near.ec_at_r_star == pytest.approx(2187.191533398882, rel=1e-12)
    far = solve_rate_miso_exact(replace(cfg_miso, **{field: 1e150}), 0.1)
    assert far.iterations <= 10
    assert far.ec_at_r_star == pytest.approx(3334.353869651042, rel=1e-12)


# 40-digit roots of the stationarity equation at the inputs below
_UNDERFLOW_ROOTS = {None: 0.021600492652121214, "bandwidth": 2.1600252177782561e-322,
                    "slot": 0.021600492652121214, "p_t": 7.1228389708514523e-303}


@pytest.mark.parametrize("alpha, field, value", [
    (1e-320, None, None), (1.0, "bandwidth", 1e-320), (1.0, "slot", 1e-320), (1e305, "p_t", 1e3)])
def test_miso_root_underflow_names_the_inputs(cfg_miso, alpha, field, value):
    """A stationarity constant B alpha T / (kappa ln 2) outside the
    positive normal doubles is a ValueError naming bandwidth, alpha, slot
    and kappa for the paper's closed form, not a raw math domain error or
    an infinite rate. The root in ln r never forms that constant: it
    answers within 1e-13 of the 40-digit root (to the subnormal spacing),
    with an EC no larger than the mean service."""
    cfg = cfg_miso if field is None else replace(cfg_miso, **{field: value})
    kappa = miso_snr_dist(cfg).kappa
    names = re.escape(f"at bandwidth = {cfg.bandwidth!r}, alpha = {float(alpha)!r}, "
                      f"slot = {cfg.slot!r}, kappa = {kappa!r}")
    flows = "overflows" if alpha > 1.0 else "underflows"
    with pytest.raises(ValueError, match=rf"\(kappa ln 2\) = .* {flows} a double {names}$"):
        optimize_rate_miso_closed(cfg, alpha)
    sol = solve_rate_miso_exact(cfg, alpha)
    assert sol.r_star == pytest.approx(_UNDERFLOW_ROOTS[field], rel=1e-13, abs=5e-324)
    assert 0.0 < sol.ec_at_r_star <= mean_service(cfg, "miso_nocsi", sol.r_star)


def _mp_stationarity(kappa, alpha, bandwidth, slot):
    """F(s) = A e^s + s + phi(D e^s) - K in 40-digit mpmath, the
    stationarity equation solve_rate_miso_exact solves in s = ln r."""
    ln2 = mpmath.log(2)
    a, d = ln2 / mpmath.mpf(bandwidth), mpmath.mpf(alpha) * mpmath.mpf(slot)
    k = mpmath.log(mpmath.mpf(bandwidth) / (mpmath.mpf(kappa) * ln2))

    def f(s):
        x = d * mpmath.exp(s)
        phi = (mpmath.log(mpmath.expm1(x) / x) if x <= 1
               else x + mpmath.log(-mpmath.expm1(-x)) - mpmath.log(x))
        return a * mpmath.exp(s) + s + phi - k
    return f


_LG = st.floats(-323.0, 308.0)


@settings(max_examples=150, deadline=None)
@given(lg_p_t=_LG, lg_alpha=_LG, lg_bandwidth=_LG, lg_slot=_LG,
       mode=st.sampled_from(["exact", "closed"]))
@example(lg_p_t=-145.0, lg_alpha=0.0, lg_bandwidth=0.0, lg_slot=0.0, mode="exact")
@example(lg_p_t=-3.0, lg_alpha=-320.0, lg_bandwidth=0.0, lg_slot=0.0, mode="exact")
@example(lg_p_t=-3.0, lg_alpha=0.0, lg_bandwidth=0.0, lg_slot=-320.0, mode="exact")
@example(lg_p_t=3.0, lg_alpha=305.0, lg_bandwidth=0.0, lg_slot=0.0, mode="exact")
@example(lg_p_t=-3.0, lg_alpha=-1.0, lg_bandwidth=0.0, lg_slot=150.0, mode="exact")
@example(lg_p_t=-3.0, lg_alpha=-1.0, lg_bandwidth=0.0, lg_slot=100.0, mode="exact")
@example(lg_p_t=305.0, lg_alpha=-320.0, lg_bandwidth=308.0, lg_slot=0.0, mode="exact")
@example(lg_p_t=-103.0, lg_alpha=-319.0, lg_bandwidth=295.0, lg_slot=256.0, mode="exact")
def test_miso_root_answers_or_names_the_inputs(lg_p_t, lg_alpha, lg_bandwidth,
                                               lg_slot, mode):
    """Over the whole positive double range of p_t, alpha, bandwidth and
    slot, the root in ln r either answers, in at most 10 Newton steps,
    with a rate the 40-digit F changes sign across (where it is a normal
    double) and an EC no larger than the mean service, or is a ValueError:
    one naming bandwidth, alpha, slot and kappa only where the root lies
    past the largest double, or one naming alpha, the root and slot only
    where the root's rate * slot, and with it the EC, is past it."""
    alpha = 10.0 ** lg_alpha
    try:
        cfg = LinkConfig(n_tx=4, p_t=10.0 ** lg_p_t, bandwidth=10.0 ** lg_bandwidth,
                         slot=10.0 ** lg_slot)
        kappa = miso_snr_dist(cfg, mode=mode).kappa
    except ValueError:
        assume(False)
    with mpmath.workdps(40):
        f = _mp_stationarity(kappa, alpha, cfg.bandwidth, cfg.slot)
        past_max = f(mpmath.log(sys.float_info.max)) < 0
        try:
            sol = solve_rate_miso_exact(cfg, alpha, kappa_mode=mode)
        except ValueError as exc:
            if past_max:
                assert f"at bandwidth = {cfg.bandwidth!r}, alpha = {alpha!r}, slot = " \
                       f"{cfg.slot!r}, kappa = {kappa!r}" in str(exc)
                return
            named = re.search(rf"at alpha = {re.escape(repr(alpha))}, rate = (\S+), "
                              rf"slot = {re.escape(repr(cfg.slot))}$", str(exc))
            assert named, exc
            r = mpmath.mpf(float(named.group(1)))
            assert r * cfg.slot > sys.float_info.max
            assert f(mpmath.log(r * (1 - 1e-12))) < 0 < f(mpmath.log(r * (1 + 1e-12)))
            return
        assert math.isfinite(sol.r_star) and sol.r_star >= 0.0
        assert sol.iterations <= 10
        mean = mean_service(cfg, "miso_nocsi", sol.r_star, kappa_mode=mode)
        assert sol.ec_at_r_star <= mean * (1.0 + 1e-12)
        if sol.r_star >= sys.float_info.min:
            r = mpmath.mpf(sol.r_star)
            assert f(mpmath.log(r * (1 - 1e-12))) < 0 < f(mpmath.log(r * (1 + 1e-12)))


def test_miso_closed_form_inside_regime():
    mk = miso_cfg_for_kappa(0.5)
    closed = optimize_rate_miso_closed(mk, 10.0)
    root = solve_rate_miso_exact(mk, 10.0)
    assert closed.method == "closed_form"
    assert closed.closed_form_valid
    assert closed.iterations == 0
    assert abs(closed.r_star - root.r_star) / root.r_star <= 0.20
    assert closed.ec_at_r_star == pytest.approx(root.ec_at_r_star, rel=1e-3)


def test_miso_closed_form_clamps_outside_regime():
    # small alpha*B*T/kappa makes the linearized root negative
    mk = miso_cfg_for_kappa(0.5)
    with pytest.warns(UserWarning, match="validity"):
        closed = optimize_rate_miso_closed(mk, 0.1)
    assert closed.r_star == 0.0
    assert not closed.closed_form_valid
    assert closed.ec_at_r_star == 0.0
