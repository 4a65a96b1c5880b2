"""Effective-capacity closed forms against frozen quadrature anchors.

Reference values were produced by independent oracles (adaptive
quadrature of the service MGF, 150-digit series evaluation of the
log-moment integrals) and frozen here as decimal literals.
"""

import itertools
import math
import random
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import GRID_ALPHA, GRID_N, GRID_P_T, miso_cfg_for_kappa
from irsec import channel, eccore, mcoracle, paper
from irsec.channel import Exponential, LinkConfig, miso_snr_dist, siso_snr_dist
from irsec.eccore import (
    SCENARIOS,
    EcResult,
    _fixed_rate,
    _on_off_kernel,
    alpha_value,
    ec_miso_csi,
    ec_miso_nocsi,
    ec_siso_csi,
    ec_siso_nocsi,
    mean_service,
    miso_csi_moments,
    on_off_probs,
    snr_threshold,
)
from irsec.rateopt import grid_argmax_rate
from irsec.sweeps import auto_rate
from reference_samplers import ec_on_off_spectral, ln_mgf_reference, simulate_service

LN2 = math.log(2.0)

# (kappa, E[ln(1+X)], E[ln^2(1+X)], rel tol on the second moment); the
# second-moment series loses digits to cancellation near the series /
# tail-expansion switch at kappa = 14, hence the per-row tolerance
SQLOG_ANCHORS = (
    (0.1, 2.0146425447084516791, 4.8896046065975921865, 1e-11),
    (0.5, 0.92291063248373046883, 1.1813918634288581621, 1e-11),
    (2.0, 0.3613286168882225847, 0.21080734378220112491, 1e-11),
    (14.0, 0.066932518183439629181, 0.0084547989659877615427, 2e-4),
    (20.0, 0.047718545495960841699, 0.0043627826576797238211, 2e-6),
    (50.0, 0.019615109930114870365, 0.00075523113049294294295, 2e-6),
    (65.797362673929057, 0.014973912016589875839, 0.00044200478772964348606, 2e-6),
)


def test_qos_exponent():
    assert alpha_value(2.0) == 2.0
    with pytest.raises(ValueError):
        alpha_value(-1.0)
    with pytest.raises(ValueError, match="alpha must be finite"):
        alpha_value(math.inf)
    for bad in (0.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be strictly positive"):
            alpha_value(bad)


def test_ec_result_scenario_gate():
    with pytest.raises(ValueError):
        EcResult(ec_bits_per_slot=1.0, scenario="mimo", diagnostics={})


def test_siso_csi_exact_anchors(cfg_siso):
    """Frozen adaptive-quadrature values at the reference budget."""
    lo = ec_siso_csi(cfg_siso, 0.1)
    hi = ec_siso_csi(cfg_siso, 10.0)
    assert lo.ec_bits_per_slot == pytest.approx(1.5207157856381238, rel=1e-12)
    assert hi.ec_bits_per_slot == pytest.approx(1.4086426199191323, rel=1e-12)
    assert lo.ec_bits_per_slot > hi.ec_bits_per_slot
    assert lo.scenario == "siso_csi"
    assert lo.diagnostics["u"] == pytest.approx(0.1 / LN2, rel=1e-15)


def test_siso_csi_relaxed_diagnostics(cfg_siso):
    """The interpretable form undershoots at the reference budget (its
    SNR >> 1 premise fails there: P(SNR < 9) = 1) and says so."""
    res = ec_siso_csi(cfg_siso, 0.1)
    relaxed = paper.siso_csi_relaxed(cfg_siso, 0.1)
    assert relaxed["low_snr_prob"] == pytest.approx(1.0, abs=1e-12)
    assert relaxed["ec_relaxed"] == pytest.approx(0.89521240794172241, rel=1e-12)
    adds = relaxed["relaxed_addends"]
    assert math.fsum(adds.values()) == pytest.approx(relaxed["ln_mgf_relaxed"], abs=1e-12)
    assert relaxed["ec_relaxed"] < res.ec_bits_per_slot
    assert not res.diagnostics.keys() & relaxed.keys()  # the EC's diagnostics hold none


def test_siso_csi_relaxed_matches_exact_at_high_snr(cfg_siso):
    """At 1 W the dropped +1 inside the log costs < 1e-3 relative."""
    hot = replace(cfg_siso, p_t=1.0)
    exact = ec_siso_csi(hot, 0.1).ec_bits_per_slot
    relaxed = paper.siso_csi_relaxed(hot, 0.1)["ec_relaxed"]
    assert relaxed == pytest.approx(exact, rel=1e-3)
    assert relaxed <= exact  # log relaxation only inflates the MGF


def test_siso_csi_relaxed_divergence_gate(cfg_siso):
    # alpha*B*T/ln2 >= 1/2 has no finite relaxed moment
    relaxed = paper.siso_csi_relaxed(cfg_siso, 0.4)
    assert math.isnan(relaxed["ec_relaxed"])
    assert "relaxed_addends" not in relaxed
    assert ec_siso_csi(cfg_siso, 0.4).ec_bits_per_slot > 0.0


def test_siso_csi_unknown_method(cfg_siso):
    # one route: the quadrature; the closed form is a diagnostic only
    for method in ("relaxed", "exact", "fast"):
        with pytest.raises(TypeError):
            ec_siso_csi(cfg_siso, 0.1, method=method)


# Design cells (N, p_t, alpha) for the 30-digit check of the trapezoid
# rule, with the route each takes: the reference link; the complement
# route at tiny u and at the low-SNR cells whose EC used to exceed the
# mean; the direct route at high SNR; cells with two peaks; cells whose
# direct-route MGF used to underflow; and the cells that take the most
# nodes on each route.
MPMATH_CELLS = (
    (100, 1e-3, 0.1, "complement"),
    (100, 1e-3, 10.0, "direct"),
    (20000, 10.0, 1e-6, "complement"),
    (1, 1e-9, 1.0, "complement"),
    (16, 1e-9, 1e-3, "complement"),
    (2000, 1e-9, 1e-3, "complement"),
    (1, 1e3, 0.1, "direct"),
    (16, 1e3, 1.0, "direct"),
    (100, 10.0, 10.0, "direct"),
    (2000, 10.0, 100.0, "direct"),
    (2000, 1e-3, 100.0, "direct"),
    (20000, 1e-7, 1e3, "direct"),
    (100, 1e3, 1e3, "direct"),
    (16, 1e3, 1e-6, "complement"),
    (2000, 0.1, 100.0, "direct"),
)


@pytest.mark.parametrize("n,p_t,alpha,route", MPMATH_CELLS)
def test_siso_ln_mgf_matches_mpmath(n, p_t, alpha, route):
    """ln E[(1+SNR)^-u] is within 1e-13 relative of a 30-digit quadrature
    on each route, at one and two peaks, and where it used to underflow."""
    cfg = LinkConfig(n_elems=n, p_t=p_t)
    dist = siso_snr_dist(cfg)
    u = alpha * cfg.bandwidth * cfg.slot / LN2
    got = dist.ln_mgf(u)
    want = ln_mgf_reference(dist.beta, dist.lam, u)
    assert got.route == route
    assert abs(got.value - want) <= 1e-13 * abs(want)


def test_siso_csi_former_underflow_cell_is_finite():
    """At N=2000, p_t=1e-3, alpha=100 the MGF is e^-941, below the
    smallest double; the EC comes out finite, below the mean and on
    the 30-digit value."""
    cfg = LinkConfig(n_elems=2000, p_t=1e-3)
    res = ec_siso_csi(cfg, 100.0)
    dist = siso_snr_dist(cfg)
    want = ln_mgf_reference(dist.beta, dist.lam, res.diagnostics["u"])
    assert res.diagnostics["quad_route"] == "direct"
    assert res.diagnostics["ln_mgf"] < math.log(sys.float_info.min)
    assert abs(res.diagnostics["ln_mgf"] - want) <= 1e-13 * abs(want)
    assert 0.0 < res.ec_bits_per_slot <= mean_service(cfg, "siso_csi")


def _fold_density(t, root_lam):
    # density of |Z| with Z ~ N(sqrt(lam), 1), damped form of both tails
    d = t - root_lam
    return (math.exp(-0.5 * d * d) * (1.0 + math.exp(-2.0 * root_lam * t))
            / math.sqrt(2.0 * math.pi))


_FOLD_WEIGHTS = {
    "complement": lambda beta, u: lambda t: -math.expm1(-u * math.log1p(beta * t * t)),
    "direct": lambda beta, u: lambda t: math.exp(-u * math.log1p(beta * t * t)),
    "log": lambda beta, u: lambda t: math.log1p(beta * t * t),
}

# The folded-normal window [0, sqrt(lam) + _QUAD_SPAN], the relative
# target of its quadrature, and the u below which the MGF is taken
# through its complement 1 - M.
_QUAD_SPAN = 45.0
_QUAD_EPSREL = 1e-11
_SMALL_U = 1e-3


def _fold_quad(weight, beta, u, root_lam):
    """(value, abserr, ier) of scipy's QUADPACK on weight(t) * density(t)
    over the folded-normal window, with break points around the ridge at
    root_lam = sqrt(lam); ier is 0 unless quad returned a message."""
    w = _FOLD_WEIGHTS[weight](beta, u)
    hi = root_lam + _QUAD_SPAN
    pts = [p for p in (max(root_lam - 8.0, 0.0), root_lam, root_lam + 12.0) if 0.0 < p < hi]
    out = quad(lambda t: w(t) * _fold_density(t, root_lam), 0.0, hi, points=pts,
               limit=200, epsabs=0.0, epsrel=_QUAD_EPSREL, full_output=1)
    return out[0], out[1], int(len(out) > 3)


def test_trapezoid_rule_is_within_the_quadpack_abserr_on_the_design_grid():
    """On every single-antenna cell of the design grid, the trapezoid
    rule's integral lies within the abserr of the folded-normal QUADPACK
    route, on the route that one takes: 1 - M below its u threshold, M
    above it, and E[ln(1 + SNR)]. That route returns M = 0 where every
    one of its nodes underflows: M is below the smallest double, or its
    mass is a spike at z = 0 narrower than the nodes (N = 100, p_t = 1e3,
    alpha = 1e3 has ln M = -89). There the rule's ln M is finite, and
    test_siso_ln_mgf_matches_mpmath checks cells of both kinds."""
    underflows = 0
    for n, p_t in itertools.product(GRID_N, GRID_P_T):
        cfg = LinkConfig(n_elems=n, p_t=p_t)
        dist = siso_snr_dist(cfg)
        root_lam = math.sqrt(dist.lam)
        value, abserr, ier = _fold_quad("log", dist.beta, 0.0, root_lam)
        assert ier == 0
        assert abs(dist.mean_log().value - value) <= abserr, (n, p_t)
        for alpha in GRID_ALPHA:
            u = alpha * cfg.bandwidth * cfg.slot / LN2
            ln_m = dist.ln_mgf(u).value
            if u < _SMALL_U:
                value, abserr, ier = _fold_quad("complement", dist.beta, u, root_lam)
                got = -math.expm1(ln_m)
            else:
                value, abserr, ier = _fold_quad("direct", dist.beta, u, root_lam)
                got = math.exp(ln_m)
                if value == 0.0:
                    underflows += 1
                    assert -math.inf < ln_m < 0.0, (n, p_t, alpha)
                    continue
            assert ier == 0
            assert abs(got - value) <= abserr, (n, p_t, alpha)
    assert underflows < len(GRID_N) * len(GRID_P_T) * len(GRID_ALPHA) // 10


def test_trapezoid_node_budget_on_the_design_grid():
    """The rule starts at 1/sqrt(2) of the narrowest peak's width, where
    its error is about 2 exp(-4 pi^2), so most design cells stop at the
    first halving: the 343 cells take at most 26,000 nodes in all, where
    a start at one full width takes 33,023."""
    nodes = 0
    for n, p_t in itertools.product(GRID_N, GRID_P_T):
        cfg = LinkConfig(n_elems=n, p_t=p_t)
        dist = siso_snr_dist(cfg)
        for alpha in GRID_ALPHA:
            nodes += dist.ln_mgf(alpha * cfg.bandwidth * cfg.slot / LN2).neval
    assert nodes <= 26_000


# log10 of the QoS exponents the bound properties draw: every positive
# double, with the edges of that range as explicit examples.
_LOG_ALPHA = st.floats(-323.3, 308.25)


def _edge_alphas(**fixed):
    def decorate(test):
        for alpha in (5e-324, 1e-320, 7e307, 1e308, 1.7e308):
            test = example(log_alpha=math.log10(alpha), **fixed)(test)
        return test
    return decorate


def _assert_bounded_or_names_alpha(ec, alpha, mean):
    """ec(alpha) is finite with 0 <= EC <= mean() (1 + 1e-12), or raises
    a ValueError that names alpha."""
    try:
        value = ec(alpha).ec_bits_per_slot
    except ValueError as exc:
        assert f"alpha = {alpha!r}" in str(exc), exc
        return
    assert math.isfinite(value)
    assert 0.0 <= value <= mean() * (1.0 + 1e-12)


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 20000),
    log_p_t=st.floats(-9.0, 3.0),
    log_alpha=_LOG_ALPHA,
)
@_edge_alphas(n=1, log_p_t=-3.0)
@_edge_alphas(n=100, log_p_t=-3.0)
def test_siso_csi_is_bounded_by_mean_service(n, log_p_t, log_alpha):
    """Over the design ranges of the link and every positive double as
    the exponent, the adaptive single-antenna EC is finite and
    0 <= EC <= mean service, to rounding, or a ValueError names alpha."""
    cfg = LinkConfig(n_elems=n, p_t=10.0 ** log_p_t)
    _assert_bounded_or_names_alpha(lambda a: ec_siso_csi(cfg, a), 10.0 ** log_alpha,
                                   lambda: mean_service(cfg, "siso_csi"))


def test_siso_csi_reports_quadrature_health(cfg_siso):
    """Each result names its route, the difference of the rule's last
    two sums (within its 1e-13 relative target) and its evaluations: on
    1 - M for the complement route, on ln M for the direct one, where M
    itself may lie below the smallest double (N = 2000, p_t = 1e-3,
    alpha = 100 has ln M = -941). Where u is subnormal, -ln M / alpha
    has lost bits that the division cannot restore, and the EC is the
    mean service."""
    deep = LinkConfig(n_elems=2000, p_t=1e-3)
    for cfg, alpha, route in ((cfg_siso, 0.1, "complement"), (cfg_siso, 10.0, "direct"),
                              (deep, 100.0, "direct")):
        diag = ec_siso_csi(cfg, alpha).diagnostics
        assert diag["quad_route"] == route
        if route == "complement":
            bound = 1e-13 * -math.expm1(diag["ln_mgf"])
        else:
            bound = 1e-13 * max(1.0, -diag["ln_mgf"])
        assert 0.0 <= diag["quad_abserr"] <= bound
        assert 0 < diag["quad_neval"] < 400
    assert ec_siso_csi(deep, 100.0).diagnostics["quad_abserr"] > 0.0
    for cfg, alpha in itertools.product([LinkConfig(n_elems=1), cfg_siso], [1e-315, 1e-320, 5e-324]):
        res = ec_siso_csi(cfg, alpha)
        assert res.diagnostics["quad_route"] == "mean_service"
        assert res.ec_bits_per_slot == mean_service(cfg, "siso_csi")
    mean = siso_snr_dist(cfg_siso).mean_log()
    assert mean.route == "log"
    assert 0.0 <= mean.abserr <= 1e-13 * mean.value


def test_siso_ln_mgf_rejects_an_exponent_it_cannot_integrate(cfg_siso):
    """u must be a positive finite number; a slot * bandwidth that
    overflows it is a ValueError naming alpha, bandwidth and slot, not a
    walk that never ends."""
    law = siso_snr_dist(cfg_siso)
    for u in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="u must be positive and finite"):
            law.ln_mgf(u)
    with pytest.raises(ValueError, match=r"ln 2 = inf is past .* at alpha = 1\.0, "
                                         r"bandwidth = 1e\+200, slot = 1e\+200$"):
        ec_siso_csi(replace(cfg_siso, slot=1e200, bandwidth=1e200), 1.0)


def test_missed_quadrature_target_warns_with_the_estimate(cfg_siso, monkeypatch):
    """A rule that stops short of its target (here: allowed no step
    halving, so it has one sum and no difference to test) says so,
    naming its estimate, instead of passing silently."""
    full = ec_siso_csi(cfg_siso, 0.1).diagnostics
    monkeypatch.setattr(channel, "_TRAP_HALVINGS", 0)
    with pytest.warns(UserWarning, match=r"after 0 step halvings: estimate = .*, abserr = "):
        short = ec_siso_csi(cfg_siso, 0.1).diagnostics
    assert short["quad_abserr"] > full["quad_abserr"]
    assert short["quad_neval"] < full["quad_neval"]
    with pytest.warns(UserWarning, match=r"ln estimate = "):
        ec_siso_csi(cfg_siso, 10.0)
    with pytest.warns(UserWarning, match=r"log integral .* estimate = "):
        mean_service(cfg_siso, "siso_csi")


@pytest.mark.parametrize("kappa,first,second,tol", SQLOG_ANCHORS)
def test_miso_moment_anchors(kappa, first, second, tol):
    mu, eta, var = miso_csi_moments(kappa)
    assert mu == pytest.approx(first / LN2, rel=1e-12)
    assert eta == pytest.approx(second / (LN2 * LN2), rel=tol)
    assert var == pytest.approx(eta - mu * mu, rel=1e-12)


def test_miso_moments_scale_with_slot_and_bandwidth():
    mu1, eta1, var1 = miso_csi_moments(0.5)
    mu2, eta2, var2 = miso_csi_moments(0.5, bandwidth=3.0, slot=2.0)
    assert mu2 == pytest.approx(6.0 * mu1, rel=1e-14)
    assert eta2 == pytest.approx(36.0 * eta1, rel=1e-14)
    assert var2 == pytest.approx(36.0 * var1, rel=1e-13)


@pytest.mark.parametrize("mode", ["exact", "closed"])
def test_miso_moment_memo_keeps_every_bit_on_the_design_grid(mode):
    """Over the 343 design cells in shuffled order, the beamformed CSI
    branch's moments and EC from a warm memo are those of a cleared one;
    each (kappa, bandwidth, slot) misses once."""
    memo = eccore._service_moments
    cells = [(LinkConfig(n_elems=n, p_t=p_t, n_tx=10), alpha)
             for n, p_t, alpha in itertools.product(GRID_N, GRID_P_T, GRID_ALPHA)]
    random.Random(28).shuffle(cells)

    def bits(cfg, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the clamp to 0
            res = ec_miso_csi(cfg, alpha, kappa_mode=mode)
        return [res.ec_bits_per_slot.hex()] + [res.diagnostics[k].hex()
                                               for k in ("mu", "eta", "sigma2")]

    cold = []
    for cfg, alpha in cells:
        memo.cache_clear()
        cold.append(bits(cfg, alpha))
    memo.cache_clear()
    assert [bits(cfg, alpha) for cfg, alpha in cells] == cold
    links = {(miso_snr_dist(cfg, mode).kappa, cfg.bandwidth, cfg.slot) for cfg, _ in cells}
    info = memo.cache_info()
    assert (info.hits, info.misses) == (343 - len(links), len(links))


def test_miso_moments_validation():
    with pytest.raises(ValueError):
        miso_csi_moments(0.0)
    with pytest.raises(ValueError):
        miso_csi_moments(1.0, bandwidth=-1.0)


@pytest.mark.parametrize("field", ["slot", "bandwidth"])
def test_miso_csi_moment_overflow_is_an_error(cfg_miso, field):
    """Once the second moment overflows, the EC would be inf - inf; it is
    an OverflowError naming slot * bandwidth instead."""
    with pytest.raises(OverflowError, match=r"slot \* bandwidth = 1e\+300"):
        ec_miso_csi(replace(cfg_miso, **{field: 1e300}), 0.1)
    # a decade below, the moments are finite and the Gaussian model's
    # negative EC is clamped as before
    with pytest.warns(UserWarning, match="clamping to 0"):
        res = ec_miso_csi(replace(cfg_miso, **{field: 1e153}), 0.1)
    assert res.ec_bits_per_slot == 0.0


def test_miso_csi_reference_point():
    """Gaussian-model EC at the reference budget's exact SNR rate."""
    mu, eta, var = miso_csi_moments(65.797362673929057)
    assert mu == pytest.approx(0.021602788609041872, rel=1e-12)
    assert eta == pytest.approx(0.00091997505463644811, rel=2e-6)
    assert var == pytest.approx(0.00045329457894949884, rel=1e-5)
    assert mu - 0.05 * var == pytest.approx(0.021580123880094397, rel=1e-5)


def test_miso_csi_through_config(cfg_miso):
    """End-to-end with the exact rate of the reference budget."""
    res = ec_miso_csi(cfg_miso, 0.1)
    d = res.diagnostics
    assert d["kappa_mode"] == "exact"
    assert d["kappa"] == pytest.approx(65.797362673929057, rel=1e-12)
    assert res.ec_bits_per_slot == pytest.approx(0.021580123880094397, rel=1e-5)
    assert res.ec_bits_per_slot == d["mu"] - 0.05 * d["sigma2"]


def test_miso_csi_clamps_negative_model():
    cfg = miso_cfg_for_kappa(0.5)
    with pytest.warns(UserWarning, match="clamping"):
        res = ec_miso_csi(cfg, 10.0)
    assert res.ec_bits_per_slot == 0.0
    assert res.diagnostics["ec_raw"] < 0.0


def test_on_off_probs_zero_rate(cfg_siso):
    from irsec.channel import siso_snr_dist

    assert on_off_probs(siso_snr_dist(cfg_siso), 0.0, 1.0) == (1.0, 0.0)
    assert on_off_probs(Exponential(0.5), 0.0, 1.0) == (1.0, 0.0)


def test_on_off_probs_exponential_closed_form():
    p_on, p_off = on_off_probs(Exponential(0.5), 1.0, 1.0)
    assert p_on == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert p_on + p_off == pytest.approx(1.0, abs=1e-15)


def test_on_off_probs_decreasing_in_rate(cfg_siso):
    from irsec.channel import siso_snr_dist

    dist = siso_snr_dist(cfg_siso)
    ps = [on_off_probs(dist, r, 1.0)[0] for r in (0.1, 0.5, 1.0, 1.5, 2.5)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_on_off_probs_huge_rate_saturates():
    # no overflow, just an always-off channel
    assert on_off_probs(Exponential(0.5), 5000.0, 1.0) == (0.0, 1.0)


def test_on_off_probs_validation():
    with pytest.raises(ValueError):
        on_off_probs(Exponential(0.5), -1.0, 1.0)
    with pytest.raises(ValueError):
        on_off_probs(Exponential(0.5), 1.0, 0.0)
    with pytest.raises(ValueError, match="rate must be nonnegative, got nan"):
        on_off_probs(Exponential(0.5), math.nan, 1.0)


@pytest.mark.parametrize("name", ["siso_nocsi", "miso_nocsi"])
def test_infinite_rate_gives_zero_ec(name):
    """No SNR supports an infinite rate: the chain is always off."""
    entry = SCENARIOS[name]
    res = entry.ec(LinkConfig(n_tx=10 if entry.beamformed else 1), 0.1, math.inf)
    assert res.ec_bits_per_slot == 0.0
    assert (res.diagnostics["p_on"], res.diagnostics["p_off"]) == (0.0, 1.0)


def test_ec_on_off_spot_value():
    """Fixed-rate EC at (kappa=0.5, alpha=0.1, r=1, B=T=1)."""
    ec = _fixed_rate(Exponential(0.5), 0.1, 1.0, 1.0, 1.0)[3]
    assert ec == pytest.approx(0.59451772467971217, rel=1e-13)


def test_ec_on_off_degenerate_chains():
    # (p_on, p_off, alpha, rate, slot)
    assert _on_off_kernel(1.0, 0.0, 0.7, 2.0, 1.5)[1] == pytest.approx(3.0, rel=1e-14)
    assert _on_off_kernel(1.0, 0.0, 0.7, 0.0, 1.0)[1] == 0.0
    assert _on_off_kernel(0.0, 1.0, 0.7, 5.0, 1.0)[1] == 0.0


def test_ec_on_off_overflow_names_alpha_rate_and_slot():
    """An EC past the largest double is a ValueError naming alpha, rate
    and slot, both where -ln M / alpha overflows and where the mean
    service rate * slot it takes does."""
    for args in ((0.9, 0.1, 1e-319, 3e65, 1e256), (1.0, 0.0, 10.0, 1e300, 1e10)):
        _, _, alpha, rate, slot = args
        with pytest.raises(ValueError) as exc:
            _on_off_kernel(*args)
        for named in (f"alpha = {alpha!r}", f"rate = {rate!r}", f"slot = {slot!r}"):
            assert named in str(exc.value)
    cfg = LinkConfig(n_tx=4, p_t=1e-103, bandwidth=1e295, slot=1e256)
    with pytest.raises(ValueError, match=r"overflows a double at alpha = 1e-319, rate = "):
        ec_miso_nocsi(cfg, 1e-319, 3e65)


def test_ec_on_off_small_alpha_limit():
    ec = _on_off_kernel(0.8, 0.2, 1e-6, 1.5, 1.0)[1]
    assert ec == pytest.approx(0.8 * 1.5, rel=1e-4)


@settings(max_examples=200, deadline=None)
@given(
    p_on=st.floats(1e-6, 1.0 - 1e-6),
    rate=st.floats(1e-3, 10.0),
    slot=st.floats(0.1, 2.0),
    alpha=st.floats(0.01, 10.0),
)
def test_spectral_route_matches_scalar(p_on, rate, slot, alpha):
    """The 2x2 eigenvalue route is an independent evaluation of the
    same rank-1 chain and must coincide with the scalar form."""
    scalar = _on_off_kernel(p_on, 1.0 - p_on, alpha, rate, slot)[1]
    spectral = ec_on_off_spectral(p_on, 1.0 - p_on, alpha, rate, slot)
    assert spectral == pytest.approx(scalar, rel=1e-9, abs=1e-10)


def test_on_off_ec_has_no_staircase_near_zero_outage():
    """Where p_off is (nearly) 0 and alpha r T is large, 1 - k sits a few
    ulps above 0; EC must follow r instead of stepping above the mean."""
    cfg = LinkConfig(n_elems=20000, p_t=1e3)
    for rate in np.linspace(35.3, 35.95, 131):
        rate = float(rate)
        ec = ec_siso_nocsi(cfg, 1.0, rate).ec_bits_per_slot
        assert ec <= mean_service(cfg, "siso_nocsi", rate) * (1.0 + 1e-12)


def test_on_off_ec_at_a_subnormal_rate_is_the_mean_service():
    """alpha r T is subnormal here; dividing its rounded log-MGF by alpha
    used to land ~4e-12 above the mean service."""
    cfg = LinkConfig(n_elems=1, p_t=1.0)
    rate = 4.259943321122834e-309
    ec = ec_siso_nocsi(cfg, 1e-4, rate).ec_bits_per_slot
    assert ec == mean_service(cfg, "siso_nocsi", rate)


@pytest.mark.parametrize("link, mode, alpha, rate", [
    # alpha * rate overflows, though alpha * rate * slot = 18.35
    (dict(p_t=1e31, bandwidth=1e305, slot=1e-307), "closed", 10.0, 1.83538958513824e307),
    # alpha * rate is subnormal, though alpha * rate * slot = 1e-248
    (dict(slot=1e70), "closed", 1e-248, 1e-70),
    # p_on * rate is subnormal, though the mean service is 1.9e-308
    (dict(p_t=1.0, bandwidth=1e-313, slot=1e5), "exact", 1.0, 2.91238949437e-313),
])
def test_on_off_ec_past_a_partial_product_out_of_range(link, mode, alpha, rate):
    """The fixed-rate EC and the mean service keep their bits where a
    partial product of alpha, rate and slot (or p_on, rate and slot)
    leaves the normal doubles but the whole product does not: the EC is
    within 1e-13 of its 40-digit value and no larger than the mean
    service. A plain left-to-right product read 2.029 for the first
    link's EC, above its mean service of 1.835."""
    cfg = LinkConfig(n_tx=4, **link)
    res = ec_miso_nocsi(cfg, alpha, rate, kappa_mode=mode)
    p_on, p_off = res.diagnostics["p_on"], res.diagnostics["p_off"]
    with mpmath.workdps(40):
        # the kernel's two forms of the log-MGF at the exact x
        x = mpmath.mpf(alpha) * rate * cfg.slot
        k = p_on * -mpmath.expm1(-x)
        ln_mgf = mpmath.log1p(-k) if k < 0.5 else mpmath.log(p_off + p_on * mpmath.exp(-x))
        want = -ln_mgf / alpha
        mean = mpmath.mpf(p_on) * rate * cfg.slot
        assert abs(res.ec_bits_per_slot - want) <= 1e-13 * want
        assert mean_service(cfg, "miso_nocsi", rate, kappa_mode=mode) == pytest.approx(
            float(mean), rel=1e-15)
    assert 0.0 < res.ec_bits_per_slot <= mean_service(cfg, "miso_nocsi", rate, kappa_mode=mode)


def test_snr_threshold_turns_infinite_past_the_exponent_tail():
    assert snr_threshold(0.0, 1.0) == 0.0
    assert snr_threshold(1.0, 1.0) == 1.0
    assert snr_threshold(1100.0, 1.0) == math.inf
    assert on_off_probs(Exponential(1.0), 1100.0, 1.0) == (0.0, 1.0)


def _mean_snr(dist):
    if isinstance(dist, Exponential):
        return 1.0 / dist.kappa
    return dist.beta * (1.0 + dist.lam)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 20000),
    log_p_t=st.floats(-9.0, 3.0),
    log_alpha=_LOG_ALPHA,
    log_rate_frac=st.floats(-330.0, math.log10(4.0)),
    name=st.sampled_from(["siso_nocsi", "miso_nocsi"]),
)
@_edge_alphas(n=20000, log_p_t=3.0, log_rate_frac=-1.0, name="siso_nocsi")
@_edge_alphas(n=100, log_p_t=-3.0, log_rate_frac=-1.0, name="miso_nocsi")
def test_fixed_rate_ec_is_bounded_by_mean_service(n, log_p_t, log_alpha,
                                                  log_rate_frac, name):
    """Both no-CSI branches give a finite 0 <= EC <= mean service for
    rates from the subnormal range up to 4x the mean-SNR Shannon rate
    and every positive double as the exponent, or a ValueError names
    alpha."""
    entry = SCENARIOS[name]
    cfg = LinkConfig(n_elems=n, p_t=10.0 ** log_p_t,
                     n_tx=10 if entry.beamformed else 1)
    rate = 10.0 ** log_rate_frac * cfg.bandwidth * math.log1p(_mean_snr(entry.law(cfg))) / LN2
    _assert_bounded_or_names_alpha(lambda a: entry.ec(cfg, a, rate), 10.0 ** log_alpha,
                                   lambda: mean_service(cfg, name, rate))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 20000),
    log_p_t=st.floats(-9.0, 3.0),
    log_alpha=st.floats(-6.0, 3.0),
    log_r_max=st.floats(-9.0, math.log10(50.0)),
    name=st.sampled_from(["siso_nocsi", "miso_nocsi"]),
)
def test_rate_search_peak_is_the_nocsi_ec(n, log_p_t, log_alpha, log_r_max, name):
    """The EC the rate search reports at its peak is, bit for bit, the
    EC the no-CSI branch reports at that rate, over the design ranges
    of both links."""
    entry = SCENARIOS[name]
    cfg = LinkConfig(n_elems=n, p_t=10.0 ** log_p_t,
                     n_tx=10 if entry.beamformed else 1)
    alpha = 10.0 ** log_alpha
    sol = grid_argmax_rate(cfg, alpha, name, 10.0 ** log_r_max, 24)
    want = entry.ec(cfg, alpha, sol.r_star).ec_bits_per_slot
    assert sol.ec_at_r_star.hex() == want.hex()


@pytest.mark.parametrize("p_off", [-0.5, math.nan])
def test_fixed_rate_value_checks_p_on(p_off):
    """A law whose CDF leaves [0, 1] is refused."""
    class BadLaw:
        def cdf(self, x):
            return p_off

    with pytest.raises(ValueError, match="p_on must lie in"):
        _fixed_rate(BadLaw(), 0.1, 1.0, 1.0, 1.0)


def test_nocsi_wrappers_compose(cfg_siso, cfg_miso):
    res_s = ec_siso_nocsi(cfg_siso, 0.1, rate=1.2782898)
    assert res_s.scenario == "siso_nocsi"
    assert res_s.diagnostics["lam"] == pytest.approx(160.99457599185225, rel=1e-13)
    assert res_s.ec_bits_per_slot == pytest.approx(1.2075111288102630, rel=1e-10)

    res_m = ec_miso_nocsi(cfg_miso, 0.1, rate=1.0)
    assert res_m.scenario == "miso_nocsi"
    assert res_m.diagnostics["kappa_mode"] == "exact"
    # reproduce through the parts it claims to compose
    p_on, p_off = on_off_probs(
        Exponential(res_m.diagnostics["kappa"]), 1.0, cfg_miso.bandwidth)
    assert res_m.ec_bits_per_slot == _on_off_kernel(p_on, p_off, 0.1, 1.0, cfg_miso.slot)[1]


def test_mean_service_anchor(cfg_siso):
    assert mean_service(cfg_siso, "siso_csi") == pytest.approx(
        1.5218125927343914, rel=1e-11)


def test_mean_service_is_small_alpha_ec(cfg_siso, cfg_miso):
    ec = ec_siso_csi(cfg_siso, 1e-6).ec_bits_per_slot
    assert ec == pytest.approx(mean_service(cfg_siso, "siso_csi"), rel=1e-3)
    ec_m = ec_miso_nocsi(cfg_miso, 1e-6, rate=1.0).ec_bits_per_slot
    assert ec_m == pytest.approx(
        mean_service(cfg_miso, "miso_nocsi", rate=1.0), rel=1e-3)


@settings(max_examples=150, deadline=None)
@given(
    log_n=st.floats(0.0, math.log10(2e4)),
    log_p_t=st.floats(-9.0, 3.0),
    log_alpha=st.floats(-6.0, 3.0),
    log_step=st.floats(-9.0, 2.0),
)
def test_ec_is_nonincreasing_in_alpha(log_n, log_p_t, log_alpha, log_step):
    """On every branch EC(alpha') <= EC(alpha) for alpha' > alpha, to a
    1e-12 relative slack, since -ln E[exp(-alpha S)]/alpha is; each
    fixed-rate branch keeps that through its max over the rate, at its
    own auto_rate for each exponent. And EC -> mean service as
    alpha -> 0: at alpha = 1e-9 it lies within 1e-8 relative below."""
    n = round(10.0 ** log_n)
    alpha = 10.0 ** log_alpha
    for name, entry in SCENARIOS.items():
        cfg = LinkConfig(n_elems=n, p_t=10.0 ** log_p_t,
                         n_tx=10 if entry.beamformed else 1)

        def ec(a):
            rate = None if entry.adaptive else auto_rate(cfg, name, a)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the clamp to 0
                return entry.ec(cfg, a, rate).ec_bits_per_slot, rate

        low, _ = ec(alpha)
        high, _ = ec(alpha * (1.0 + 10.0 ** log_step))
        assert high <= low * (1.0 + 1e-12), name
        value, rate = ec(1e-9)
        mean = mean_service(cfg, name, rate)
        assert mean * (1.0 - 1e-8) <= value <= mean * (1.0 + 1e-12), name


def test_mean_service_validation(cfg_siso):
    with pytest.raises(ValueError):
        mean_service(cfg_siso, "siso_nocsi")
    with pytest.raises(ValueError, match="rate must be None"):
        mean_service(cfg_siso, "siso_csi", rate=5.0)
    with pytest.raises(ValueError):
        mean_service(cfg_siso, "duplex")


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_table_matches_named_branches(name):
    """Each table entry reproduces its named EC function bit for bit at
    the reference budget, and the oracle draws its service from the
    link's own sampler pair."""
    entry = SCENARIOS[name]
    cfg = LinkConfig(n_tx=10) if entry.beamformed else LinkConfig()
    alpha = 0.1
    named = {"siso_csi": ec_siso_csi, "miso_csi": ec_miso_csi,
             "siso_nocsi": ec_siso_nocsi, "miso_nocsi": ec_miso_nocsi}[name]
    if entry.adaptive:
        rate = None
        want = named(cfg, alpha)
    else:
        rate = auto_rate(cfg, name, alpha)
        want = named(cfg, alpha, rate)
    got = entry.ec(cfg, alpha, rate)
    assert got.scenario == want.scenario == name
    assert got.ec_bits_per_slot == want.ec_bits_per_slot
    assert got.diagnostics == want.diagnostics

    snr = mcoracle.link_snr(entry.beamformed, cfg, 31, 2000).values
    service = simulate_service(cfg, name, rate, 31, 2000).values
    if entry.adaptive:
        expect = cfg.slot * cfg.bandwidth * np.log1p(snr) / LN2
    else:
        expect = np.where(snr >= math.expm1(LN2 * rate / cfg.bandwidth),
                          rate * cfg.slot, 0.0)
    assert np.array_equal(service, expect)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_table_rejects_inapplicable_flags(name):
    """A rate for an adaptive branch raises instead of being dropped,
    and no branch takes an evaluation route."""
    entry = SCENARIOS[name]
    cfg = LinkConfig(n_tx=10) if entry.beamformed else LinkConfig()
    rate = None if entry.adaptive else 0.5
    if entry.adaptive:
        with pytest.raises(ValueError, match="rate must be None"):
            entry.ec(cfg, 0.1, 0.5)
    with pytest.raises(TypeError):
        entry.ec(cfg, 0.1, rate, method="relaxed")


@pytest.mark.parametrize("name", ["siso_csi", "siso_nocsi"])
def test_single_antenna_rejects_kappa_mode(name):
    """The single-antenna law has no kappa: any kappa_mode but "exact"
    raises through law, ec and mean_service instead of being ignored."""
    entry = SCENARIOS[name]
    cfg = LinkConfig()
    rate = None if entry.adaptive else 1.0
    for mode in ("closed", "bogus"):
        with pytest.raises(ValueError, match="applies only to the beamformed link"):
            entry.law(cfg, mode)
        with pytest.raises(ValueError, match="applies only to the beamformed link"):
            entry.ec(cfg, 0.1, rate, kappa_mode=mode)
        with pytest.raises(ValueError, match="applies only to the beamformed link"):
            mean_service(cfg, name, rate, kappa_mode=mode)
    assert entry.ec(cfg, 0.1, rate, kappa_mode="exact") == entry.ec(cfg, 0.1, rate)
