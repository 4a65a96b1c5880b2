"""End-to-end acceptance scorecard.

Each test covers one numbered release criterion and prints a single
"criterion NN: PASS/FAIL - detail" line (outside capture), so a full
run doubles as a human-readable report.  Gates and tolerances are
asserted exactly as stated; two of them document real model limits
instead of hiding them:

* criterion 01 (single-antenna half): the gaussian-square surrogate for
  the coherently combined channel sits ~0.0117 sup-CDF away from the
  physical law at N=100, above the 0.01 target.  The gap decays like
  ~0.107/sqrt(N) and crosses 0.01 only past N~115.
* criterion 02 (N=100, alpha=10 cell): the same surrogate's deep left
  tail overstates the outage probability ~9x at the delay-limited
  operating rate, which maps into a ~3.1% effective-capacity gap, just
  over the 3% cap.  The two-state algebra itself is exact; criterion 09
  pins it to 1e-12.

Those two asserts are expected to fail, with the measured numbers in
the failure message.  Everything else passes with margin.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from conftest import miso_cfg_for_kappa
from irsec.channel import (
    Exponential,
    LinkConfig,
    miso_snr_dist,
    siso_snr_dist,
)
from irsec.eccore import (
    LN2,
    _fixed_rate,
    _on_off_kernel,
    ec_miso_csi,
    ec_miso_nocsi,
    ec_siso_csi,
    ec_siso_nocsi,
    mean_service,
    miso_csi_moments,
    on_off_probs,
)
from irsec.mcoracle import empirical_ec
from irsec.paper import DescentSettings, optimize_rate_miso_closed, optimize_rate_siso
from irsec.rateopt import solve_rate_miso_exact
from irsec.sweeps import SweepSpec, auto_rate, run_sweep
from reference_samplers import (
    block_ec,
    ec_on_off_spectral,
    grid_argmax_reference,
    ks_distance,
    sample_miso_snr,
    sample_siso_snr,
    simulate_service,
)

DRAWS = 1_000_000


def _report(capsys, label, ok, detail):
    line = f"criterion {label}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    return line


def _ergodic_rate(cfg):
    dist = siso_snr_dist(cfg)
    return cfg.bandwidth * math.log2(1.0 + dist.beta * (1.0 + dist.lam))


def test_criterion_01_siso_distribution(capsys):
    """Physical single-antenna SNR law vs its closed-form surrogate.

    Expected to fail honestly: at N=100 the measured sup-CDF distance
    is ~0.0117 against the 0.01 target, a property of the
    gaussian-square approximation, not of the sampler (whose per-stream
    independence and moments are covered by the channel tests).
    """
    cfg = LinkConfig()
    start = time.perf_counter()
    batch = sample_siso_snr(cfg, 1234, DRAWS)
    ks = ks_distance(batch, siso_snr_dist(cfg))
    elapsed = time.perf_counter() - start
    ok = ks <= 0.01 and elapsed <= 30.0
    line = _report(
        capsys, "01 (siso)", ok,
        f"sup-CDF gap {ks:.5f} vs 0.01 cap over 1e6 draws in {elapsed:.1f}s; "
        "gap decays like ~0.107/sqrt(N) and first meets the cap near N~115, "
        "so the pinned N=100 budget sits just outside it")
    assert ok, line


def test_criterion_01_miso_distribution(capsys):
    """Beamformed SNR samples against the exact exponential law."""
    cfg = LinkConfig(n_tx=10)
    start = time.perf_counter()
    batch = sample_miso_snr(cfg, 1234, DRAWS)
    ks = ks_distance(batch, miso_snr_dist(cfg))
    elapsed = time.perf_counter() - start
    ok = ks <= 0.01 and elapsed <= 30.0
    line = _report(
        capsys, "01 (miso)", ok,
        f"sup-CDF gap {ks:.5f} vs 0.01 cap over 1e6 draws in {elapsed:.1f}s")
    assert ok, line


def test_criterion_02_siso_nocsi_oracle(capsys):
    """Fixed-rate closed form vs the simulated two-state service.

    Rates are the per-cell grid optima, i.e. the operating points the
    optimizer would actually pick.  The cells pin their block lengths:
    100 slots at alpha=0.1 and 10 at alpha=10, where 100-slot blocks
    would push every exp(-alpha*S) below double range; slots are iid,
    so any block length estimates the same limit.

    The N=100/alpha=10 cell is expected to fail honestly: there the
    optimal rate probes the z=-3.95 left tail, where the surrogate's
    outage probability (3.9e-5) exceeds the physical one (~4e-6) by
    ~9x, a systematic +3.1% gap that no seed or block choice removes.
    """
    cells = (
        (16, 0.1, 100, 2101),
        (16, 10.0, 10, 2102),
        (100, 0.1, 100, 2103),
        (100, 10.0, 10, 2104),
    )
    parts = []
    worst_ok = True
    for n_elems, alpha, block, seed in cells:
        cfg = LinkConfig(n_elems=n_elems)
        rate = auto_rate(cfg, "siso_nocsi", alpha)
        ec = ec_siso_nocsi(cfg, alpha, rate).ec_bits_per_slot
        est = block_ec(
            simulate_service(cfg, "siso_nocsi", rate, seed, DRAWS), alpha, block)
        gap = abs(ec - est.value)
        allowed = max(0.03 * abs(est.value), 3.0 * est.stderr)
        ok = gap <= allowed
        worst_ok = worst_ok and ok
        parts.append(
            f"N{n_elems}/a{alpha:g} {gap / abs(est.value):.2%}"
            + ("" if ok else
               f" > cap (form {ec:.4f} vs oracle {est.value:.4f}, "
               f"3se {3 * est.stderr:.4f}; model off-prob 3.9e-5 vs "
               "physical ~4e-6 at the optimal rate)"))
    line = _report(capsys, "02", worst_ok, "; ".join(parts))
    assert worst_ok, line


def test_criterion_03_miso_nocsi_oracle(capsys):
    """Beamformed fixed-rate form: oracle agreement plus a spot value."""
    cfg = LinkConfig(n_tx=10)
    parts = []
    all_ok = True
    for alpha, seed in ((0.1, 2301), (10.0, 2302)):
        rate = auto_rate(cfg, "miso_nocsi", alpha)
        ec = ec_miso_nocsi(cfg, alpha, rate).ec_bits_per_slot
        est = empirical_ec(
            simulate_service(cfg, "miso_nocsi", rate, seed, DRAWS), alpha)
        gap = abs(ec - est.value)
        ok = gap <= max(0.03 * abs(est.value), 3.0 * est.stderr)
        all_ok = all_ok and ok
        parts.append(f"a{alpha:g} {gap / abs(est.value):.2%}")

    # spot check at kappa=0.5, B=T=1, alpha=0.1, r=1 through the same
    # on/off path the beamformed branch uses
    spot = _fixed_rate(Exponential(kappa=0.5), 0.1, 1.0, 1.0, 1.0)[3]
    expected = 0.59451772467971217
    spot_ok = abs(spot - expected) <= 1e-4
    all_ok = all_ok and spot_ok
    parts.append(
        f"spot {spot:.6f} (the once-quoted 0.0587 matches alpha*EC="
        f"{0.1 * spot:.5f} to 1.3%, i.e. a dropped 1/alpha; the oracle "
        "columns above confirm the 1/alpha form)")
    line = _report(capsys, "03", all_ok, "; ".join(parts))
    assert all_ok, line


def test_criterion_04_miso_csi_moments(capsys):
    """Adaptive-rate moments vs quadrature, then vs simulation."""
    worst = 0.0
    for kappa in (0.1, 0.5, 2.0):
        mu, eta, _ = miso_csi_moments(kappa)
        mean_nats, _ = integrate.quad(
            lambda x, k=kappa: math.log1p(x) * k * math.exp(-k * x),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=300)
        second_nats, _ = integrate.quad(
            lambda x, k=kappa: math.log1p(x) ** 2 * k * math.exp(-k * x),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=300)
        worst = max(worst,
                    abs(mu - mean_nats / LN2) / (mean_nats / LN2),
                    abs(eta - second_nats / LN2 ** 2) / (second_nats / LN2 ** 2))
    quad_ok = worst <= 1e-8

    cfg = miso_cfg_for_kappa(0.5)
    ec = ec_miso_csi(cfg, 0.1).ec_bits_per_slot
    est = empirical_ec(
        simulate_service(cfg, "miso_csi", None, 2401, DRAWS), 0.1)
    rel = abs(ec - est.value) / abs(est.value)
    mc_ok = rel <= 0.03
    ok = quad_ok and mc_ok
    line = _report(
        capsys, "04", ok,
        f"moments vs quadrature worst rel {worst:.2e} (cap 1e-8) for "
        f"kappa in (0.1, 0.5, 2); gaussian-MGF EC vs oracle {rel:.3%} "
        "(cap 3%) at alpha=0.1")
    assert ok, line


def test_criterion_05_siso_csi_oracle(capsys):
    """Adaptive single-antenna form vs simulation at alpha=0.1."""
    cfg = LinkConfig()
    ec = ec_siso_csi(cfg, 0.1).ec_bits_per_slot
    est = empirical_ec(
        simulate_service(cfg, "siso_csi", None, 2501, DRAWS), 0.1)
    rel = abs(ec - est.value) / abs(est.value)
    ok = rel <= 0.05
    line = _report(
        capsys, "05", ok,
        f"exact-route gap {rel:.4%} (cap 5%); the low-SNR relaxed route's "
        "bias is reported by the validate verb (systematic_bias) rather "
        "than hidden")
    assert ok, line


def test_criterion_06_gradient_grid(capsys):
    """Analytical slot-MGF derivative vs central differences, 27 points."""
    def slot_mgf(cfg, alpha, rate):
        p_on, p_off = on_off_probs(siso_snr_dist(cfg), rate, cfg.bandwidth)
        return p_off + p_on * math.exp(-alpha * rate * cfg.slot)

    from irsec.paper import siso_ec_gradient

    worst = 0.0
    for n_elems in (16, 64, 100):
        cfg = LinkConfig(n_elems=n_elems)
        r_base = _ergodic_rate(cfg)
        for alpha in (0.1, 1.0, 10.0):
            for factor in (0.5, 1.0, 1.35):
                rate = factor * r_base
                h = 1e-6 * rate
                fd = (slot_mgf(cfg, alpha, rate + h)
                      - slot_mgf(cfg, alpha, rate - h)) / (2.0 * h)
                worst = max(worst,
                            abs(siso_ec_gradient(cfg, alpha, rate) - fd)
                            / abs(fd))
    ok = worst <= 1e-5
    line = _report(
        capsys, "06", ok,
        f"worst rel gap {worst:.2e} (cap 1e-5) over 3 sizes x 3 alphas "
        "x 3 rates")
    assert ok, line


def test_criterion_07_optimizers(capsys):
    """Descent, root finder, and the closed form against the grid oracle."""
    cfg = LinkConfig()
    tol = 1e-3
    sol = optimize_rate_siso(
        cfg, 0.1, DescentSettings(r0=1.0, step=0.5, conv_tol=tol))
    grid = grid_argmax_reference(cfg, 0.1, "siso_nocsi", 2.0 * _ergodic_rate(cfg))
    descent_gap = abs(sol.ec_at_r_star - grid.ec_at_r_star)
    descent_ok = descent_gap <= 10.0 * tol

    cfg_m = LinkConfig(n_tx=10)
    root_ok = True
    root_gaps = []
    for alpha in (0.1, 10.0):
        root = solve_rate_miso_exact(cfg_m, alpha)
        r_max = 2.0 * root.r_star + cfg_m.bandwidth
        ref = grid_argmax_reference(cfg_m, alpha, "miso_nocsi", r_max)
        step = r_max / 1000.0
        root_gaps.append(abs(root.r_star - ref.r_star))
        root_ok = root_ok and root_gaps[-1] <= step

    cfg_k = miso_cfg_for_kappa(0.5)
    closed = optimize_rate_miso_closed(cfg_k, 10.0)
    exact = solve_rate_miso_exact(cfg_k, 10.0)
    closed_rel = abs(closed.r_star - exact.r_star) / exact.r_star
    closed_ok = closed.closed_form_valid and closed_rel <= 0.20

    ok = descent_ok and root_ok and closed_ok
    line = _report(
        capsys, "07", ok,
        f"descent EC gap {descent_gap:.2e} (cap 1e-2); root vs grid "
        f"{max(root_gaps):.2e} (cap one grid step); closed vs exact root "
        f"{closed_rel:.2%} (cap 20%, regime flag {closed.closed_form_valid})")
    assert ok, line


def test_criterion_08_trends(capsys):
    """Monotone curve shapes over the reference budget, under 5 minutes."""
    start = time.perf_counter()
    base = LinkConfig()
    checks = []

    def series(spec):
        by_alpha = {}
        for row in run_sweep(spec):
            assert row.error is None, row.error
            by_alpha.setdefault(row.alpha, []).append(row.ec_analytical)
        return by_alpha

    for scenario in ("siso_csi", "siso_nocsi"):
        for ecs in series(SweepSpec(
                scenario=scenario, sweep_var="p_t",
                values=(1e-5, 1e-4, 1e-3, 1e-2, 1e-1), fixed=base,
                alpha_list=(0.1, 10.0))).values():
            checks.append(("p_t nondecreasing",
                           all(b >= a for a, b in zip(ecs, ecs[1:]))))
    for ecs in series(SweepSpec(
            scenario="siso_csi", sweep_var="N", values=(16, 36, 64, 100),
            fixed=base, alpha_list=(0.1, 10.0))).values():
        checks.append(("N nondecreasing",
                       all(b >= a for a, b in zip(ecs, ecs[1:]))))
    for ecs in series(SweepSpec(
            scenario="miso_csi", sweep_var="N_t", values=(1, 4, 10),
            fixed=LinkConfig(n_tx=1), alpha_list=(0.1,))).values():
        # flat by construction: the law sees the array only through the
        # unit-norm precoder budget
        checks.append(("N_t nondecreasing",
                       all(b >= a for a, b in zip(ecs, ecs[1:]))))
    for scenario in ("siso_csi", "siso_nocsi"):
        ecs = [row.ec_analytical for row in run_sweep(SweepSpec(
            scenario=scenario, sweep_var="alpha",
            values=(0.01, 0.1, 1.0, 10.0), fixed=base))]
        checks.append(("alpha nonincreasing",
                       all(b <= a for a, b in zip(ecs, ecs[1:]))))

    for alpha in (0.1, 10.0):
        r_s = auto_rate(base, "siso_nocsi", alpha)
        checks.append(("csi >= nocsi at r* (siso)",
                       ec_siso_csi(base, alpha).ec_bits_per_slot
                       >= ec_siso_nocsi(base, alpha, r_s).ec_bits_per_slot))
        cfg_m = LinkConfig(n_tx=10)
        r_m = auto_rate(cfg_m, "miso_nocsi", alpha)
        checks.append(("csi >= nocsi at r* (miso)",
                       ec_miso_csi(cfg_m, alpha).ec_bits_per_slot
                       >= ec_miso_nocsi(cfg_m, alpha, r_m).ec_bits_per_slot))

    rates = tuple(np.linspace(0.015, 3.0, 200))
    ecs = [row.ec_analytical for row in run_sweep(SweepSpec(
        scenario="siso_nocsi", sweep_var="rate", values=rates, fixed=base))]
    peak = int(np.argmax(ecs))
    # past ~8 sigma the on-probability underflows and the curve sits at
    # exactly zero, so ties are legitimate there and only there
    unimodal = (all(b > a for a, b in zip(ecs[:peak], ecs[1:peak + 1]))
                and all(b < a or b == 0.0
                        for a, b in zip(ecs[peak:], ecs[peak + 1:])))
    checks.append(("EC(r) unimodal on 200 points", unimodal))

    elapsed = time.perf_counter() - start
    checks.append(("runtime <= 300s", elapsed <= 300.0))
    failed = [name for name, ok in checks if not ok]
    ok = not failed
    line = _report(
        capsys, "08", ok,
        f"{len(checks)} shape checks in {elapsed:.1f}s"
        + ("" if ok else f"; failing: {failed}"))
    assert ok, line


def test_criterion_09_scalar_vs_spectral(capsys):
    """Two-state log-MGF: closed scalar vs the 2x2 spectral radius."""
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(100):
        alpha = 10.0 ** rng.uniform(-2.0, 1.0)
        p_on = rng.uniform(0.0, 1.0)
        rate = rng.uniform(0.001, 10.0)
        slot = rng.uniform(0.1, 2.0)
        worst = max(worst, abs(
            _on_off_kernel(p_on, 1.0 - p_on, alpha, rate, slot)[1]
            - ec_on_off_spectral(p_on, 1.0 - p_on, alpha, rate, slot)))
    ok = worst <= 1e-12
    line = _report(
        capsys, "09", ok,
        f"worst abs gap {worst:.2e} (cap 1e-12) over 100 random chains")
    assert ok, line


def test_criterion_10_ergodic_limits(capsys):
    """Every branch collapses to mean service as alpha -> 0."""
    alpha = 1e-6
    cfg = LinkConfig()
    cfg_m = LinkConfig(n_tx=10)
    pairs = (
        ("siso_csi", ec_siso_csi(cfg, alpha).ec_bits_per_slot,
         mean_service(cfg, "siso_csi")),
        ("miso_csi", ec_miso_csi(cfg_m, alpha).ec_bits_per_slot,
         mean_service(cfg_m, "miso_csi")),
        ("siso_nocsi", ec_siso_nocsi(cfg, alpha, 1.0).ec_bits_per_slot,
         mean_service(cfg, "siso_nocsi", rate=1.0)),
        ("miso_nocsi", ec_miso_nocsi(cfg_m, alpha, 0.02).ec_bits_per_slot,
         mean_service(cfg_m, "miso_nocsi", rate=0.02)),
    )
    worst = max(abs(ec - ms) / abs(ms) for _, ec, ms in pairs)
    ok = worst <= 1e-3
    line = _report(
        capsys, "10", ok,
        f"worst rel gap {worst:.2e} (cap 1e-3) across all four branches "
        "at alpha=1e-6")
    assert ok, line
