"""Sweep engine behavior, CSV round-trips, SVG rendering."""

import csv
import io
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from irsec import eccore, mcoracle
from irsec.channel import LinkConfig, siso_snr_dist
from irsec.eccore import LN2, ec_miso_csi, ec_siso_nocsi, get_scenario, mean_service
from irsec.mcoracle import empirical_ec, on_off_estimate, service_from_snr
from irsec.sweeps import (
    CSV_HEADER,
    SweepSpec,
    auto_rate,
    emit_csv,
    emit_plot,
    run_sweep,
    write_csv,
)
from reference_samplers import grid_argmax_reference, sample_siso_nested_snr, simulate_snr


def _row_config(spec, value):
    """The link config of a row at value, as run_sweep builds it."""
    if spec.sweep_var == "p_t":
        return replace(spec.fixed, p_t=value)
    if spec.sweep_var == "N":
        return replace(spec.fixed, n_elems=int(value))
    if spec.sweep_var == "N_t":
        return replace(spec.fixed, n_tx=int(value), precoder=None)
    return spec.fixed


def _fresh_oracle(spec, row):
    """(value, stderr) of a row's oracle on a fresh draw at spec.seed: an
    adaptive row's empirical_ec of its service, a fixed-rate row's count
    of on slots. A single-antenna N sweep's rows read the nested draw at
    the sweep's element counts (siso_nested_reference)."""
    cfg = _row_config(spec, row.value)
    entry = get_scenario(spec.scenario)
    if spec.sweep_var == "N" and not entry.beamformed:
        counts = [int(v) for v in spec.values if v >= 1]
        snr = sample_siso_nested_snr(cfg, counts, spec.seed, spec.mc_slots)
    else:
        snr = simulate_snr(cfg, spec.scenario, spec.seed, spec.mc_slots)
    if entry.adaptive:
        est = empirical_ec(service_from_snr(snr, cfg), row.alpha)
    else:
        est = on_off_estimate(snr, cfg, row.r_star, row.alpha)
    return est.value, est.stderr


def _rate_spec(values=(0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1, 2.4), **kw):
    base = dict(scenario="siso_nocsi", sweep_var="rate", values=values,
                fixed=LinkConfig())
    base.update(kw)
    return SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        _rate_spec(scenario="simo_nocsi")
    with pytest.raises(ValueError):
        _rate_spec(sweep_var="snr")
    with pytest.raises(ValueError):
        _rate_spec(values=())
    with pytest.raises(ValueError):
        _rate_spec(values=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        SweepSpec(scenario="siso_nocsi", sweep_var="N_t", values=(1, 2),
                  fixed=LinkConfig())
    with pytest.raises(ValueError):
        SweepSpec(scenario="siso_csi", sweep_var="rate", values=(1.0,),
                  fixed=LinkConfig())
    with pytest.raises(ValueError, match="integers"):
        SweepSpec(scenario="siso_csi", sweep_var="N", values=(16, 16.5),
                  fixed=LinkConfig())
    with pytest.raises(ValueError, match="integers"):
        SweepSpec(scenario="miso_csi", sweep_var="N_t", values=(1, 2.5),
                  fixed=LinkConfig())
    with pytest.raises(ValueError):
        _rate_spec(alpha_list=())
    with pytest.raises(ValueError):
        _rate_spec(alpha_list=(0.1, -1.0))
    with pytest.raises(ValueError):
        _rate_spec(mc_slots=-100)
    # NaN passes no neighbour comparison, so it is refused by name; every
    # exponent, from alpha_list or an alpha sweep's values, obeys alpha_value
    for values in ((math.nan,), (1.0, math.nan, 2.0)):
        with pytest.raises(ValueError, match="values must not be NaN"):
            _rate_spec(values=values)
    with pytest.raises(ValueError, match="alpha must be strictly positive"):
        _rate_spec(alpha_list=(math.nan,))
    with pytest.raises(ValueError, match="alpha must be finite"):
        _rate_spec(alpha_list=(0.1, math.inf))
    for values, message in (((-1.0, 0.1), "strictly positive"),
                            ((0.1, math.inf), "finite")):
        with pytest.raises(ValueError, match=message):
            SweepSpec(scenario="siso_csi", sweep_var="alpha", values=values,
                      fixed=LinkConfig())


def test_integral_float_mc_slots_is_the_int():
    """An integral slot count such as 1e3 runs as 1000; a fractional one
    is refused at construction rather than failing every row."""
    spec = _rate_spec(values=(1.0, 1.5), mc_slots=1e3)
    assert spec.mc_slots == 1000 and type(spec.mc_slots) is int
    rows = run_sweep(spec)
    assert all(row.error is None for row in rows)
    assert rows == run_sweep(_rate_spec(values=(1.0, 1.5), mc_slots=1000))
    with pytest.raises(ValueError, match="mc_slots"):
        _rate_spec(mc_slots=10.5)


def test_rate_sweep_is_unimodal():
    rows = run_sweep(_rate_spec())
    assert all(r.error is None for r in rows)
    assert [r.r_star for r in rows] == [r.value for r in rows]
    ecs = [r.ec_analytical for r in rows]
    peak = ecs.index(max(ecs))
    assert all(a < b for a, b in zip(ecs[:peak], ecs[1:peak + 1]))
    assert all(a > b for a, b in zip(ecs[peak:], ecs[peak + 1:]))
    assert rows[peak].value == pytest.approx(1.2, abs=0.31)  # optimum near 1.28


def test_rate_past_the_exponent_tail_is_a_dead_row():
    """A rate whose SNR threshold overflows a double is never supported:
    the oracle delivers no bits and the row keeps its analytic EC of 0."""
    rows = run_sweep(_rate_spec(values=(1.0, 1100.0), mc_slots=100))
    dead = rows[-1]
    assert dead.error is None
    assert (dead.ec_analytical, dead.ec_oracle, dead.r_star) == (0.0, 0.0, 1100.0)


def test_power_sweep_is_increasing():
    spec = SweepSpec(scenario="siso_csi", sweep_var="p_t",
                     values=(1e-4, 1e-3, 1e-2, 1e-1), fixed=LinkConfig())
    ecs = [r.ec_analytical for r in run_sweep(spec)]
    assert all(a < b for a, b in zip(ecs, ecs[1:]))


def test_alpha_sweep_rows_carry_their_value():
    spec = SweepSpec(scenario="siso_csi", sweep_var="alpha",
                     values=(0.1, 1.0, 10.0), fixed=LinkConfig(),
                     alpha_list=(99.0,))  # ignored for alpha sweeps
    rows = run_sweep(spec)
    assert [r.alpha for r in rows] == [0.1, 1.0, 10.0]
    ecs = [r.ec_analytical for r in rows]
    assert all(a >= b for a, b in zip(ecs, ecs[1:]))


def test_row_ordering_value_major():
    rows = run_sweep(_rate_spec(values=(1.0, 2.0), alpha_list=(0.1, 1.0)))
    assert [(r.value, r.alpha) for r in rows] == [
        (1.0, 0.1), (1.0, 1.0), (2.0, 0.1), (2.0, 1.0)]


def test_oracle_columns_toggle():
    """Oracle columns appear only when slots are requested; agreement
    is bounded by the surface-model CLT error (~1%), not MC noise."""
    analytic = run_sweep(_rate_spec(values=(1.0, 1.5)))
    checked = run_sweep(_rate_spec(values=(1.0, 1.5), mc_slots=50_000))
    for dry, wet in zip(analytic, checked):
        assert dry.ec_analytical == wet.ec_analytical
        assert dry.ec_oracle is None and dry.oracle_stderr is None
        assert wet.ec_oracle is not None
        gate = max(0.03 * wet.ec_analytical, 3.0 * wet.oracle_stderr)
        assert abs(wet.ec_oracle - wet.ec_analytical) <= gate


def test_oracle_rows_reproducible():
    a = run_sweep(_rate_spec(values=(1.0, 1.5), mc_slots=10_000))
    b = run_sweep(_rate_spec(values=(1.0, 1.5), mc_slots=10_000))
    assert a == b


def test_oracle_draws_once_per_config(monkeypatch, fading_calls):
    """Rows with the same element count share one fading draw at
    spec.seed, and an N sweep draws once, at its largest count: a rate,
    p_t, N_t or N sweep draws once. Every row's oracle equals the one a
    fresh draw at that seed gives: empirical_ec of its service for an
    adaptive row, the count of on slots for a fixed-rate row, and for a
    single-antenna N sweep's row the nested reference's first N
    elements, bit for bit."""
    common = dict(alpha_list=(0.1, 1.0), seed=7, mc_slots=2000)
    rate_spec = _rate_spec(values=(1.0, 1.3, 1.6), **common)
    power_spec = SweepSpec(scenario="siso_csi", sweep_var="p_t",
                           values=(1e-4, 1e-3, 1e-2), fixed=LinkConfig(),
                           **common)
    elements_spec = SweepSpec(scenario="siso_nocsi", sweep_var="N",
                              values=(4.0, 16.0, 64.0), fixed=LinkConfig(),
                              **common)
    beamformed_elements_spec = SweepSpec(scenario="miso_nocsi", sweep_var="N",
                                         values=(4.0, 16.0, 64.0),
                                         fixed=LinkConfig(n_tx=10), **common)
    antennas_spec = SweepSpec(scenario="miso_csi", sweep_var="N_t",
                              values=(1.0, 4.0, 10.0),
                              fixed=LinkConfig(n_tx=1), **common)
    for spec, draws in ((rate_spec, ["siso_fading"]),
                        (power_spec, ["siso_fading"]),
                        (elements_spec, ["siso_fading"]),
                        (beamformed_elements_spec, ["miso_fading"]),
                        (antennas_spec, ["miso_fading"])):
        # an earlier sweep's draw would satisfy this one
        monkeypatch.setattr(mcoracle, "_last_draw", None)
        fading_calls.clear()
        rows = run_sweep(spec)
        assert fading_calls == draws, (spec.scenario, spec.sweep_var)
        for row in rows:
            assert row.error is None
            assert (row.ec_oracle, row.oracle_stderr) == _fresh_oracle(spec, row)


def _one_row(scenario, alpha=0.1, seed=7, mc_slots=2000, n_elems=100):
    """A one-row alpha sweep, as irsec validate runs each branch."""
    n_tx = 10 if get_scenario(scenario).beamformed else 1
    return SweepSpec(scenario, "alpha", (alpha,),
                     LinkConfig(n_elems=n_elems, n_tx=n_tx),
                     seed=seed, mc_slots=mc_slots)


def test_consecutive_sweeps_of_one_link_share_a_draw(monkeypatch, fading_calls):
    """The CSI and no-CSI sweeps of one link, at one element count, seed
    and slot count, draw its fading once between them, and each row is
    the one a fresh draw gives, bit for bit."""
    for kind, pair in (("siso_fading", ("siso_csi", "siso_nocsi")),
                       ("miso_fading", ("miso_csi", "miso_nocsi"))):
        monkeypatch.setattr(mcoracle, "_last_draw", None)
        fading_calls.clear()
        specs = [_one_row(name, alpha) for name in pair for alpha in (0.1, 1.0)]
        rows = [run_sweep(spec) for spec in specs]
        assert fading_calls == [kind]
        for spec, row in zip(specs, rows):
            monkeypatch.setattr(mcoracle, "_last_draw", None)
            assert run_sweep(spec) == row
        assert fading_calls == [kind] * 5


@pytest.mark.parametrize("scenario, change", [
    ("siso_csi", dict(seed=8)),
    ("siso_csi", dict(mc_slots=2001)),
    ("siso_csi", dict(sweep_var="N", values=(16.0, 64.0))),
    ("miso_nocsi", {}),
], ids=["seed", "slots", "N", "link kind"])
def test_a_new_link_seed_or_size_draws_again(fading_calls, scenario, change):
    """A sweep that differs from the last one in seed, slot count, element
    count or link kind draws its own fading, once, the slot then holds
    the last row's draw alone, and each row is the one a fresh draw gives
    (for an N sweep, the nested draw at its largest element count)."""
    run_sweep(_one_row("siso_nocsi"))
    fading_calls.clear()
    spec = replace(_one_row(scenario), **change)
    rows = run_sweep(spec)
    beamformed = get_scenario(scenario).beamformed
    assert fading_calls == ["miso_fading" if beamformed else "siso_fading"]
    last = _row_config(spec, rows[-1].value)
    key, fadings, cfg, _ = mcoracle._last_draw
    assert key == (beamformed, last.n_elems, spec.seed, spec.mc_slots)
    batch, = fadings.values()
    assert batch.values.size == spec.mc_slots
    assert cfg == last
    for row in rows:
        assert (row.ec_oracle, row.oracle_stderr) == _fresh_oracle(spec, row)


def test_oracle_keeps_one_draw_at_a_time(monkeypatch):
    """A p_t sweep holds only one fading draw and the current config's
    SNR batch: the traced peak stays a few batches wide, not one batch
    per value."""
    slots = 20_000
    for scenario, fixed in (("miso_csi", LinkConfig(n_tx=10)),
                            ("siso_nocsi", LinkConfig())):
        spec = SweepSpec(scenario=scenario, sweep_var="p_t",
                         values=tuple(np.logspace(-5, -1, 20)),
                         fixed=fixed, alpha_list=(0.1,), mc_slots=slots)
        run_sweep(spec)  # warm caches and lazy imports outside the trace
        # the traced sweep draws its fading afresh, not from the warm-up's
        monkeypatch.setattr(mcoracle, "_last_draw", None)
        tracemalloc.start()
        try:
            rows = run_sweep(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.error is None for r in rows), scenario
        assert peak < 5 * slots * 8 + 1_000_000, (scenario, peak)


def test_n_sweep_holds_its_draws_until_they_are_read(monkeypatch):
    """An N sweep of K element counts draws once and holds one batch per
    count until its rows have read it: the traced peak stays within K + 4
    batches, and after the sweep the slot holds only the largest
    count's batch, which is the plain draw at that count."""
    slots = 20_000
    values = (16.0, 25.0, 36.0, 49.0, 64.0, 81.0, 100.0)
    spec = SweepSpec(scenario="siso_csi", sweep_var="N", values=values,
                     fixed=LinkConfig(), alpha_list=(0.1, 1.0), mc_slots=slots)
    run_sweep(spec)  # warm caches and lazy imports outside the trace
    monkeypatch.setattr(mcoracle, "_last_draw", None)
    tracemalloc.start()
    try:
        rows = run_sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in rows)
    assert peak < (len(values) + 4) * slots * 8 + 1_000_000, peak
    key, fadings, cfg, _ = mcoracle._last_draw
    assert key == (False, 100, spec.seed, slots) and list(fadings) == [100]
    assert cfg == LinkConfig(n_elems=100)
    assert np.array_equal(fadings[100].values,
                          mcoracle.siso_fading(100, spec.seed, slots).values)


def test_refused_n_sweep_row_leaves_the_other_draws(fading_calls):
    """A row whose element count no config takes keeps its error, and the
    other rows read the draw they read without it."""
    common = dict(scenario="siso_nocsi", sweep_var="N", fixed=LinkConfig(),
                  alpha_list=(0.1,), seed=7, mc_slots=2000)
    rows = run_sweep(SweepSpec(values=(-4.0, 0.0, 16.0, 64.0), **common))
    for row in rows[:2]:
        assert row.error == "ValueError: n_elems must be a positive integer"
        assert row.ec_oracle is None
    assert fading_calls == ["siso_fading"]
    spec = SweepSpec(values=(16.0, 64.0), **common)
    assert rows[2:] == run_sweep(spec)
    for row in rows[2:]:
        assert (row.ec_oracle, row.oracle_stderr) == _fresh_oracle(spec, row)


def test_rate_zero_oracle_is_positive_zero():
    """A rate-0 row serves no bits; its oracle reads +0.0, not -0.0."""
    rows = run_sweep(_rate_spec(values=(0.0, 1.0), mc_slots=1000))
    assert rows[0].error is None
    assert rows[0].ec_oracle == 0.0
    assert math.copysign(1.0, rows[0].ec_oracle) == 1.0


def test_error_rows_do_not_abort():
    spec = SweepSpec(scenario="siso_csi", sweep_var="p_t",
                     values=(-1e-3, 1e-3), fixed=LinkConfig())
    rows = run_sweep(spec)
    assert rows[0].error is not None and "ValueError" in rows[0].error
    assert rows[0].ec_analytical is None
    assert rows[1].error is None
    assert rows[1].ec_analytical > 0.0


def test_auto_rate_routes():
    cfg = LinkConfig()
    assert auto_rate(cfg, "siso_nocsi", 0.1) == pytest.approx(1.2783, abs=5e-3)
    assert auto_rate(LinkConfig(n_tx=10), "miso_nocsi", 10.0) > 0.0


def test_auto_rate_rejects_single_antenna_kappa_mode():
    for mode in ("closed", "bogus"):
        with pytest.raises(ValueError, match="applies only to the beamformed link"):
            auto_rate(LinkConfig(), "siso_nocsi", 0.1, kappa_mode=mode)


# The closed-form design grid: surface sizes, transmit powers and QoS
# exponents wide enough to reach every regime of the single-antenna link.
GRID_N = (1, 4, 16, 100, 400, 2000, 20000)
GRID_P_T = (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1e1, 1e3)
GRID_ALPHA = (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3)


def test_auto_rate_reaches_the_fine_grid_peak():
    """Over all 343 single-antenna design cells the coarse grid and its
    Brent refinement achieve at least the EC of the 800-point reference
    grid over the same span, and never more than the mean service."""
    for n, p_t, alpha in itertools.product(GRID_N, GRID_P_T, GRID_ALPHA):
        cfg = LinkConfig(n_elems=n, p_t=p_t)
        dist = siso_snr_dist(cfg)
        r_max = 2.0 * cfg.bandwidth * math.log1p(dist.beta * (1.0 + dist.lam)) / LN2
        rate = auto_rate(cfg, "siso_nocsi", alpha)
        ec = ec_siso_nocsi(cfg, alpha, rate).ec_bits_per_slot
        grid = grid_argmax_reference(cfg, alpha, "siso_nocsi", r_max=r_max,
                                     points=800)
        cell = (n, p_t, alpha)
        assert ec >= grid.ec_at_r_star * (1.0 - 1e-9), cell
        assert ec <= mean_service(cfg, "siso_nocsi", rate) * (1.0 + 1e-12), cell


@pytest.mark.parametrize("alpha", [0.1, 10.0])
def test_auto_rate_evaluation_budget(monkeypatch, alpha):
    """The single-antenna optimum costs at most 100 EC evaluations."""
    calls = []
    on_off_probs = eccore.on_off_probs

    def counted(*args):
        calls.append(args)
        return on_off_probs(*args)

    monkeypatch.setattr(eccore, "on_off_probs", counted)
    auto_rate(LinkConfig(), "siso_nocsi", alpha)
    assert 0 < len(calls) <= 100


def test_write_csv_header_only():
    buf = io.StringIO()
    write_csv([], buf)
    assert buf.getvalue() == ",".join(CSV_HEADER) + "\n"


def test_csv_roundtrip(tmp_path):
    rows = run_sweep(_rate_spec(values=(1.0, 1.5), mc_slots=10_000))
    path = tmp_path / "sweep.csv"
    emit_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = list(csv.reader(fh))
    assert reader[0] == list(CSV_HEADER)
    assert len(reader) == 1 + len(rows)
    for row, rec in zip(rows, reader[1:]):
        assert rec[0] == "rate"
        assert float(rec[1]) == row.value  # repr floats survive exactly
        assert float(rec[3]) == row.ec_analytical
        assert float(rec[4]) == row.ec_oracle
        assert rec[7] == ""


def test_emit_csv_path_error(tmp_path):
    with pytest.raises(OSError, match="cannot write CSV"):
        emit_csv([], tmp_path / "missing" / "sweep.csv")


def test_plot_renders_one_polyline_per_alpha(tmp_path):
    rows = run_sweep(_rate_spec(alpha_list=(0.1, 1.0)))
    path = tmp_path / "sweep.svg"
    emit_plot(rows, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 2
    assert "alpha=0.1" in text and "alpha=1" in text
    assert "EC (bits/slot)" in text
    assert ">rate</text>" in text
    # rendering is a pure function of the table
    again = tmp_path / "sweep2.svg"
    emit_plot(rows, again)
    assert again.read_bytes() == path.read_bytes()


def test_plot_log_axis_for_power(tmp_path):
    spec = SweepSpec(scenario="siso_csi", sweep_var="p_t",
                     values=(1e-4, 1e-3, 1e-2), fixed=LinkConfig())
    path = tmp_path / "power.svg"
    emit_plot(run_sweep(spec), path)
    text = path.read_text(encoding="utf-8")
    assert ">0.001</text>" in text  # decade tick, not its log


def test_plot_input_gates(tmp_path):
    with pytest.raises(ValueError):
        emit_plot([], tmp_path / "x.svg")
    spec = SweepSpec(scenario="siso_csi", sweep_var="p_t",
                     values=(-2e-3, -1e-3), fixed=LinkConfig())
    all_failed = run_sweep(spec)
    assert all(r.error is not None for r in all_failed)
    with pytest.raises(ValueError):
        emit_plot(all_failed, tmp_path / "y.svg")


def test_tx_antenna_sweep_is_flat():
    """The beamformed law sees the array only through the unit-norm
    precoder power, so every N_t of the figure sweep gives the same EC."""
    n_tx = (1.0, 2.0, 4.0, 8.0, 10.0)
    alphas = (0.1, 1.0)
    rows = run_sweep(SweepSpec(scenario="miso_csi", sweep_var="N_t",
                               values=n_tx, fixed=LinkConfig(n_tx=1),
                               alpha_list=alphas))
    assert all(r.error is None for r in rows)
    for alpha in alphas:
        exact = {r.ec_analytical for r in rows if r.alpha == alpha}
        closed = {ec_miso_csi(LinkConfig(n_tx=int(n)), alpha,
                              kappa_mode="closed").ec_bits_per_slot
                  for n in n_tx}
        assert len(exact) == 1
        assert len(closed) == 1
