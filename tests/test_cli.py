"""Command-line verbs, driven in-process through main()."""

import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import irsec
from irsec.channel import LinkConfig
from irsec.cli import _build_config, build_parser, main
from irsec.eccore import SCENARIOS, mean_service
from irsec.mcoracle import empirical_ec
from irsec.sweeps import CSV_HEADER, auto_rate
from reference_samplers import simulate_service, write_link_config


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _kv(out):
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            pairs[key] = value
    return pairs


def test_ec_siso_csi(capsys):
    code, out, err = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "0.1"])
    assert code == 0 and err == ""
    kv = _kv(out)
    assert float(kv["ec_bits_per_slot"]) == pytest.approx(1.5207157856381238, rel=1e-10)
    assert float(kv["diag.lam"]) == pytest.approx(160.99457599185225, rel=1e-13)
    assert "diag.relaxed_addends.ln_hyp1f1" in kv


def test_ec_nocsi_optimizes_omitted_rate(capsys):
    code, out, _ = _run(capsys, ["ec", "--scenario", "siso_nocsi", "--alpha", "0.1"])
    assert code == 0
    kv = _kv(out)
    assert float(kv["rate"]) == pytest.approx(1.2783, abs=5e-3)
    assert float(kv["ec_bits_per_slot"]) == pytest.approx(1.2075111, rel=1e-4)


def test_ec_flag_overrides(capsys):
    code, out, _ = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "0.1",
                                 "--g-t-db", "13", "--n-elems", "64"])
    assert code == 0
    kv = _kv(out)
    assert float(kv["diag.lam"]) == pytest.approx(64 * 160.99457599185225 / 100, rel=1e-12)


def test_config_file_equals_flags(tmp_path, capsys):
    path = tmp_path / "link.cfg"
    write_link_config(LinkConfig(p_t=2e-3), path)
    code1, out1, _ = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "0.1",
                                   "--config", str(path)])
    code2, out2, _ = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "0.1",
                                   "--p-t", "2e-3"])
    assert code1 == code2 == 0
    assert _kv(out1)["ec_bits_per_slot"] == _kv(out2)["ec_bits_per_slot"]


def test_optimize_rate_auto_routes(capsys):
    code, out, _ = _run(capsys, ["optimize-rate", "--scenario", "siso_nocsi",
                                 "--alpha", "0.1"])
    assert code == 0
    kv = _kv(out)
    assert kv["method"] == "grid"
    assert float(kv["r_star"]) == pytest.approx(1.2783, abs=1e-2)

    code, out, _ = _run(capsys, ["optimize-rate", "--scenario", "miso_nocsi",
                                 "--alpha", "10"])
    assert code == 0
    kv = _kv(out)
    assert kv["method"] == "root_find"
    assert float(kv["r_star"]) > 0.0
    assert float(kv["ec_at_r_star"]) > 0.0


@pytest.mark.parametrize("scenario, flags", [
    ("siso_nocsi", ["--n-elems", "16"]),
    ("siso_nocsi", ["--p-t", "1e-5"]),
    ("siso_nocsi", []),
    ("miso_nocsi", ["--kappa-mode", "closed"]),
])
def test_optimize_rate_default_is_the_ec_rate(capsys, scenario, flags):
    """The default method prints the rate irsec ec transmits at, bit for
    bit, with the EC there; links where the descent stalls answer too."""
    argv = ["--scenario", scenario, "--alpha", "0.1", *flags]
    code, out, _ = _run(capsys, ["optimize-rate", *argv])
    assert code == 0
    opt = _kv(out)
    code, out, _ = _run(capsys, ["ec", *argv])
    assert code == 0
    ec = _kv(out)
    assert opt["r_star"] == ec["rate"]
    assert opt["ec_at_r_star"] == ec["ec_bits_per_slot"]
    if scenario == "siso_nocsi":
        assert opt["method"] == "grid"
    if flags == ["--n-elems", "16"]:
        assert opt["r_star"] == "0.05201246421374107"


def test_optimize_rate_scenario_gate(capsys):
    """optimize-rate has one answer per link and no route to choose:
    --method is an argparse usage error on either link."""
    for scenario in ("siso_nocsi", "miso_nocsi"):
        with pytest.raises(SystemExit) as exit_info:
            main(["optimize-rate", "--scenario", scenario, "--alpha", "0.1",
                  "--method", "descent"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert "--method" in err
        assert out == ""


def test_optimize_rate_help_lists_no_route_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["optimize-rate", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--scenario", "--alpha", "--kappa-mode", "--config", "--n-elems"):
        assert flag in out, flag
    for flag in ("--method", "--r0", "--step", "--conv-tol", "--max-iters",
                 "--r-max", "--points"):
        assert flag not in out, flag


# the six lines optimize-rate printed before it reported the paper's solver
_RATE_LINES = {
    ("siso_nocsi", "0.1", ()): [
        "scenario = siso_nocsi", "alpha = 0.1", "method = grid",
        "r_star = 1.2782897695409108", "ec_at_r_star = 1.2075111288102678",
        "iterations = 35"],
    ("siso_nocsi", "0.1", ("--n-elems", "16")): [
        "scenario = siso_nocsi", "alpha = 0.1", "method = grid",
        "r_star = 0.05201246421374107", "ec_at_r_star = 0.03835292574957367",
        "iterations = 33"],
    ("miso_nocsi", "10", ()): [
        "scenario = miso_nocsi", "alpha = 10.0", "method = root_find",
        "r_star = 0.01958195151707016", "ec_at_r_star = 0.007511620381766675",
        "iterations = 4"],
}


def _optimize_rate(capsys, key):
    scenario, alpha, flags = key
    code, out, err = _run(capsys, ["optimize-rate", "--scenario", scenario,
                                   "--alpha", alpha, *flags])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[:6] == _RATE_LINES[key]
    assert all(line.startswith("paper.") for line in lines[6:])
    return _kv(out)


def test_optimize_rate_reports_the_paper_descent(capsys):
    kv = _optimize_rate(capsys, ("siso_nocsi", "0.1", ()))
    assert kv["paper.method"] == "gradient_descent"
    assert kv["paper.iterations"] == "304"
    assert float(kv["paper.ec_at_r_star"]) == pytest.approx(
        float(kv["ec_at_r_star"]), rel=1e-9)
    assert "paper.closed_form_valid" not in kv


def test_optimize_rate_refuses_a_dead_descent(capsys):
    """With 16 elements the paper's descent start has EC 0 and no usable
    gradient: the command still answers, and reports the descent's
    failure naming r0 instead of printing r* = r0."""
    kv = _optimize_rate(capsys, ("siso_nocsi", "0.1", ("--n-elems", "16")))
    assert kv["paper.error"].startswith("ValueError: descent stalls at r0 = 1.0")
    assert "paper.r_star" not in kv


def test_optimize_rate_reports_a_descent_that_does_not_converge(capsys):
    code, out, err = _run(capsys, ["optimize-rate", "--scenario", "siso_nocsi",
                                   "--alpha", "10", "--n-elems", "64", "--p-t", "0.1"])
    assert code == 0 and err == ""
    kv = _kv(out)
    assert kv["method"] == "grid" and float(kv["ec_at_r_star"]) > 0.0
    assert kv["paper.error"].startswith(
        "NonConvergenceError: descent did not converge in 100000 iterations")


def test_optimize_rate_descent_where_alpha_slot_overflows(capsys):
    """alpha * slot = inf leaves the descent's decay terms at their limit
    0, not a NaN iterate reported as a rate of 0."""
    code, out, err = _run(capsys, ["optimize-rate", "--scenario", "siso_nocsi",
                                   "--alpha", "1e200", "--slot", "1e200"])
    assert code == 0 and err == ""
    paper_lines = [line for line in out.splitlines() if line.startswith("paper.")]
    assert paper_lines and not any("rate = 0" in line for line in paper_lines)


def test_optimize_rate_reports_the_paper_closed_form(capsys):
    kv = _optimize_rate(capsys, ("miso_nocsi", "10", ()))
    assert kv["paper.method"] == "closed_form"
    assert kv["paper.closed_form_valid"] == "False"
    assert kv["paper.iterations"] == "0"


def test_sweep_writes_files(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    code, out, _ = _run(capsys, [
        "sweep", "--scenario", "siso_csi", "--sweep-var", "p_t",
        "--values", "1e-4,1e-3,1e-2",
        "--csv", str(csv_path), "--svg", str(svg_path)])
    assert code == 0
    assert "rows = 3" in out and "row_errors = 0" in out
    assert csv_path.read_text(encoding="utf-8").startswith(",".join(CSV_HEADER))
    assert svg_path.read_text(encoding="utf-8").startswith("<svg ")


def test_sweep_stdout_csv(capsys):
    code, out, _ = _run(capsys, [
        "sweep", "--scenario", "siso_nocsi", "--sweep-var", "rate",
        "--values", "1.0,1.5"])
    assert code == 0
    assert out.splitlines()[0] == ",".join(CSV_HEADER)
    assert "rows = 2" in out


def test_sweep_env_seed(monkeypatch, capsys):
    argv = ["sweep", "--scenario", "siso_nocsi", "--sweep-var", "rate",
            "--values", "1.0,1.5", "--mc-slots", "10000"]
    monkeypatch.setenv("IRS_EC_SEED", "777")
    _, out_env, _ = _run(capsys, argv)
    monkeypatch.delenv("IRS_EC_SEED")
    _, out_flag, _ = _run(capsys, argv + ["--seed", "777"])
    _, out_other, _ = _run(capsys, argv + ["--seed", "778"])
    assert out_env == out_flag
    assert out_env != out_other


def test_env_seed_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("IRS_EC_SEED", "abc")
    code, out, err = _run(capsys, ["validate", "--mc-slots", "100"])
    assert code == 2
    assert err == "error: ValueError: IRS_EC_SEED must be an integer, got 'abc'\n"
    assert "rel_err" not in out


def test_ec_kappa_mode_closed(capsys):
    """The paper's closed-form constant stays selectable beside the exact one."""
    argv = ["ec", "--scenario", "miso_csi", "--alpha", "0.1"]
    code, out, _ = _run(capsys, argv + ["--kappa-mode", "closed"])
    assert code == 0
    kv = _kv(out)
    assert kv["diag.kappa_mode"] == "'closed'"
    assert float(kv["diag.kappa"]) == pytest.approx(8658.6, rel=1e-4)
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert _kv(out)["diag.kappa_mode"] == "'exact'"


@pytest.mark.parametrize("scenario, budget", [
    ("miso_csi", ["--p-t", "1e300", "--sigma2", "1e-300"]),   # kappa underflows to 0
    ("miso_csi", ["--p-t", "1e-300", "--sigma2", "1e300"]),   # sigma2^2 overflows
    ("miso_csi", ["--p-t", "1e-158"]),                        # (p_t ...)^2 underflows to 0
    ("miso_nocsi", ["--p-t", "1e-158"]),
])
def test_ec_closed_kappa_out_of_range_names_the_budget(capsys, scenario, budget):
    """A closed kappa that is not a positive finite double exits 2 with a
    ValueError naming every input of the expression."""
    argv = ["ec", "--scenario", scenario, "--alpha", "1", "--kappa-mode", "closed"]
    code, out, err = _run(capsys, argv + budget)
    assert code == 2
    assert err.startswith("error: ValueError: the closed kappa"), err
    for name in ("n_elems = 100", "p_t = ", "sigma2 = ", "pathloss = ", "|f|^2 = 1.0"):
        assert name in err, err
    assert "ec_bits_per_slot" not in out


def test_ec_closed_mode_optimizes_rate_under_closed_law(capsys):
    """An omitted rate is optimized under the same kappa the EC uses."""
    mode = ["--scenario", "miso_nocsi", "--alpha", "0.1", "--kappa-mode", "closed"]
    code, out, _ = _run(capsys, ["ec"] + mode)
    assert code == 0
    kv = _kv(out)
    code, out, _ = _run(capsys, ["optimize-rate"] + mode)
    assert code == 0
    opt = _kv(out)
    assert kv["rate"] == opt["r_star"]
    assert kv["ec_bits_per_slot"] == opt["ec_at_r_star"]
    assert float(kv["ec_bits_per_slot"]) > 0.0


def test_single_antenna_rejects_kappa_mode(capsys):
    """A kappa mode on the single-antenna link exits 2 on every verb
    that takes one, before optimize-rate runs the kappa-free descent."""
    flags = ["--alpha", "0.1", "--kappa-mode", "closed"]
    for argv in (["ec", "--scenario", "siso_csi"],
                 ["ec", "--scenario", "siso_nocsi"],
                 ["optimize-rate", "--scenario", "siso_nocsi"]):
        code, out, err = _run(capsys, argv + flags)
        assert code == 2, argv
        assert err.startswith("error: ValueError: kappa_mode 'closed'"), argv
        assert out == "", argv


def test_validate_smoke(capsys):
    code, out, _ = _run(capsys, ["validate", "--mc-slots", "2000"])
    assert code == 0
    assert sum("rel_err" in line for line in out.splitlines()) == 4
    assert "systematic_bias" in out


def test_validate_draws_every_branch_at_seed(capsys, fading_calls):
    """Every branch of validate draws its oracle at seed itself, so the
    CSI and no-CSI branches of one link share one fading draw: one
    siso_fading and one miso_fading call per validate."""
    code, out, _ = _run(capsys, ["validate", "--mc-slots", "5000", "--seed", "11"])
    assert code == 0
    assert fading_calls == ["siso_fading", "miso_fading"]
    lines = [line for line in out.splitlines() if "rel_err" in line]
    assert [line.split(":")[0] for line in lines] == list(SCENARIOS)
    for line, (name, entry) in zip(lines, SCENARIOS.items()):
        cfg = LinkConfig(n_tx=10) if entry.beamformed else LinkConfig()
        rate = None if entry.adaptive else auto_rate(cfg, name, 0.1)
        want = empirical_ec(simulate_service(cfg, name, rate, 11, 5000), 0.1)
        assert f", oracle = {want.value:.6f}, stderr = {want.stderr:.2g}," in line, line


def test_validate_rejects_zero_slots(capsys):
    code, out, err = _run(capsys, ["validate", "--mc-slots", "0"])
    assert code == 2
    assert err.startswith("error: ValueError:")
    assert "rel_err" not in out


def test_validate_rejects_nonpositive_alpha(capsys):
    code, out, err = _run(capsys, ["validate", "--alpha", "-1", "--mc-slots", "1000"])
    assert code == 2
    assert err.startswith("error: ValueError: alpha must be strictly positive")
    assert "rel_err" not in out


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_ec_rejects_infinite_alpha(capsys, scenario):
    """Every branch refuses alpha = inf as input rather than answering
    it each in its own way."""
    code, out, err = _run(capsys, ["ec", "--scenario", scenario, "--alpha", "inf"])
    assert code == 2
    assert err.startswith("error: ValueError: alpha must be finite")
    assert "ec_bits_per_slot" not in out


NOCSI_EC_LINES = {
    "siso_nocsi": [
        "rate = 1.2782897695409108",
        "ec_bits_per_slot = 1.2075111288102678",
        "diag.beta = 0.011646355092701335",
        "diag.lam = 160.99457599185223",
        "diag.ln_mgf = -0.12075111288102679",
        "diag.p_off = 0.05209036420368654",
        "diag.p_on = 0.9479096357963135",
        "diag.rate = 1.2782897695409108",
        "diag.slot = 1.0",
    ],
    "miso_nocsi": [
        "rate = 0.021577540044086827",
        "ec_bits_per_slot = 0.008000354034445436",
        "diag.kappa = 65.79736267392904",
        "diag.kappa_mode = 'exact'",
        "diag.ln_mgf = -0.0008000354034445437",
        "diag.p_off = 0.628975979785146",
        "diag.p_on = 0.37102402021485403",
        "diag.rate = 0.021577540044086827",
        "diag.slot = 1.0",
    ],
}


@pytest.mark.parametrize("scenario", list(NOCSI_EC_LINES))
def test_ec_nocsi_prints_the_pinned_chain(capsys, scenario):
    """irsec ec at the reference link prints these lines exactly: the
    optimized rate, the EC and the on/off chain behind it."""
    code, out, err = _run(capsys, ["ec", "--scenario", scenario, "--alpha", "0.1"])
    assert code == 0 and err == ""
    assert out.splitlines() == [f"scenario = {scenario}", "alpha = 0.1",
                                *NOCSI_EC_LINES[scenario]]


@pytest.mark.parametrize("flags", [
    ["--sweep-var", "rate", "--values", "nan"],
    ["--sweep-var", "rate", "--values", "1.0", "--alphas", "nan"],
    ["--sweep-var", "alpha", "--values=-1,0.1"],
])
def test_sweep_refuses_nan_values_and_bad_exponents(capsys, flags):
    """A NaN sweep value or an exponent alpha_value refuses is an input
    error (exit 2), not a table of row errors."""
    code, out, err = _run(capsys, ["sweep", "--scenario", "siso_nocsi", *flags,
                                   "--mc-slots", "100"])
    assert code == 2
    assert err.startswith("error: ValueError: ")
    assert "rows = " not in out


@pytest.mark.parametrize("values", [["--values", "-1,0.1"], ["--values=-1,0.1"]])
def test_sweep_negative_values_reach_the_alpha_check(capsys, values):
    """A value list that starts with a minus sign is the value of
    --values in either spelling, not an unknown option: the sweep
    refuses it for its exponent, as alpha_value does."""
    code, out, err = _run(capsys, ["sweep", "--scenario", "siso_nocsi",
                                   "--sweep-var", "alpha", *values, "--mc-slots", "100"])
    assert code == 2
    assert err == "error: ValueError: alpha must be strictly positive\n"
    assert out == ""


def test_negative_float_flag_reaches_the_config_check(capsys):
    code, out, err = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "0.1",
                                   "--p-t", "-1e-3"])
    assert code == 2
    assert err == "error: ValueError: p_t must be strictly positive\n"


def test_db_gain_overflow_names_the_flag(capsys):
    code, out, err = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "0.1",
                                   "--g-t-db", "4000"])
    assert code == 2
    assert err.startswith("error: OverflowError: --g-t-db 4000.0: ")
    assert "ec_bits_per_slot" not in out


def test_db_gain_overflow_in_config_names_the_line(tmp_path, capsys):
    path = tmp_path / "link.cfg"
    path.write_text("# link\ng_r_db = 4000\n", encoding="utf-8")
    code, _, err = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "0.1",
                                 "--config", str(path)])
    assert code == 2
    assert err.startswith(f"error: OverflowError: {path}:2: g_r_db = 4000: ")


def test_nonfinite_link_value_is_named(tmp_path, capsys):
    """An infinite power is refused as input, by flag or by file, not
    left to fail inside the quadrature; the file's error names its line."""
    path = tmp_path / "link.cfg"
    path.write_text("p_t = 1e400\n", encoding="utf-8")
    for extra, where in ((["--p-t", "inf"], ""), (["--config", str(path)], f"{path}:1: ")):
        code, _, err = _run(capsys, ["ec", "--scenario", "siso_csi",
                                     "--alpha", "0.1", *extra])
        assert code == 2
        assert err == f"error: ValueError: {where}p_t must be finite\n", extra


def test_nonfinite_precoder_in_config_names_the_line(tmp_path, capsys):
    """An infinite weight is refused at its line, not blamed on kappa."""
    path = tmp_path / "link.cfg"
    path.write_text("# one antenna\nn_tx = 1\nprecoder = inf\n", encoding="utf-8")
    code, out, err = _run(capsys, ["ec", "--scenario", "miso_csi", "--alpha", "0.1",
                                   "--config", str(path)])
    assert code == 2
    assert err == f"error: ValueError: {path}:3: precoder must be finite\n"
    assert "ec_bits_per_slot" not in out


def test_miso_csi_moment_overflow_is_an_error(capsys):
    """A slot long enough to overflow the service moments exits 2 naming
    slot * bandwidth instead of printing a NaN EC."""
    code, out, err = _run(capsys, ["ec", "--scenario", "miso_csi", "--alpha", "0.1",
                                   "--slot", "1e300"])
    assert code == 2
    assert err.startswith("error: OverflowError: ") and "slot * bandwidth" in err
    assert "ec_bits_per_slot" not in out


def test_fixed_rate_ec_overflow_is_an_error(capsys):
    """A rate * slot past the largest double, at an exponent so small
    that -ln M / alpha overflows, exits 2 naming alpha instead of
    printing an infinite EC."""
    code, out, err = _run(capsys, ["ec", "--scenario", "miso_nocsi", "--n-tx", "4",
                                   "--p-t", "1e-103", "--alpha", "1e-319",
                                   "--bandwidth", "1e295", "--slot", "1e256"])
    assert code == 2
    assert err.startswith("error: ValueError: ") and "alpha = 1e-319" in err
    assert "ec_bits_per_slot" not in out


@pytest.mark.parametrize("flag", ["--slot", "--bandwidth"])
def test_miso_rate_root_answers_at_long_slot_bandwidth(capsys, flag):
    """A slot or bandwidth of 1e300, far past where a bisection from the
    bandwidth ran out of halvings, is answered by the root in ln r."""
    code, out, err = _run(capsys, ["ec", "--scenario", "miso_nocsi", "--alpha", "0.1",
                                   flag, "1e300"])
    assert code == 0 and err == ""
    assert float(_kv(out)["ec_bits_per_slot"]) == pytest.approx(6781.225044812646, rel=1e-12)


@pytest.mark.parametrize("verb", ["ec", "optimize-rate"])
@pytest.mark.parametrize("flags, named", [
    (["--alpha", "1e-320"], "alpha = 1e-320"),
    (["--alpha", "1", "--bandwidth", "1e-320"], "bandwidth = 1e-320"),
    (["--alpha", "1", "--slot", "1e-320"], "slot = 1e-320"),
    (["--alpha", "1", "--sigma2", "1e308"], "sigma2 = 1e+308"),
    (["--alpha", "1e305", "--p-t", "1e3"], "alpha = 1e+305"),
])
def test_miso_nocsi_underflow_names_the_input(capsys, verb, flags, named):
    """A noise so large that the beamformed mean SNR underflows exits 2
    naming it. An exponent, bandwidth or slot so small, or an exponent so
    large, that the stationarity constant B alpha T / (kappa ln 2) leaves
    the doubles is answered by the root in ln r, with a finite EC no
    larger than the mean service; optimize-rate then prints the paper's
    closed form, which needs that constant, as a paper.error naming the
    input. None ends in a raw math domain or range error."""
    argv = [verb, "--scenario", "miso_nocsi", "--n-tx", "4", *flags]
    code, out, err = _run(capsys, argv)
    assert "math domain error" not in err + out and "math range error" not in err + out
    if "--sigma2" in flags:
        assert code == 2
        assert err.startswith("error: ValueError: ") and named in err
        assert "r_star" not in out and "ec_bits_per_slot" not in out
        return
    assert code == 0 and err == ""
    kv = _kv(out)
    if verb == "ec":
        ec, rate = float(kv["ec_bits_per_slot"]), float(kv["rate"])
    else:
        ec, rate = float(kv["ec_at_r_star"]), float(kv["r_star"])
        assert kv["paper.error"].startswith("ValueError: ") and named in kv["paper.error"]
    cfg = _build_config(build_parser().parse_args(argv), "miso_nocsi")
    assert 0.0 < ec <= mean_service(cfg, "miso_nocsi", rate) < math.inf


def test_siso_csi_budget_overflow_names_the_input(capsys):
    """A power and noise whose ratio overflows the SNR scale exit 2 naming
    p_t and sigma2, not an empty min() inside the quadrature."""
    code, out, err = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "1",
                                   "--p-t", "1e300", "--sigma2", "1e-300", "--slot", "1e140"])
    assert code == 2
    assert err.startswith("error: ValueError: ")
    assert "p_t = 1e+300, sigma2 = 1e-300" in err
    assert "min() arg" not in err
    assert "ec_bits_per_slot" not in out


def test_bad_input_exit_code(capsys):
    code, out, err = _run(capsys, ["ec", "--scenario", "siso_csi", "--alpha", "-0.5"])
    assert code == 2
    assert err.startswith("error: ValueError:")
    assert "ec_bits_per_slot" not in out


def test_ec_rejects_rate_for_adaptive_scenario(capsys):
    code, out, err = _run(capsys, ["ec", "--scenario", "siso_csi",
                                   "--alpha", "1", "--rate", "5"])
    assert code == 2
    assert err.startswith("error: ValueError:") and "rate" in err
    assert "ec_bits_per_slot" not in out


def test_ec_rejects_method_outside_siso_csi(capsys):
    """ec has no evaluation route to choose, siso_csi included: the
    flag is an argparse usage error."""
    for scenario in SCENARIOS:
        with pytest.raises(SystemExit) as exit_info:
            main(["ec", "--scenario", scenario, "--alpha", "1", "--method", "relaxed"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert "--method" in err
        assert "ec_bits_per_slot" not in out


def test_module_entry_point():
    # the child does not inherit pytest's sys.path, so point it at the
    # package this process imported
    src = str(Path(irsec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "irsec.cli", "ec",
         "--scenario", "miso_csi", "--alpha", "0.1"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0
    assert "ec_bits_per_slot = " in proc.stdout
    assert "diag.kappa = 65.79" in proc.stdout  # ten-antenna default budget


def _readme_commands():
    """Every `irsec ...` command in README.md's sh blocks, with its
    backslash-continued lines joined and its comment dropped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["irsec"]:
                yield words[1:]


def test_readme_commands_parse():
    """A flag removed from the CLI but still documented fails here."""
    parser = build_parser()
    verbs = set()
    for argv in _readme_commands():
        try:
            verbs.add(parser.parse_args(argv).verb)
        except SystemExit:
            pytest.fail(f"README command does not parse: irsec {shlex.join(argv)}")
    assert verbs == {"ec", "sweep", "optimize-rate", "validate"}
