"""Batch front-end: single evaluations, sweeps, rate optimization, and
the analytical-vs-oracle validation report.

Every verb accepts `--config <file>` plus per-field override flags that
mirror the link-config field names. Exit code is 0 on success and 2 on
any failure, with a machine-readable `error: <Type>: <message>` line on
stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from dataclasses import replace

from irsec import paper
from irsec.channel import _FLOAT_FIELDS, _INT_FIELDS, LinkConfig, load_link_config
from irsec.eccore import SCENARIOS
from irsec.rateopt import RateSolution
from irsec.sweeps import (
    SWEEP_VARS,
    SweepSpec,
    auto_rate,
    auto_rate_solution,
    emit_csv,
    emit_plot,
    run_sweep,
    write_csv,
)

DEFAULT_SEED = 12345
SEED_ENV_VAR = "IRS_EC_SEED"

# Table-style default when a MISO scenario is requested without an
# explicit antenna count from flag or config file.
MISO_DEFAULT_N_TX = 10

# one flag per link field, and the gains in dB
_FLOAT_FLAGS = _FLOAT_FIELDS + ("g_t_db", "g_r_db")

# argparse reads a token that starts with "-" as an option unless it is a
# plain negative number such as -1 or -.5, so "--values -1,0.1" and
# "--p-t -1e-3" would stop at "expected one argument" before the value is
# checked. No option of this CLI starts with a digit or a dot, so such a
# token is the value of the option before it.
_NUMERIC_VALUE = re.compile(r"-[\d.]")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, metavar="FILE",
                   help="link config file; flags below override its fields")
    for name in _FLOAT_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=float,
                       default=None, dest=name)
    for name in _INT_FIELDS:
        p.add_argument("--" + name.replace("_", "-"), type=int,
                       default=None, dest=name)
    p.add_argument("--precoder", default=None,
                   help="comma-separated complex weights")


def _build_config(args, scenario: str | None = None) -> LinkConfig:
    cfg = load_link_config(args.config) if args.config else LinkConfig()
    overrides = {}
    for name in _FLOAT_FLAGS + _INT_FIELDS:
        value = getattr(args, name)
        if value is None:
            continue
        if name.endswith("_db"):
            try:
                overrides[name[:-3]] = 10.0 ** (value / 10.0)
            except OverflowError:
                flag = "--" + name.replace("_", "-")
                raise OverflowError(
                    f"{flag} {value!r}: the linear gain overflows a float") from None
        else:
            overrides[name] = value
    if args.precoder is not None:
        overrides["precoder"] = tuple(
            complex(tok.strip()) for tok in args.precoder.split(","))
    if (scenario is not None and SCENARIOS[scenario].beamformed
            and "n_tx" not in overrides and args.config is None):
        overrides["n_tx"] = MISO_DEFAULT_N_TX
    if "n_tx" in overrides and "precoder" not in overrides:
        # re-derive the equal-power default at the new antenna count
        overrides["precoder"] = None
    return replace(cfg, **overrides) if overrides else cfg


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _print_diag(diag: dict) -> None:
    for key in sorted(diag):
        value = diag[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                print(f"diag.{key}.{sub} = {value[sub]!r}")
        else:
            print(f"diag.{key} = {value!r}")


def _cmd_ec(args) -> int:
    cfg = _build_config(args, args.scenario)
    entry = SCENARIOS[args.scenario]
    rate = args.rate
    if not entry.adaptive and rate is None:
        rate = auto_rate(cfg, args.scenario, args.alpha, kappa_mode=args.kappa_mode)
    res = entry.ec(cfg, args.alpha, rate, kappa_mode=args.kappa_mode)
    diag = res.diagnostics
    if args.scenario == "siso_csi":  # the paper's closed form beside the EC
        diag = {**diag, **paper.siso_csi_relaxed(cfg, args.alpha)}
    print(f"scenario = {args.scenario}")
    print(f"alpha = {args.alpha!r}")
    if rate is not None:
        print(f"rate = {rate!r}")
    print(f"ec_bits_per_slot = {res.ec_bits_per_slot!r}")
    _print_diag(diag)
    return 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        scenario=args.scenario,
        sweep_var=args.sweep_var,
        values=_parse_floats(args.values),
        fixed=_build_config(args, args.scenario),
        alpha_list=_parse_floats(args.alphas),
        seed=_resolve_seed(args),
        mc_slots=args.mc_slots,
    )
    table = run_sweep(spec)
    failed = sum(1 for row in table if row.error is not None)
    if args.csv:
        emit_csv(table, args.csv)
        print(f"csv = {args.csv}")
    if args.svg:
        emit_plot(table, args.svg)
        print(f"svg = {args.svg}")
    if not args.csv and not args.svg:
        write_csv(table, sys.stdout)
    print(f"rows = {len(table)}")
    print(f"row_errors = {failed}")
    return 0


def _print_solution(prefix: str, sol: RateSolution) -> None:
    print(f"{prefix}method = {sol.method}")
    print(f"{prefix}r_star = {sol.r_star!r}")
    print(f"{prefix}ec_at_r_star = {sol.ec_at_r_star!r}")
    print(f"{prefix}iterations = {sol.iterations}")
    if sol.method == "closed_form":
        print(f"{prefix}closed_form_valid = {sol.closed_form_valid}")


def _cmd_optimize_rate(args) -> int:
    cfg = _build_config(args, args.scenario)
    sol = auto_rate_solution(cfg, args.scenario, args.alpha,
                             kappa_mode=args.kappa_mode)
    print(f"scenario = {args.scenario}")
    print(f"alpha = {args.alpha!r}")
    _print_solution("", sol)
    # the paper's solver on the same link, a diagnostic beside the answer
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # closed_form_valid says it
            if SCENARIOS[args.scenario].beamformed:
                form = paper.optimize_rate_miso_closed(cfg, args.alpha,
                                                       kappa_mode=args.kappa_mode)
            else:
                form = paper.optimize_rate_siso(cfg, args.alpha)
    except (ValueError, paper.NonConvergenceError) as exc:
        print(f"paper.error = {type(exc).__name__}: {exc}")
        return 0
    _print_solution("paper.", form)
    return 0


def _cmd_validate(args) -> int:
    if args.mc_slots < 1:
        raise ValueError("mc_slots must be >= 1: validate compares with the oracle")
    seed = _resolve_seed(args)
    alpha = args.alpha
    print(f"alpha = {alpha!r}")
    print(f"mc_slots = {args.mc_slots}")
    analytic = {}
    for scenario in SCENARIOS:
        # each branch is a one-row alpha sweep at seed; the oracle draws
        # once for the CSI and no-CSI branches of one link
        row, = run_sweep(SweepSpec(scenario, "alpha", (alpha,),
                                   _build_config(args, scenario),
                                   seed=seed, mc_slots=args.mc_slots))
        if row.error is not None:
            print(f"error: {row.error}", file=sys.stderr)
            return 2
        ec, oracle = row.ec_analytical, row.ec_oracle
        analytic[scenario] = ec
        rel = abs(ec - oracle) / max(abs(oracle), 1e-300)
        line = (f"{scenario}: analytic = {ec:.6f}, oracle = {oracle:.6f}, "
                f"stderr = {row.oracle_stderr:.2g}, rel_err = {rel:.3%}")
        if row.r_star is not None:
            line += f", r_star = {row.r_star:.6f}"
        print(line)
    form = paper.siso_csi_relaxed(_build_config(args, "siso_csi"), alpha)
    relaxed, exact = form["ec_relaxed"], analytic["siso_csi"]
    if relaxed == relaxed:  # NaN where the closed form diverges
        bias = (relaxed - exact) / exact
        print(f"siso_csi high-SNR closed form: relaxed = {relaxed:.6f}, "
              f"exact = {exact:.6f}, systematic_bias = {bias:.2%}, "
              f"low_snr_prob = {form['low_snr_prob']:.3f}")
    else:
        print("siso_csi high-SNR closed form: divergent at this alpha "
              "(alpha*bandwidth*slot/ln2 >= 1/2)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsec",
        description="Effective capacity of a reflecting-surface downlink: "
                    "closed forms, rate optimization, Monte Carlo checks.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_ec = sub.add_parser("ec", help="evaluate EC for one scenario")
    p_ec.add_argument("--scenario", required=True, choices=SCENARIOS)
    p_ec.add_argument("--alpha", required=True, type=float)
    p_ec.add_argument("--rate", type=float, default=None,
                      help="fixed rate; optimized automatically if omitted")
    p_ec.add_argument("--kappa-mode", choices=("exact", "closed"),
                      default="exact")
    _add_config_flags(p_ec)
    p_ec.set_defaults(func=_cmd_ec)

    p_sw = sub.add_parser("sweep", help="sweep one variable, write CSV/SVG")
    p_sw.add_argument("--scenario", required=True, choices=SCENARIOS)
    p_sw.add_argument("--sweep-var", required=True, choices=SWEEP_VARS)
    p_sw.add_argument("--values", required=True,
                      help="comma-separated, strictly increasing")
    p_sw.add_argument("--alphas", default="0.1",
                      help="comma-separated QoS exponents")
    p_sw.add_argument("--mc-slots", type=int, default=0,
                      help="Monte Carlo slots per row (0 = analytic only)")
    p_sw.add_argument("--seed", type=int, default=None,
                      help="oracle seed: one seed per sweep; rows with the "
                           "same element count share one fading draw")
    p_sw.add_argument("--csv", default=None, metavar="FILE")
    p_sw.add_argument("--svg", default=None, metavar="FILE")
    _add_config_flags(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)

    p_or = sub.add_parser(
        "optimize-rate",
        help="the fixed rate ec and sweep transmit at, the paper's solver beside it")
    p_or.add_argument("--scenario", required=True,
                      choices=[n for n, s in SCENARIOS.items() if not s.adaptive])
    p_or.add_argument("--alpha", required=True, type=float)
    p_or.add_argument("--kappa-mode", choices=("exact", "closed"),
                      default="exact")
    _add_config_flags(p_or)
    p_or.set_defaults(func=_cmd_optimize_rate)

    p_va = sub.add_parser("validate",
                          help="analytic-vs-oracle report over all scenarios")
    p_va.add_argument("--alpha", type=float, default=0.1)
    p_va.add_argument("--mc-slots", type=int, default=200_000)
    p_va.add_argument("--seed", type=int, default=None)
    _add_config_flags(p_va)
    p_va.set_defaults(func=_cmd_validate)

    return parser


def _attach_numeric_values(argv: list[str]) -> list[str]:
    """argv with each "--flag -1..." pair written as "--flag=-1..."."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NUMERIC_VALUE.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_numeric_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
