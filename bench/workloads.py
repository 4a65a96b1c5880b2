"""The benchmark's three workloads: what one job runs and how it is checked.

Each workload has a `run` step, which is the timed region of a job, and
a `check` step, which runs after it, untimed and untraced. `run` returns
each point's (start, end) on time.perf_counter and the raw outputs; `check` turns the outputs
into one verdict per operation plus the analytic values the digest
covers, in evaluation order.

Every irsec function is looked up on its module at call time, so that
the traced run sees the wrapped versions.

- figures_mc: the paper's figure set as users regenerate it, with a small
  oracle budget per row. Many small sampler calls, so per-call overhead
  in the samplers and in empirical_ec shows. A point is one figure
  (sweep, CSV and SVG); an operation is one sweep row.
- design_grid: every closed-form branch over a wide design grid, with no
  Monte Carlo at all. Exercises specfun, eccore and rateopt; a sampler
  change must leave it unchanged. A point is one design point (four
  branches); an operation is one branch evaluation. The grid keeps the
  cells where the closed forms are known to fail, so they are counted.
- validate_cli: the documented `irsec validate` command. A few large
  sampler calls, so sampler throughput and memory show. A point is one
  invocation; an operation is one validated branch.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import re
import time
from dataclasses import dataclass, replace

# figures_mc: oracle slots per sweep row.
FIGURES_MC_SLOTS = 10_000

# design_grid spans the range of the closed-form probe in ROADMAP.
GRID_N = (1, 4, 16, 100, 400, 2000, 20000)
GRID_P_T = (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1e1, 1e3)
GRID_ALPHA = (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3)
GRID_N_TX = 10

VALIDATE_SLOTS = 200_000
# The scorecard's cap on the analytic-vs-oracle gap, in percent.
VALIDATE_REL_ERR_CAP = 3.0

# EC may exceed the mean service only by rounding.
EC_REL_SLACK = 1e-12

_SCENARIOS = ("siso_csi", "siso_nocsi", "miso_csi", "miso_nocsi")


@dataclass
class Context:
    """What a job hands to a workload: modules, seed, size, scratch dir, clock."""

    mods: dict
    script: object
    seed: int
    tiny: bool
    out_dir: object
    clock: object = None


def check_ec(eccore, cfg, scenario, rate, ec, kappa_mode=None) -> str | None:
    """None if 0 <= EC <= mean service (to rounding), else the reason."""
    if not isinstance(ec, float) or not math.isfinite(ec):
        return f"EC not finite: {ec!r}"
    extra = {} if kappa_mode is None else {"kappa_mode": kappa_mode}
    try:
        mean = eccore.mean_service(cfg, scenario, rate, **extra)
    except Exception as exc:
        return f"mean_service raised {type(exc).__name__}: {exc}"
    slack = EC_REL_SLACK * abs(mean)
    if ec < -slack:
        return f"EC {ec!r} below 0"
    if ec > mean + slack:
        return f"EC {ec!r} above mean service {mean!r} (rel {(ec - mean) / mean:.3g})"
    return None


# ---------------------------------------------------------------- figures_mc

def _figure_specs(ctx: Context) -> dict:
    specs = ctx.script.build_specs(ctx.seed, FIGURES_MC_SLOTS)
    if ctx.tiny:
        specs = {name: replace(spec, values=spec.values[:2], mc_slots=1000)
                 for name, spec in specs.items()}
    return specs


def _row_config(spec, value):
    # the same mapping sweeps applies before evaluating a row
    if spec.sweep_var == "p_t":
        return replace(spec.fixed, p_t=value)
    if spec.sweep_var == "N":
        return replace(spec.fixed, n_elems=int(value))
    if spec.sweep_var == "N_t":
        return replace(spec.fixed, n_tx=int(value), precoder=None)
    return spec.fixed


def run_figures_mc(ctx: Context):
    sweeps = ctx.mods["sweeps"]
    points, figures = [], []
    for name, spec in _figure_specs(ctx).items():
        start = time.perf_counter()
        rows = sweeps.run_sweep(spec)
        sweeps.emit_csv(rows, ctx.out_dir / f"{name}.csv")
        sweeps.emit_plot(rows, ctx.out_dir / f"{name}.svg")
        points.append((start, time.perf_counter()))
        figures.append((name, spec, rows))
    return points, figures


def check_figures_mc(ctx: Context, figures):
    eccore = ctx.mods["eccore"]
    ops, analytic = [], []
    for name, spec, rows in figures:
        csv_lines = (ctx.out_dir / f"{name}.csv").read_text().count("\n")
        svg_ok = (ctx.out_dir / f"{name}.svg").stat().st_size > 0
        for k, row in enumerate(rows):
            label = f"{name}[{k}] {row.sweep_var}={row.value!r} alpha={row.alpha!r}"
            analytic += [repr(row.ec_analytical), repr(row.r_star)]
            ops.append((label, _check_row(eccore, spec, row, csv_lines, len(rows), svg_ok)))
    return ops, analytic


def _check_row(eccore, spec, row, csv_lines, n_rows, svg_ok) -> str | None:
    if row.error is not None:
        return f"row error: {row.error}"
    if csv_lines != n_rows + 1 or not svg_ok:
        return "CSV or SVG output incomplete"
    if row.ec_oracle is None or not math.isfinite(row.ec_oracle):
        return f"oracle EC not finite: {row.ec_oracle!r}"
    if row.oracle_stderr is None or not math.isfinite(row.oracle_stderr):
        return f"oracle stderr not finite: {row.oracle_stderr!r}"
    cfg = _row_config(spec, row.value)
    return check_ec(eccore, cfg, spec.scenario, row.r_star, row.ec_analytical)


# --------------------------------------------------------------- design_grid

def grid_points(seed: int, tiny: bool) -> list[tuple[int, float, float]]:
    """The design grid in the seed's evaluation order."""
    points = list(itertools.product(GRID_N, GRID_P_T, GRID_ALPHA))
    random.Random(seed).shuffle(points)
    return points[:8] if tiny else points


def _branch(fn):
    try:
        ec, rate = fn()
        return ec, rate, None
    except Exception as exc:
        return None, None, f"{type(exc).__name__}: {exc}"


def _design_point(mods, n, p_t, alpha):
    channel, eccore = mods["channel"], mods["eccore"]
    rateopt, sweeps = mods["rateopt"], mods["sweeps"]
    siso = channel.LinkConfig(n_elems=n, p_t=p_t)
    miso = channel.LinkConfig(n_elems=n, p_t=p_t, n_tx=GRID_N_TX)

    def siso_csi():
        return eccore.ec_siso_csi(siso, alpha).ec_bits_per_slot, None

    def siso_nocsi():
        rate = sweeps.auto_rate(siso, "siso_nocsi", alpha)
        return eccore.ec_siso_nocsi(siso, alpha, rate).ec_bits_per_slot, rate

    def miso_csi():
        res = eccore.ec_miso_csi(miso, alpha, kappa_mode="closed")
        return res.ec_bits_per_slot, None

    def miso_nocsi():
        rate = rateopt.solve_rate_miso_exact(miso, alpha, kappa_mode="closed").r_star
        res = eccore.ec_miso_nocsi(miso, alpha, rate, kappa_mode="closed")
        return res.ec_bits_per_slot, rate

    return [(siso, "siso_csi", None, *_branch(siso_csi)),
            (siso, "siso_nocsi", None, *_branch(siso_nocsi)),
            (miso, "miso_csi", "closed", *_branch(miso_csi)),
            (miso, "miso_nocsi", "closed", *_branch(miso_nocsi))]


def run_design_grid(ctx: Context):
    points, outputs = [], []
    for n, p_t, alpha in grid_points(ctx.seed, ctx.tiny):
        start = time.perf_counter()
        branches = _design_point(ctx.mods, n, p_t, alpha)
        points.append((start, time.perf_counter()))
        outputs.append(((n, p_t, alpha), branches))
        ctx.clock.mark()
    return points, outputs


def check_design_grid(ctx: Context, outputs):
    eccore = ctx.mods["eccore"]
    ops, analytic = [], []
    for (n, p_t, alpha), branches in outputs:
        for cfg, scenario, kappa_mode, ec, rate, error in branches:
            label = f"{scenario} N={n} p_t={p_t!r} alpha={alpha!r}"
            analytic += [repr(ec) if error is None else f"error {error}", repr(rate)]
            if error is None:
                error = check_ec(eccore, cfg, scenario, rate, ec, kappa_mode)
            ops.append((label, error))
    return ops, analytic


# -------------------------------------------------------------- validate_cli

_VALIDATE_LINE = re.compile(
    r"^(?P<scenario>\w+): analytic = (?P<analytic>\S+), oracle = (?P<oracle>\S+), "
    r"stderr = (?P<stderr>\S+), rel_err = (?P<rel>\S+)%(?:, r_star = (?P<r_star>\S+))?$")


def validate_argv(seed: int, tiny: bool) -> list[str]:
    slots = 10_000 if tiny else VALIDATE_SLOTS
    return ["validate", "--mc-slots", str(slots), "--seed", str(seed)]


def run_validate_cli(ctx: Context):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.mods["cli"].main(validate_argv(ctx.seed, ctx.tiny))
    points = [(start, time.perf_counter())]
    return points, (code, out.getvalue(), err.getvalue())


def check_validate_output(code: int, stdout: str, stderr: str = ""):
    """One verdict per scenario branch of a validate report."""
    lines = {}
    for line in stdout.splitlines():
        match = _VALIDATE_LINE.match(line.strip())
        if match:
            lines[match["scenario"]] = match
    ops, analytic = [], []
    for scenario in _SCENARIOS:
        match = lines.get(scenario)
        if code != 0:
            error = f"exit code {code}: {stderr.strip()[-200:]}"
        elif match is None:
            error = "no report line"
        else:
            error = _check_validate_line(match)
        if match is not None:
            analytic += [match["analytic"], str(match["r_star"])]
        ops.append((f"validate {scenario}", error))
    return ops, analytic


def _check_validate_line(match) -> str | None:
    try:
        analytic, oracle, rel = (float(match["analytic"]), float(match["oracle"]),
                                 float(match["rel"]))
    except ValueError:
        return f"unparsable report line: {match.string!r}"
    if not (math.isfinite(analytic) and math.isfinite(oracle)):
        return f"non-finite EC: analytic {analytic!r}, oracle {oracle!r}"
    if not rel <= VALIDATE_REL_ERR_CAP:
        return f"rel_err {rel}% above the {VALIDATE_REL_ERR_CAP}% cap"
    return None


def check_validate_cli(ctx: Context, result):
    return check_validate_output(*result)


WORKLOADS = {
    "figures_mc": (run_figures_mc, check_figures_mc),
    "design_grid": (run_design_grid, check_design_grid),
    "validate_cli": (run_validate_cli, check_validate_cli),
}
