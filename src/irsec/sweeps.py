"""Parameter sweeps over the four scenarios, with CSV and SVG output.

A sweep walks one variable across a value list, optionally crossed with
a list of QoS exponents, evaluating the analytical EC (after optimizing
the transmission rate for the fixed-rate scenarios) and, when enabled,
the Monte Carlo oracle beside it. Rows never abort the run: failures
land in the row's error column.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

from irsec.channel import LinkConfig
from irsec.eccore import LN2, SCENARIOS, alpha_value, get_scenario
from irsec.rateopt import RateSolution, grid_argmax_rate, solve_rate_miso_exact

__all__ = [
    "SWEEP_VARS",
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "auto_rate",
    "auto_rate_solution",
    "write_csv",
    "emit_csv",
    "emit_plot",
    "CSV_HEADER",
]

SWEEP_VARS = ("p_t", "N", "N_t", "alpha", "rate")

CSV_HEADER = ("sweep_var", "value", "alpha", "ec_analytical",
              "ec_oracle", "oracle_stderr", "r_star", "error")

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Grid points that bracket the single-antenna EC peak before Brent's
# refinement: over twice the mean-SNR Shannon rate, 24 points come within
# 1e-9 of an 800-point parabolic grid's peak in every design cell, at
# ~38 EC evaluations per solve (32-59 over the design grid).
_AUTO_GRID_POINTS = 24


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: what to vary, over what, at which exponents.

    mc_slots = 0 disables the oracle columns; otherwise it is the
    oracle's slot count, stored as an int (1e3 is 1000; 10.5 raises).
    When sweep_var is "alpha" the values themselves are the exponents
    and alpha_list is ignored. NaN values are refused, and every
    exponent must pass alpha_value.
    """

    scenario: str
    sweep_var: str
    values: tuple[float, ...]
    fixed: LinkConfig
    alpha_list: tuple[float, ...] = (0.1,)
    seed: int = 12345
    mc_slots: int = 0

    def __post_init__(self) -> None:
        entry = get_scenario(self.scenario)
        if self.sweep_var not in SWEEP_VARS:
            raise ValueError(f"unknown sweep variable {self.sweep_var!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("values must be nonempty")
        if any(math.isnan(v) for v in self.values):
            raise ValueError("values must not be NaN")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if self.sweep_var in ("N", "N_t") and not all(
                v.is_integer() for v in self.values):
            raise ValueError(f"{self.sweep_var} values must be integers")
        if self.sweep_var == "N_t" and not entry.beamformed:
            raise ValueError("N_t sweeps require a MISO scenario")
        if self.sweep_var == "rate" and entry.adaptive:
            raise ValueError("rate sweeps require a no-CSI scenario")
        object.__setattr__(self, "alpha_list",
                           tuple(float(a) for a in self.alpha_list))
        if self.sweep_var != "alpha" and not self.alpha_list:
            raise ValueError("alpha_list must be nonempty")
        for a in self.values if self.sweep_var == "alpha" else self.alpha_list:
            alpha_value(a)
        if int(self.mc_slots) != self.mc_slots or self.mc_slots < 0:
            raise ValueError("mc_slots must be a nonnegative integer")
        object.__setattr__(self, "mc_slots", int(self.mc_slots))


@dataclass(frozen=True)
class SweepRow:
    """One (value, alpha) evaluation; error set means the rest is void."""

    sweep_var: str
    value: float
    alpha: float
    ec_analytical: float | None = None
    ec_oracle: float | None = None
    oracle_stderr: float | None = None
    r_star: float | None = None
    error: str | None = None


def _apply_value(fixed: LinkConfig, var: str, value: float) -> LinkConfig:
    if var == "p_t":
        return replace(fixed, p_t=value)
    if var == "N":
        return replace(fixed, n_elems=int(value))
    if var == "N_t":
        # precoder reset so the equal-power default re-derives at the new size
        return replace(fixed, n_tx=int(value), precoder=None)
    return fixed


def auto_rate_solution(cfg: LinkConfig, scenario: str, alpha: float,
                       kappa_mode: str = "exact") -> RateSolution:
    """Optimal fixed rate for a no-CSI scenario by the robust route, with
    the EC it achieves.

    The beamformed link uses its stationarity root under the kappa_mode
    law. The single-antenna link, which takes only kappa_mode="exact",
    runs grid_argmax_rate on a coarse grid over twice the mean-SNR
    Shannon rate, whose Brent refinement covers every regime the
    descent's fixed step handles unevenly.
    """
    entry = get_scenario(scenario)
    if entry.adaptive:
        raise ValueError(f"{scenario} adapts its rate; there is none to optimize")
    if entry.beamformed:
        return solve_rate_miso_exact(cfg, alpha, kappa_mode=kappa_mode)
    dist = entry.law(cfg, kappa_mode)
    mean_snr = dist.beta * (1.0 + dist.lam)
    r_max = 2.0 * cfg.bandwidth * math.log1p(mean_snr) / LN2
    return grid_argmax_rate(cfg, alpha, scenario, r_max, _AUTO_GRID_POINTS)


def auto_rate(cfg: LinkConfig, scenario: str, alpha: float,
              kappa_mode: str = "exact") -> float:
    """The rate of auto_rate_solution: the one every sweep row, irsec ec
    and irsec optimize-rate use."""
    return auto_rate_solution(cfg, scenario, alpha, kappa_mode).r_star


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep, one row per (value, alpha), never aborting.

    Fixed-rate scenarios optimize the rate per row unless the rate is
    the sweep variable itself. With mc_slots, and only then, each row
    also takes the oracle's estimate (mcoracle.oracle_ec) at one seed
    per sweep, spec.seed: rows of one element count share one fading
    draw and rows of one link config one SNR batch, so a p_t, N_t,
    alpha or rate sweep draws the channel once. An N sweep draws it
    once too, at its largest element count, and each row reads the
    first N elements of that draw (common random numbers across surface
    size, mcoracle.link_snr). Every row's oracle is the one a fresh
    draw at spec.seed gives, bit for bit, and at the largest N it is
    the plain draw at that N; irsec validate runs each branch as such a
    one-row alpha sweep.
    """
    # an N sweep's element counts whose config builds (LinkConfig refuses
    # only N < 1), so a refused row leaves the other rows' draw as it is
    counts = ()
    if spec.sweep_var == "N" and spec.mc_slots:
        counts = tuple(int(v) for v in spec.values if v >= 1)
    rows: list[SweepRow] = []
    for value in spec.values:
        alphas = (value,) if spec.sweep_var == "alpha" else spec.alpha_list
        for alpha in alphas:
            try:
                rows.append(_run_row(spec, value, alpha, counts))
            except Exception as exc:
                rows.append(SweepRow(
                    sweep_var=spec.sweep_var, value=value, alpha=alpha,
                    error=f"{type(exc).__name__}: {exc}"))
    return rows


def _run_row(spec: SweepSpec, value: float, alpha: float,
             counts: tuple[int, ...]) -> SweepRow:
    cfg = _apply_value(spec.fixed, spec.sweep_var, value)
    entry = SCENARIOS[spec.scenario]
    rate: float | None = None
    if not entry.adaptive:
        rate = value if spec.sweep_var == "rate" else auto_rate(cfg, spec.scenario, alpha)
    ec = entry.ec(cfg, alpha, rate).ec_bits_per_slot
    ec_oracle = stderr = None
    if spec.mc_slots:
        from irsec import mcoracle  # numpy loads only where a sweep samples
        estimate = mcoracle.oracle_ec(entry.beamformed, cfg, spec.seed, spec.mc_slots,
                                      alpha, rate, counts)
        ec_oracle, stderr = estimate.value, estimate.stderr
    return SweepRow(sweep_var=spec.sweep_var, value=value, alpha=alpha,
                    ec_analytical=ec, ec_oracle=ec_oracle,
                    oracle_stderr=stderr, r_star=rate)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(table: list[SweepRow], fh) -> None:
    """Stream the sweep table to an open text file object."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in table:
        writer.writerow([
            row.sweep_var, _cell(row.value), _cell(row.alpha),
            _cell(row.ec_analytical), _cell(row.ec_oracle),
            _cell(row.oracle_stderr), _cell(row.r_star),
            row.error or "",
        ])


def emit_csv(table: list[SweepRow], path) -> None:
    """Write the sweep table; header is fixed, floats are repr-exact."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(table, fh)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _axis_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def emit_plot(table: list[SweepRow], path) -> None:
    """Render the sweep as a self-contained SVG line chart.

    One polyline per alpha, x is the sweep value (log scale for power
    sweeps), y is EC in bits/slot. Output depends only on the table, so
    identical inputs give byte-identical files.
    """
    if not table:
        raise ValueError("emit_plot needs a nonempty table")
    rows = [r for r in table if r.error is None and r.ec_analytical is not None]
    if not rows:
        raise ValueError("emit_plot needs at least one non-error row")
    sweep_var = rows[0].sweep_var
    logx = sweep_var == "p_t"

    series: dict[float, list[tuple[float, float]]] = {}
    for r in rows:
        x = math.log10(r.value) if logx else r.value
        series.setdefault(r.alpha, []).append((x, r.ec_analytical))

    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    xmin, xmax = min(xs), max(xs)
    if xmax == xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    ymin = min(0.0, min(ys))
    ymax = max(ys)
    if ymax == ymin:
        ymax = ymin + 1.0
    ymax += 0.05 * (ymax - ymin)

    width, height = 640.0, 440.0
    left, right, top, bottom = 70.0, 150.0, 20.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    def px(x: float) -> float:
        return left + (x - xmin) / (xmax - xmin) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - ymin) / (ymax - ymin) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="black"/>',
    ]
    for t in _axis_ticks(xmin, xmax):
        gx = px(t)
        label = f"{10.0 ** t:.6g}" if logx else f"{t:.6g}"
        parts.append(f'<line x1="{gx:.2f}" y1="{top + plot_h:.2f}" '
                     f'x2="{gx:.2f}" y2="{top + plot_h + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{gx:.2f}" y="{top + plot_h + 18:.2f}" '
                     f'font-size="11" text-anchor="middle">{label}</text>')
    for t in _axis_ticks(ymin, ymax):
        gy = py(t)
        parts.append(f'<line x1="{left - 5:.2f}" y1="{gy:.2f}" '
                     f'x2="{left:.2f}" y2="{gy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{gy + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{t:.6g}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.2f}" y="{height - 12:.2f}" '
                 f'font-size="13" text-anchor="middle">{sweep_var}</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{top + plot_h / 2:.2f})">EC (bits/slot)</text>')

    for i, (alpha, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16.0 + 18.0 * i
        lx = width - right + 12.0
        parts.append(f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" '
                     f'x2="{lx + 18:.2f}" y2="{ly - 4:.2f}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24:.2f}" y="{ly:.2f}" '
                     f'font-size="12">alpha={alpha:.6g}</text>')

    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
