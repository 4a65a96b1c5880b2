#!/usr/bin/env python3
"""Write the program's user-facing outputs to one directory, for diff -r.

A change that should keep every output can be checked by running this
at two commits and comparing the directories:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py /tmp/before
    ... switch commits ...
    PYTHONPATH=src python3 scripts/snapshot_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

It writes the figure set (scripts/run_figure_sweeps.py) without an
oracle and with 2,000 oracle slots per row, the output of
`irsec validate --mc-slots 20000`, `irsec ec` for every scenario and
`irsec optimize-rate` for the two fixed-rate ones, at alpha 0.1 and 10.
Each CLI file holds the exit code, stdout and stderr of one command.
design_grid.txt holds the EC and rate, by repr, of the four scenarios
on every cell of the design grid (element count x power x exponent,
ten antennas on the beamformed link, the exact kappa), with the
fixed-rate scenarios at sweeps.auto_rate; an error is written by type
and message.
"""

import contextlib
import io
import itertools
import sys
import warnings
from pathlib import Path

import run_figure_sweeps
from irsec.channel import LinkConfig
from irsec.cli import main as cli_main
from irsec.eccore import SCENARIOS
from irsec.sweeps import auto_rate

GRID_N = (1, 4, 16, 100, 400, 2000, 20000)
GRID_P_T = (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1e1, 1e3)
GRID_ALPHA = (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3)
GRID_N_TX = 10


def _cli(out: Path, name: str, argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    out.joinpath(f"{name}.txt").write_text(
        f"$ irsec {' '.join(argv)}\nexit = {code}\n--- stdout\n{stdout.getvalue()}"
        f"--- stderr\n{stderr.getvalue()}", encoding="utf-8")


def _design_grid(path: Path) -> None:
    lines = []
    for n, p_t, alpha in itertools.product(GRID_N, GRID_P_T, GRID_ALPHA):
        for name, entry in SCENARIOS.items():
            cfg = LinkConfig(n_elems=n, p_t=p_t, n_tx=GRID_N_TX if entry.beamformed else 1)
            try:
                rate = None if entry.adaptive else auto_rate(cfg, name, alpha)
                ec = entry.ec(cfg, alpha, rate).ec_bits_per_slot
                result = f"ec = {ec!r}, rate = {rate!r}"
            except (ValueError, ArithmeticError) as exc:
                result = f"error {type(exc).__name__}: {exc}"
            lines.append(f"N = {n}, p_t = {p_t!r}, alpha = {alpha!r}, {name}: {result}\n")
    path.write_text("".join(lines), encoding="utf-8")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(f"usage: {Path(__file__).name} OUT_DIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    for slots in (0, 2000):
        run_figure_sweeps.main(["--out-dir", str(out / f"figures_mc{slots}"),
                                "--mc-slots", str(slots)])
    _cli(out, "validate", ["validate", "--mc-slots", "20000"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # miso_csi's clamp to 0
        _design_grid(out / "design_grid.txt")
    for scenario, entry in SCENARIOS.items():
        # optimize-rate takes only the fixed-rate scenarios
        verbs = ("ec",) if entry.adaptive else ("ec", "optimize-rate")
        for alpha in ("0.1", "10"):
            for verb in verbs:
                _cli(out, f"{verb}_{scenario}_alpha{alpha}",
                     [verb, "--scenario", scenario, "--alpha", alpha])
    return 0


if __name__ == "__main__":
    sys.exit(main())
