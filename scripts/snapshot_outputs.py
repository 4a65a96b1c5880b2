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
"""

import contextlib
import io
import sys
from pathlib import Path

import run_figure_sweeps
from irsec.cli import main as cli_main
from irsec.eccore import SCENARIOS


def _cli(out: Path, name: str, argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    out.joinpath(f"{name}.txt").write_text(
        f"$ irsec {' '.join(argv)}\nexit = {code}\n--- stdout\n{stdout.getvalue()}"
        f"--- stderr\n{stderr.getvalue()}", encoding="utf-8")


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
