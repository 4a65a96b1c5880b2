"""The scripts end to end: the figure set's files and fading draws, and the
output snapshot."""

import csv
import importlib.util
import re
from pathlib import Path

import pytest

from irsec.sweeps import CSV_HEADER, run_sweep

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_figure_sweeps.py"


@pytest.fixture(scope="module")
def figure_script():
    spec = importlib.util.spec_from_file_location("run_figure_sweeps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_main_writes_every_figure(figure_script, tmp_path, capsys):
    """main() writes one CSV and one non-empty SVG per figure: 516 rows
    in all, each with its oracle columns and none with an error."""
    assert figure_script.main(["--out-dir", str(tmp_path), "--mc-slots", "200"]) == 0
    names = list(figure_script.build_specs(12345, 200))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(f"{n}.csv" for n in names)
    rows = []
    for name in names:
        with open(tmp_path / f"{name}.csv", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert tuple(table[0]) == CSV_HEADER, name
        rows += [dict(zip(CSV_HEADER, line)) for line in table[1:]]
        assert (tmp_path / f"{name}.svg").stat().st_size > 0, name
    assert len(rows) == 516
    assert all(row["error"] == "" for row in rows)
    assert all(row["ec_oracle"] and row["oracle_stderr"] for row in rows)
    assert len(capsys.readouterr().out.splitlines()) == len(names)


def test_figure_set_draws_each_element_count_once(figure_script, fading_calls):
    """In build_specs' order the N sweep ends on the reference N = 100,
    whose draw every later single-antenna sweep reuses, and the
    beamformed sweep comes last: seven single-antenna draws, one per
    element count, then one beamformed draw."""
    for spec in figure_script.build_specs(12345, mc_slots=200).values():
        run_sweep(spec)
    assert fading_calls == ["siso_fading"] * 7 + ["miso_fading"]


def test_snapshot_writes_every_output(tmp_path, monkeypatch, capsys):
    """scripts/snapshot_outputs.py writes both figure sets, validate's
    output, each ec and optimize-rate run, each command exiting 0, and
    the design grid's 343 cells x 4 scenarios, each with an EC and rate."""
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location(
        "snapshot_outputs", SCRIPT.parent / "snapshot_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([str(tmp_path)]) == 0
    runs = ([f"ec_{s}_alpha{a}.txt" for s in ("miso_csi", "miso_nocsi", "siso_csi", "siso_nocsi")
             for a in ("0.1", "10")]
            + [f"optimize-rate_{s}_alpha{a}.txt" for s in ("miso_nocsi", "siso_nocsi")
               for a in ("0.1", "10")])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["figures_mc0", "figures_mc2000", "validate.txt", "design_grid.txt", *runs])
    for name in ("validate.txt", *runs):
        assert (tmp_path / name).read_text(encoding="utf-8").splitlines()[1] == "exit = 0"
    assert len(list((tmp_path / "figures_mc2000").glob("*.csv"))) == 6
    grid = (tmp_path / "design_grid.txt").read_text(encoding="utf-8").splitlines()
    assert len(grid) == 343 * 4
    assert all(re.fullmatch(r"N = \d+, p_t = \S+, alpha = \S+, \w+: ec = \S+, rate = \S+", line)
               for line in grid)
    assert sum(line.endswith("rate = None") for line in grid) == 343 * 2
