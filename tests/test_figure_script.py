"""scripts/run_figure_sweeps.py end to end: its files and its fading draws."""

import csv
import importlib.util
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
