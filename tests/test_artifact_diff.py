"""scripts/artifact_diff.py: two output trees compared file by file."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_diff.py"


def _tree(root: Path, wall: float, norm: str = "1", frequency: float = 2.0) -> Path:
    """A run's outputs: a summary with its run fields, a CSV and a JSON artifact."""
    run = root / "out-00-evolve"
    run.mkdir(parents=True)
    summary = {"command": "evolve", "checks": [{"deviation": 1e-16, "pass": True}],
               "wall_time_s": wall, "timestamp": f"2026-01-01T00:00:0{int(wall)}+00:00"}
    (run / "summary.json").write_text(json.dumps(summary, indent=1))
    (run / "samples.csv").write_text(f"t,norm,energy\n0,1,-0.5\n1,{norm},-0.5\n")
    (run / "zitter.json").write_text(json.dumps({"fitted_frequency": frequency, "lines": []}))
    return root


def _diff(a: Path, b: Path) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_trees_that_differ_only_in_run_fields_are_identical(tmp_path):
    code, lines = _diff(_tree(tmp_path / "a", 1.0), _tree(tmp_path / "b", 2.0))
    assert (code, lines) == (0, ["identical: 3 of 3 files"])


def test_a_moved_csv_cell_is_reported_against_its_column_scale(tmp_path):
    a, b = _tree(tmp_path / "a", 1.0), _tree(tmp_path / "b", 1.0, norm="1.0000000000000004")
    code, lines = _diff(a, b)
    assert code == 1 and lines[0] == "identical: 2 of 3 files"
    assert lines[1:] == ["out-00-evolve/samples.csv: column norm: "
                         "max |delta| 4.44e-16 over max |value| 1 = 4.44e-16"]


def test_a_moved_json_number_is_reported_with_its_path(tmp_path):
    code, lines = _diff(_tree(tmp_path / "a", 1.0), _tree(tmp_path / "b", 1.0, frequency=2.5))
    assert code == 1 and lines[0] == "identical: 2 of 3 files"
    assert lines[1:] == ["out-00-evolve/zitter.json: largest move 0.2 of the value, "
                         "at .fitted_frequency: 2.0 -> 2.5"]


def test_a_missing_file_fails(tmp_path):
    a, b = _tree(tmp_path / "a", 1.0), _tree(tmp_path / "b", 1.0)
    (b / "out-00-evolve" / "samples.csv").unlink()
    code, lines = _diff(a, b)
    assert code == 1 and lines[0] == "identical: 2 of 3 files"
    assert lines[1:] == [f"out-00-evolve/samples.csv: missing from {b}"]
