"""scripts/cli_diff.py: the report of what moved between two CLI file sets."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_diff.py"


def _write(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)


def _run(before, after):
    out = subprocess.run([sys.executable, str(SCRIPT), str(before), str(after)],
                         capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout.splitlines()


def test_reports_each_moved_path_and_column(tmp_path):
    doc = {"family": "Other", "ree": 0.5, "css": {"re": [[1.0, 2.0], [3.0, 4.0]]},
           "checks": [{"name": "a", "ok": True, "iterations": 19}]}
    moved = {"family": "Other", "ree": 0.75, "css": {"re": [[1.0, 2.5], [3.0, 3.0]]},
             "checks": [{"name": "a", "ok": False, "iterations": 20}]}
    same = "x,sheet\n0.5,mu\n"
    _write(tmp_path / "before", {"s.json": json.dumps(doc), "m.csv": "x,sheet\n0.5,mu\n1,nu\n",
                                 "same.csv": same, "exit_codes.txt": "0 a\n0 b\n",
                                 "gone.json": "{}"})
    _write(tmp_path / "after", {"s.json": json.dumps(moved), "m.csv": "x,sheet\n0.25,mu\n1,mu\n",
                                "same.csv": same, "exit_codes.txt": "0 a\n2 b\n"})
    code, lines = _run(tmp_path / "before", tmp_path / "after")
    assert code == 0
    assert lines[-1] == "4 of 5 files differ"
    assert "  css.re[][]: max |delta| 1 over 2 of 4 values" in lines
    assert "  ree: 0.5 -> 0.75, |delta| 0.25" in lines
    assert "  checks[a].ok: True -> False" in lines
    assert "  checks[a].iterations: 19 -> 20, |delta| 1" in lines
    assert "  x: max |delta| 0.25 over 1 of 2 values" in lines
    assert "  sheet: 'nu' -> 'mu'" in lines
    assert "  -0 b" in lines and "  +2 b" in lines
    assert any(line.startswith("gone.json: only in") for line in lines)
    assert not any("family" in line or "same.csv" in line for line in lines)


def test_moved_row_count_is_one_line(tmp_path):
    """A CSV that gained rows reports their count once, not a count per
    column, along with any column it gained or lost."""
    _write(tmp_path / "before", {"m.csv": "q1,q2,sheet\n0.5,0.25,mu\n1,0,nu\n",
                                 "w.csv": "x,y\n1,2\n"})
    _write(tmp_path / "after", {"m.csv": "q1,q2,sheet\n0.5,0.25,mu\n1,0,nu\n1,1,mu\n",
                                "w.csv": "x,z\n1,2\n3,4\n"})
    code, lines = _run(tmp_path / "before", tmp_path / "after")
    assert code == 0
    assert lines == ["m.csv", "  rows: 2 -> 3", "w.csv", "  y: removed", "  z: added",
                     "  rows: 1 -> 2", "2 of 2 files differ"]


def test_summary_of_a_key_moved_in_several_files(tmp_path):
    """One line per moved numeric key before the count: its largest |delta|
    over the files and the number of files it moved in, with named records
    read as one key; a moved string gets no summary line."""
    checks = '[{"name": "p", "v": %s}, {"name": "q", "v": %s}]'
    _write(tmp_path / "before", {"a.json": '{"ree": 1.0, "m": "x"}', "b.json": '{"ree": 2.0}',
                                 "c.json": '{"ree": 3.0}', "v.json": checks % (1, 2)})
    _write(tmp_path / "after", {"a.json": '{"ree": 1.5, "m": "y"}', "b.json": '{"ree": 2.25}',
                                "c.json": '{"ree": 3.0}', "v.json": checks % (1.5, 2.125)})
    assert _run(tmp_path / "before", tmp_path / "after") == (0, [
        "a.json", "  ree: 1.0 -> 1.5, |delta| 0.5", "  m: 'x' -> 'y'",
        "b.json", "  ree: 2.0 -> 2.25, |delta| 0.25",
        "v.json", "  [p].v: 1 -> 1.5, |delta| 0.5", "  [q].v: 2 -> 2.125, |delta| 0.125",
        "ree: 0.5 in 2 files", "[].v: 0.5 in 1 file", "3 of 4 files differ"])


def test_equal_sets_report_nothing(tmp_path):
    files = {"a.json": '{"v": NaN}', "b.csv": "x\n1\n"}
    _write(tmp_path / "before", files)
    _write(tmp_path / "after", files)
    assert _run(tmp_path / "before", tmp_path / "after") == (0, ["0 of 2 files differ"])
