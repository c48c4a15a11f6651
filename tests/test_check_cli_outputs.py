"""scripts/check_cli_outputs.py: the five gates on the CLI files, on the files
that scripts/cli_outputs.py writes and on planted violations, at least one
per gate."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reegeom

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("check_cli_outputs",
                                               SCRIPTS / "check_cli_outputs.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def _env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(reegeom.__file__)))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "files"
    subprocess.run([sys.executable, str(SCRIPTS / "cli_outputs.py"), str(out)],
                   env=_env(), capture_output=True, timeout=300, check=True)
    return out


def _edit(path: Path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _failing_exit_code(out):
    lines = (out / "exit_codes.txt").read_text().splitlines(keepends=True)
    lines[0] = "1" + lines[0][1:]
    (out / "exit_codes.txt").write_text("".join(lines))


def _closed_form_recovery_gap(out):
    # vp_a is solved in closed form, and must rebuild rho within 1e-9
    _edit(out / "vp_a.css-auto.json", lambda d: d["residuals"].update(recovery_gap=1e-8))


def _unconverged_oracle(out):
    _edit(out / "vp_a.css-numeric.json", lambda d: d.update(converged=False))


def _oracle_excess_too_small(out):
    # the bracket still holds css-auto's REE and gap is still ree - lower
    auto = json.loads((out / "vp_a.css-auto.json").read_text())["ree"]

    def change(d):
        d["ree"] = auto + 1e-10
        d["gap"] = d["ree"] - d["lower"]

    _edit(out / "vp_a.css-numeric.json", change)


def _css_off_the_minimum(out):
    # vp_a's closed-form CSS moved 1e-3 toward I/4: a CSS above the minimum
    def change(d):
        sigma = np.array(d["css"]["re"]) + 1j * np.array(d["css"]["im"])
        sigma = (1 - 1e-3) * sigma + 1e-3 * np.eye(4) / 4
        d["css"] = {"im": sigma.imag.tolist(), "re": sigma.real.tolist()}

    _edit(out / "vp_a.css-auto.json", change)


PLANTS = {"Exit codes": _failing_exit_code, "Recovery gaps": _closed_form_recovery_gap,
          "Cross-route REE": _unconverged_oracle, "Oracle excess": _oracle_excess_too_small,
          "Certificates": _css_off_the_minimum}


def test_written_files_pass_every_gate(outputs):
    res = subprocess.run([sys.executable, str(SCRIPTS / "check_cli_outputs.py"), str(outputs)],
                         env=_env(), capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout
    lines = res.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == list(check.GATES)
    assert lines[-1] == "all five gates hold"


def test_cross_route_prints_its_margins(outputs, capsys):
    """The cross-route summary names the least css-auto ree - lower and the
    least ree - css-auto ree, each with its file: the first is positive, and
    the second is at least the gate's -1e-12."""
    assert check.main(str(outputs)) == 0
    line = next(text for text in capsys.readouterr().out.splitlines()
                if text.startswith("Cross-route REE: "))
    below, above = line.split("least css-auto ree - lower ")[1].split(
        ", least ree - css-auto ree ")
    for margin in (below, above):
        value, at = margin.split(" (")
        assert at.endswith(".css-numeric.json)") and float(value) >= -1e-12
    assert float(below.split(" (")[0]) > 0


@pytest.mark.parametrize("gate", list(check.GATES))
def test_planted_violation_fails_its_gate(outputs, tmp_path, capsys, gate):
    """One planted violation fails its own gate, and only that one."""
    out = tmp_path / "files"
    shutil.copytree(outputs, out)
    PLANTS[gate](out)
    assert check.main(str(out)) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"failed: {gate}"


def test_reverse_map_edge_gap_fails_recovery_gaps(outputs, tmp_path, capsys):
    """x_a takes route "reverse-map", whose edge_gap must be within 1e-14,
    as the closed forms' is: at 1e-13 it fails that gate alone."""
    out = tmp_path / "files"
    shutil.copytree(outputs, out)
    assert json.loads((out / "x_a.css-auto.json").read_text())["method"] == "reverse-map"
    _edit(out / "x_a.css-auto.json", lambda d: d["residuals"].update(edge_gap=1e-13))
    assert check.main(str(out)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "failed: Recovery gaps"
    assert "x_a.css-auto.json: reverse-map recovery_gap" in "\n".join(lines)


@pytest.mark.parametrize("name, printed", [
    ("vp_a", "RuntimeWarning: overflow encountered in reduce"),
    ("vp_a", "Traceback (most recent call last):"),
    ("x_a", "error: state is outside the solvable families")],
    ids=["warning", "traceback", "second-error"])
def test_console_line_fails_exit_codes(outputs, tmp_path, capsys, name, printed):
    """One more line in the console output of `css --method geometric`
    fails the Exit codes gate alone, though every exit code is as expected:
    a warning or a traceback where vp_a exited 0, a second error line where
    x_a, outside the closed-form families, exited 3."""
    out = tmp_path / "files"
    shutil.copytree(outputs, out)
    command = f"$ reegeom css {name}.state.json --method geometric"
    lines = (out / "console.txt").read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(command))
    lines.insert(at + 1, printed + "\n")
    (out / "console.txt").write_text("".join(lines))
    assert check.main(str(out)) == 1
    report = capsys.readouterr().out.splitlines()
    assert report[-1] == "failed: Exit codes"
    assert report[0].startswith("Exit codes: ") and command[len("$ reegeom "):] in report[0]


def test_gates_that_count_fail_on_no_files(outputs, tmp_path, capsys):
    """A directory with the exit codes, the console output and no css file
    breaks no bound, yet fails the three gates that count the files they
    check."""
    out = tmp_path / "files"
    out.mkdir()
    shutil.copy(outputs / "exit_codes.txt", out)
    shutil.copy(outputs / "console.txt", out)
    assert check.main(str(out)) == 1
    assert (capsys.readouterr().out.splitlines()[-1]
            == "failed: Cross-route REE, Oracle excess, Certificates")
