import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import reegeom
from reegeom import cli, css, geometry, qstate, ree, revmap

from conftest import random_density_matrix, random_unitary, rotate


@pytest.fixture
def runner():
    return CliRunner()


def write_state(path, rho):
    with open(path, "w") as fh:
        json.dump(cli.matrix_json(rho), fh)
    return str(path)


class TestDecompose:
    def test_bell_correlation_tensor(self, runner, tmp_path):
        p = write_state(tmp_path / "bell.json", qstate.BELL_STATES[0])
        out = tmp_path / "pauli.json"
        res = runner.invoke(cli.main, ["decompose", p, "--out", str(out)])
        assert res.exit_code == 0
        d = json.load(open(out))
        assert np.allclose(d["g"], np.diag([1, -1, 1]), atol=1e-12)
        assert d["concurrence"] == pytest.approx(1.0, abs=1e-10)
        assert d["ppt"] is False
        assert (tmp_path / "pauli.json.manifest.json").exists()

    def test_maximally_mixed_all_zero(self, runner, tmp_path):
        p = write_state(tmp_path / "mm.json", np.eye(4) / 4)
        res = runner.invoke(cli.main, ["decompose", p])
        assert res.exit_code == 0
        d = json.loads(res.output)
        assert np.allclose(d["r"], 0) and np.allclose(d["s"], 0)
        assert np.allclose(d["g"], 0)

    def test_local_unitary_takes_rho_to_the_canonical_frame(self, runner, tmp_path):
        """u_a and u_b are in SU(2), and (u_a x u_b) rho (u_a x u_b)^dag has
        the canonical Pauli form, on rotated family and random states."""
        rng = np.random.default_rng(12)
        family = [css._vp_state((0.5, 0.3, 0.2)), css._horodecki_state((0.6, 0.3, 0.1)),
                  qstate.bell_diagonal([0.8, -0.6, 0.5]), qstate.BELL_STATES[3]]
        states = ([rotate(rho, random_unitary(rng), random_unitary(rng)) for rho in family]
                  + [random_density_matrix(rng, rank) for rank in (1, 2, 3, 4, 4, 4)])
        for i, rho in enumerate(states):
            p = write_state(tmp_path / f"{i}.json", rho)
            res = runner.invoke(cli.main, ["decompose", p])
            assert res.exit_code == 0
            d = json.loads(res.output)
            u_a, u_b = [np.array(m["re"]) + 1j * np.array(m["im"])
                        for m in (d["local_unitary"]["u_a"], d["local_unitary"]["u_b"])]
            for u in (u_a, u_b):
                assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-15
                assert abs(np.linalg.det(u) - 1) <= 1e-15
            pf = qstate.to_pauli(rotate(rho, u_a, u_b))
            assert np.max(np.abs(pf.r - d["canonical"]["r"])) <= 1e-12
            assert np.max(np.abs(pf.s - d["canonical"]["s"])) <= 1e-12
            assert np.max(np.abs(pf.g - np.diag(d["canonical"]["q"]))) <= 1e-12

    def test_invalid_matrix_exit_2(self, runner, tmp_path):
        p = write_state(tmp_path / "bad.json", np.eye(4, dtype=complex))
        res = runner.invoke(cli.main, ["decompose", p])
        assert res.exit_code == 2

    def test_reconstruct_round_trip(self, runner, tmp_path):
        rho = random_density_matrix(np.random.default_rng(1))
        p = write_state(tmp_path / "rho.json", rho)
        pauli = tmp_path / "pauli.json"
        back = tmp_path / "back.json"
        assert runner.invoke(cli.main, ["decompose", p, "--out", str(pauli)]).exit_code == 0
        assert runner.invoke(cli.main, ["reconstruct", str(pauli),
                                        "--out", str(back)]).exit_code == 0
        assert np.max(np.abs(cli.load_state(str(back)) - rho)) < 1e-12


class TestNonFiniteInput:
    def test_css_nan_file_exit_2(self, runner, tmp_path):
        text = json.dumps(cli.matrix_json(np.eye(4) / 4)).replace("0.25", "NaN", 1)
        p = tmp_path / "nan.json"
        p.write_text(text)
        res = runner.invoke(cli.main, ["css", str(p)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_reconstruct_non_finite_exit_2(self, runner, tmp_path, constant):
        p = tmp_path / "pauli.json"
        p.write_text('{"r": [0, 0, %s], "s": [0, 0, 0], '
                     '"g": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}' % constant)
        res = runner.invoke(cli.main, ["reconstruct", str(p)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1


FLOAT_MAX = float(np.finfo(float).max)
# huge finite entries: a state's trace overflows to inf or NaN, and a Pauli
# file's rebuild stays finite
OVERFLOW_INPUTS = {
    "trace-inf": ("state", json.dumps(cli.matrix_json(np.diag([1e308, 1e308, 0, 0])))),
    "trace-nan": ("state", json.dumps(cli.matrix_json(np.diag([1e308, 1e308, -1e308, -1e308])))),
    "g-1e308": ("pauli", json.dumps({"r": [0, 0, 0], "s": [0, 0, 0],
                                     "g": (1e308 * np.eye(3)).tolist()})),
    "rs-1e308": ("pauli", json.dumps({"r": [0, 0, 1e308], "s": [0, 0, 1e308],
                                      "g": np.zeros((3, 3)).tolist()})),
    "g-max": ("pauli", json.dumps({"r": [0, 0, 0], "s": [0, 0, 0],
                                   "g": (FLOAT_MAX * np.eye(3)).tolist()})),
    "rs-max": ("pauli", json.dumps({"r": [0, 0, FLOAT_MAX], "s": [0, 0, FLOAT_MAX],
                                    "g": np.zeros((3, 3)).tolist()})),
    "all-max": ("pauli", json.dumps({"r": [FLOAT_MAX] * 3, "s": [FLOAT_MAX] * 3,
                                     "g": np.full((3, 3), FLOAT_MAX).tolist()})),
}


class TestOverflowInput:
    @pytest.mark.parametrize("command, name", [
        ("decompose", "trace-inf"), ("decompose", "trace-nan"),
        ("css", "trace-inf"), ("css", "trace-nan"),
        ("reconstruct", "g-1e308"), ("reconstruct", "rs-1e308"), ("reconstruct", "g-max"),
        ("reconstruct", "rs-max"), ("reconstruct", "all-max")])
    def test_exit_2_with_one_line(self, runner, tmp_path, command, name):
        """A matrix with huge finite entries exits 2 with one error line and
        writes no file, with no floating-point warning: a state's trace
        overflows, and a Pauli file's rebuild stays finite, as each real or
        imaginary part of an entry sums at most three coordinates times
        +-1/4, and fails the trace test too."""
        _, text = OVERFLOW_INPUTS[name]
        p = tmp_path / "big.json"
        p.write_text(text)
        res = runner.invoke(cli.main, [command, str(p), "--out", str(tmp_path / "o.json")])
        assert res.exit_code == 2 and type(res.exception) is SystemExit
        assert res.stderr.startswith("error: invalid density matrix: unit trace violated by")
        assert res.stderr.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["big.json"]

    def test_subprocess_prints_one_line(self, tmp_path):
        """Under the interpreter's default warning filters, `reegeom css` on
        the NaN-trace matrix prints exactly one `error:` line and no warning."""
        p = tmp_path / "big.json"
        p.write_text(OVERFLOW_INPUTS["trace-nan"][1])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(reegeom.__file__)))
        env.pop("PYTHONWARNINGS", None)
        res = subprocess.run([sys.executable, "-m", "reegeom.cli", "css", str(p)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: invalid density matrix: unit trace violated by nan\n"


class TestMalformedJson:
    @pytest.mark.parametrize("text", ["[1, 2]", "5", '{"re": {"a": 1}}'])
    @pytest.mark.parametrize("command", ["decompose", "css", "reconstruct"])
    def test_not_an_object_exit_2(self, runner, tmp_path, command, text):
        """A top level that is not an object, or a value of the wrong type,
        is an input error with one line, not a traceback."""
        p = tmp_path / "bad.json"
        p.write_text(text)
        res = runner.invoke(cli.main, [command, str(p), "--out", str(tmp_path / "o.json")])
        assert res.exit_code == 2 and type(res.exception) is SystemExit
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["bad.json"]

    @pytest.mark.parametrize("command, text, key", [
        ("reconstruct", json.dumps(cli.matrix_json(np.eye(4) / 4)), "'r'"),
        ("reconstruct", '{"r": [0, 0, 0], "s": [0, 0, 0]}', "'g'"),
        ("decompose", '{"r": [0, 0, 0], "s": [0, 0, 0], "g": []}', "'re'"),
        ("css", '{"im": [[0, 0, 0, 0]]}', "'re'"),
    ])
    def test_missing_key_exit_2(self, runner, tmp_path, command, text, key):
        """A missing key names the file, the key and the format expected,
        in place of the bare key."""
        p = tmp_path / "bad.json"
        p.write_text(text)
        res = runner.invoke(cli.main, [command, str(p), "--out", str(tmp_path / "o.json")])
        assert res.exit_code == 2 and type(res.exception) is SystemExit
        assert res.stderr.startswith(f"error: {p}: missing key {key}, expected {{")
        assert res.stderr.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["bad.json"]

    @pytest.mark.parametrize("blocks", [{"r": 0, "s": 0, "g": 0}, {"g": [0.5, -0.5, 0.5]},
                                        {"r": [[0], [0], [0]]}],
                             ids=["scalars", "g-vector", "r-column"])
    def test_pauli_block_shapes_exit_2(self, runner, tmp_path, blocks):
        """A Pauli file holds r [3], s [3] and g [3x3]: blocks of other shapes,
        scalars that broadcast included, exit 2 with one line naming the
        shapes, and write no file."""
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"r": [0, 0, 0], "s": [0, 0, 0],
                                 "g": np.zeros((3, 3)).tolist(), **blocks}))
        res = runner.invoke(cli.main, ["reconstruct", str(p), "--out", str(tmp_path / "o.json")])
        assert res.exit_code == 2 and type(res.exception) is SystemExit
        assert res.stderr == "error: Pauli blocks must be r [3], s [3] and g [3x3]\n"
        assert sorted(os.listdir(tmp_path)) == ["bad.json"]


@pytest.mark.parametrize("args", [
    ["css", "STATE", "--method", "numeric", "--seed", "-1"],
    ["sweep", "--r", "0.1", "--s", "0.1", "--seed", "-1"],
    ["verify", "--suite", "revmap", "--seed", "-1"],
    ["sweep", "--s", "0.1", "--r", "nan"],
    ["sweep", "--r", "0.1", "--s", "0.1", "--xmax", "nan"],
    ["sweep", "--r", "0.1", "--s", "0.1", "--xmax", "inf"],
    ["sweep", "--r", "0.1", "--s", "0.1", "--xmax", "-1"],
    ["surface", "--body", "L", "--r", "0", "--s", "0", "--tol", "nan"],
    ["surface", "--body", "L", "--r", "0", "--s", "0", "--tol", "-1"],
], ids=lambda args: " ".join([args[0]] + args[-2:]))
def test_bad_flag_exit_2(runner, tmp_path, args):
    state = write_state(tmp_path / "bell.json", qstate.BELL_STATES[0])
    out = tmp_path / "out.file"
    args = [state if a == "STATE" else a for a in args] + ["--out", str(out)]
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 2
    assert type(res.exception) is SystemExit and "Traceback" not in res.output
    assert sorted(os.listdir(tmp_path)) == ["bell.json"]


@pytest.mark.parametrize("args", [
    ["surface", "--body", "T", "--r", "0", "--s", "0", "--n", "4"],
    ["sweep", "--r", "0.1", "--s", "0.1", "--families", "1"],
    ["decompose", "STATE"],
    ["css", "STATE"],
    ["verify", "--suite", "revmap"],
], ids=lambda args: args[0])
def test_out_in_missing_directory_exit_2(runner, tmp_path, args):
    state = write_state(tmp_path / "bell.json", qstate.BELL_STATES[0])
    out = tmp_path / "missing" / "out.file"
    args = [state if a == "STATE" else a for a in args] + ["--out", str(out)]
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 2
    assert type(res.exception) is SystemExit and "Traceback" not in res.output
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["bell.json"]


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(reegeom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, reegeom.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def fixed_inputs() -> dict:
    """The input states of `scripts/cli_outputs.py`, by name."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", path)
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    return outputs.states(np.random.default_rng(outputs.SEED))


class TestCss:
    def test_vp_example(self, runner, tmp_path):
        p = write_state(tmp_path / "vp.json", css._vp_state((0.5, 0.3, 0.2)))
        res = runner.invoke(cli.main, ["css", p])
        assert res.exit_code == 0
        d = json.loads(res.output)
        assert d["family"] == "GeneralizedVP"
        assert np.allclose(np.diag(d["css"]["re"]), [0.55, 0, 0, 0.45], atol=1e-12)

    def test_separable_horodecki(self, runner, tmp_path):
        p = write_state(tmp_path / "h.json", css._horodecki_state((0.2, 0.4, 0.4)))
        res = runner.invoke(cli.main, ["css", p])
        assert res.exit_code == 0
        d = json.loads(res.output)
        assert d["separable"] is True and d["ree"] == 0.0

    def test_css_3x3_blocks_exit_2(self, runner, tmp_path):
        p = write_state(tmp_path / "small.json", np.eye(3) / 3)
        res = runner.invoke(cli.main, ["css", p])
        assert res.exit_code == 2
        assert res.stderr == "error: matrix blocks must be 4x4\n"

    def test_other_geometric_exit_3(self, runner, tmp_path):
        rng = np.random.default_rng(2)
        while True:
            rho = random_density_matrix(rng)
            if css.classify(rho).kind is css.FamilyKind.OTHER:
                break
        p = write_state(tmp_path / "o.json", rho)
        res = runner.invoke(cli.main, ["css", p, "--method", "geometric"])
        assert res.exit_code == 3

    def test_other_geometric_runs_no_oracle(self, runner, tmp_path, monkeypatch):
        """`css --method geometric` on an entangled state outside the families
        exits 3 with one error line and writes no file, without calling the
        oracle."""
        def no_oracle(rho, cfg=None):
            raise AssertionError("the oracle ran")

        for module in (cli, css, ree):
            monkeypatch.setattr(module, "ree_numeric", no_oracle)
        rng = np.random.default_rng(2)
        while True:
            rho = random_density_matrix(rng, rank=2)
            if css.classify(rho).kind is css.FamilyKind.OTHER and not qstate.is_ppt(rho):
                break
        p = write_state(tmp_path / "o.json", rho)
        res = runner.invoke(cli.main, ["css", p, "--method", "geometric",
                                       "--out", str(tmp_path / "css.json")])
        assert res.exit_code == 3 and type(res.exception) is SystemExit
        assert res.stderr == "error: state is outside the solvable families\n"
        assert sorted(os.listdir(tmp_path)) == ["o.json"]

    @pytest.mark.parametrize("name", ["separable_product", "separable_diagonal"])
    def test_separable_other_geometric_is_its_own_css(self, runner, tmp_path, monkeypatch,
                                                       name):
        """`css --method geometric` on a separable state outside the families
        writes what `--method auto` writes: method geometric, separable, the
        state as its own CSS at REE 0, without calling the oracle."""
        def no_oracle(rho, cfg=None):
            raise AssertionError("the oracle ran")

        for module in (cli, css, ree):
            monkeypatch.setattr(module, "ree_numeric", no_oracle)
        rho = fixed_inputs()[name]
        assert css.classify(rho).kind is css.FamilyKind.OTHER and qstate.is_ppt(rho)
        p = write_state(tmp_path / "o.json", rho)
        runs = [runner.invoke(cli.main, ["css", p, "--method", method])
                for method in ("geometric", "auto")]
        assert [r.exit_code for r in runs] == [0, 0]
        assert runs[0].output == runs[1].output
        d = json.loads(runs[0].output)
        assert d["method"] == "geometric" and d["family"] == "Other"
        assert d["separable"] is True and d["ree"] == 0.0

    def test_unconverged_fallback_exit_1(self, runner, tmp_path, monkeypatch):
        """`css --method auto` exits 1 with one error line and writes no file
        when the oracle behind the numeric fallback does not converge, after
        the Newton solve of the reverse map, given no step, has failed."""
        rng = np.random.default_rng(7)
        rho = 0.3 * random_density_matrix(rng) + 0.7 * qstate.BELL_STATES[0]
        report = ree.ReeReport(value=0.3, css_numeric=np.eye(4) / 4, gap=2e-3,
                               iterations=600, converged=False, lower=0.298)
        monkeypatch.setattr(css, "ree_numeric", lambda rho, cfg=None: report)
        monkeypatch.setattr(revmap, "NEWTON_STEPS", 0)
        p = write_state(tmp_path / "o.json", rho)
        res = runner.invoke(cli.main, ["css", p, "--method", "auto",
                                       "--out", str(tmp_path / "css.json")])
        assert res.exit_code == 1 and type(res.exception) is SystemExit
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "2.000e-03" in res.stderr
        assert sorted(os.listdir(tmp_path)) == ["o.json"]

    def test_unconverged_numeric_exit_1(self, runner, tmp_path, monkeypatch):
        """`css --method numeric` writes the oracle's report, marked
        unconverged, and then exits 1 with one error line."""
        report = ree.ReeReport(value=0.3, css_numeric=np.eye(4) / 4, gap=2e-3,
                               iterations=600, converged=False, lower=0.298)
        monkeypatch.setattr(cli, "ree_numeric", lambda rho: report)
        p = write_state(tmp_path / "bell.json", qstate.BELL_STATES[0])
        out = tmp_path / "css.json"
        res = runner.invoke(cli.main, ["css", p, "--method", "numeric", "--out", str(out)])
        assert res.exit_code == 1 and type(res.exception) is SystemExit
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        d = json.load(open(out))
        assert d["converged"] is False and d["ree"] == 0.3 and d["gap"] == 2e-3

    def test_maximally_correlated_method(self, runner, tmp_path, monkeypatch):
        """A pure state takes the maximally correlated route: `method` names
        it, the family stays Other with no lambdas, tau is VP's (0, 0, 1),
        and the REE is S(rho_A) with no oracle call.  `--method geometric`
        still exits 3, as `classify` finds the state outside the families."""
        def no_oracle(rho, cfg=None):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(css, "ree_numeric", no_oracle)
        rng = np.random.default_rng(5)
        theta = 0.4
        v = np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
        rho = rotate(np.outer(v, v), random_unitary(rng), random_unitary(rng))
        p = write_state(tmp_path / "pure.json", rho)
        res = runner.invoke(cli.main, ["css", p])
        assert res.exit_code == 0
        d = json.loads(res.output)
        assert d["method"] == "maximally-correlated" and d["family"] == "Other"
        assert d["lambdas"] is None and d["separable"] is False
        assert np.array_equal(d["tau"], [0.0, 0.0, 1.0])
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        assert d["ree"] == pytest.approx(-c2 * math.log(c2) - s2 * math.log(s2), abs=1e-14)
        res = runner.invoke(cli.main, ["css", p, "--method", "geometric"])
        assert res.exit_code == 3

    def test_oracle_inventory_of_the_fixed_inputs(self, monkeypatch):
        """Of the fixed inputs of `scripts/cli_outputs.py`, css_auto needs the
        oracle only on the three family states nudged onto their CSS's
        kernel, whose CSS is near rank deficiency (oracle lambda_min(sigma)
        3.6e-9 for both VP states, 1.7e-9 for Horodecki): there the Newton
        solve of the reverse map does not converge.  The X states x_a and
        x_b and the four generic states take route "reverse-map"; the pure
        states and the mixed maximally correlated one take the closed form."""
        class OracleCalled(Exception):
            pass

        def oracle(rho, cfg=None):
            raise OracleCalled

        monkeypatch.setattr(css, "ree_numeric", oracle)
        need = []
        for name, rho in fixed_inputs().items():
            try:
                css.css_auto(rho)
            except OracleCalled:
                need.append(name)
        assert need == ["vp_white_noise", "vp_01_noise", "horodecki_white_noise"]

    @pytest.mark.parametrize("name, route", [
        ("vp_a", "geometric"), ("max_correlated", "maximally-correlated"),
        ("x_a", "reverse-map"), ("vp_white_noise", "numeric-fallback")])
    def test_payload_of_each_method(self, runner, tmp_path, name, route):
        """The `css` JSON has exactly its method's keys: one fixed input per
        `method` value of `--method auto`, also through `--method geometric`
        where its family has a closed form, and `--method numeric`.  With
        `--bits`, ree, lower and gap are the nats values times 1 / ln 2 bit
        for bit, units reads "bits", and every other value is unchanged."""
        p = write_state(tmp_path / f"{name}.json", fixed_inputs()[name])
        unit = 1.0 / math.log(2.0)
        methods = ["auto", "numeric"] + (["geometric"] if route == "geometric" else [])
        for method in methods:
            runs = [runner.invoke(cli.main, ["css", p, "--method", method, *bits])
                    for bits in ([], ["--bits"])]
            assert [r.exit_code for r in runs] == [0, 0]
            nats, in_bits = (json.loads(r.output) for r in runs)
            if method == "numeric":
                keys = {"converged", "css", "family", "gap", "lower", "method", "ree", "units"}
                assert nats["method"] == "numeric" and nats["converged"] is True
            else:
                keys = {"css", "family", "lambdas", "method", "ree", "residuals", "separable",
                        "tau", "units"}
                assert nats["method"] == route
            assert set(nats) == keys and nats["units"] == "nats"
            scaled = {k: nats[k] * unit for k in ("ree", "lower", "gap") if k in nats}
            assert in_bits == {**nats, **scaled, "units": "bits"}

    def test_bits_flag(self, runner, tmp_path):
        p = write_state(tmp_path / "bell.json", qstate.BELL_STATES[0])
        res = runner.invoke(cli.main, ["css", p, "--bits"])
        d = json.loads(res.output)
        assert d["units"] == "bits"
        assert d["ree"] == pytest.approx(1.0, abs=1e-10)


def test_oracle_bracket_reported(runner, tmp_path):
    """`css --method numeric` and `verify --suite oracle` report the
    oracle's bracket [lower, value] and its gap, and it holds ln 2; `verify`
    also reports the oracle's steps."""
    p = write_state(tmp_path / "bell.json", qstate.BELL_STATES[0])
    res = runner.invoke(cli.main, ["css", p, "--method", "numeric", "--bits"])
    assert res.exit_code == 0
    d = json.loads(res.output)
    assert "restart_values" not in d and d["converged"] is True
    assert d["lower"] <= 1.0 <= d["ree"] and 0 < d["gap"] <= 1e-6
    assert d["gap"] == pytest.approx(d["ree"] - d["lower"], abs=1e-15)

    out = tmp_path / "report.json"
    res = runner.invoke(cli.main, ["verify", "--suite", "oracle", "--out", str(out)])
    assert res.exit_code == 0 and "4/4 checks passed" in res.output
    checks = json.load(open(out))["checks"]
    assert len(checks) == 4
    for c in checks:
        assert c["ok"] and c["lower"] <= math.log(2) <= c["value"]
        assert 0 < c["gap"] <= 1e-6
        assert type(c["iterations"]) is int and 0 < c["iterations"] < 600


class TestSurface:
    def test_octahedron_samples(self, runner, tmp_path):
        out = tmp_path / "mesh.csv"
        res = runner.invoke(cli.main, ["surface", "--body", "L", "--r", "0",
                                       "--s", "0", "--n", "16", "--out", str(out)])
        assert res.exit_code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "q1,q2,q3,sheet"
        for line in lines[1:]:
            q1, q2, q3, sheet = line.split(",")
            assert abs(float(q1)) + abs(float(q2)) + abs(float(q3)) == \
                pytest.approx(1.0, abs=1e-8)
            assert sheet in ("mu", "nu")

    def test_deterministic_output(self, runner, tmp_path):
        args = ["surface", "--body", "T", "--r", "0.3", "--s", "0.3", "--n", "12"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(cli.main, args + ["--out", str(a)])
        runner.invoke(cli.main, args + ["--out", str(b)])
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("body", ["T", "L"])
    def test_rows_are_surface_mesh(self, runner, tmp_path, body):
        # the default --tol, then two that reach psd_tol as given
        for flags, psd_tol in (([], qstate.PSD_TOL), (["--tol", "0"], 0.0),
                               (["--tol", "1e-3"], 1e-3)):
            out = tmp_path / "mesh.csv"
            res = runner.invoke(cli.main, ["surface", "--body", body, "--r", "0.3",
                                           "--s", "-0.2", "--n", "12", *flags,
                                           "--out", str(out)])
            assert res.exit_code == 0
            mesh = geometry.surface_mesh(body, 0.3, -0.2, 12, psd_tol=psd_tol)
            want = [",".join(["%.17g" % x for x in pt] + [sheet])
                    for pt, sheet in zip(mesh.points, mesh.sheets)]
            assert len(want) > 0
            assert open(out).read().splitlines()[1:] == want

    def test_bad_flags_exit_2(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["surface", "--body", "T", "--r", "2",
                                       "--s", "0", "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2


class TestSweep:
    def test_schema_and_determinism(self, runner, tmp_path):
        args = ["sweep", "--r", "0.3", "--s", "0.3", "--families", "3",
                "--xsteps", "8", "--seed", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(cli.main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(cli.main, args + ["--out", str(b)]).exit_code == 0
        text = open(a).read()
        assert text.splitlines()[0] == "family_id,x,t1,t2,t3,tau1,tau2,tau3,r,s"
        assert text == open(b).read()

    def test_near_boundary_bloch_served(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(cli.main, ["sweep", "--r", "0.97", "--s", "0.97",
                                       "--out", str(out)])
        assert res.exit_code == 0
        assert len(open(out).read().splitlines()) > 1

    @pytest.mark.parametrize("r, s", [("1", "0.5"), ("-0.2", "-1")])
    def test_unit_bloch_component_exit_2(self, runner, tmp_path, r, s):
        """No X-shaped edge state has |r| = 1 or |s| = 1."""
        res = runner.invoke(cli.main, ["sweep", "--r", r, "--s", s,
                                       "--out", str(tmp_path / "sweep.csv")])
        assert res.exit_code == 2 and "no X-shaped state" in res.stderr
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_zero_families_empty_file(self, runner, tmp_path):
        out = tmp_path / "empty.csv"
        res = runner.invoke(cli.main, ["sweep", "--r", "0", "--s", "0",
                                       "--families", "0", "--out", str(out)])
        assert res.exit_code == 0
        assert open(out).read() == "family_id,x,t1,t2,t3,tau1,tau2,tau3,r,s\n"


class TestVerify:
    def test_families_and_revmap_pass(self, runner):
        res = runner.invoke(cli.main, ["verify", "--suite", "families"])
        assert res.exit_code == 0 and "PASS" in res.output
        res = runner.invoke(cli.main, ["verify", "--suite", "revmap"])
        assert res.exit_code == 0

    def test_oracle_tiny_budget_fails(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "ree_numeric", lambda rho: ree.ree_numeric(
            rho, ree.OracleConfig(max_iterations=2)))
        res = runner.invoke(cli.main, ["verify", "--suite", "oracle"])
        assert res.exit_code == 1
        assert "NotConverged" in res.output

    def test_oracle_bracket_missing_ln2_fails(self, runner, monkeypatch):
        """A converged bracket that does not hold ln 2 fails each Bell check."""
        report = ree.ReeReport(value=0.6, css_numeric=np.eye(4) / 4, gap=1e-7,
                               iterations=20, converged=True, lower=0.6 - 1e-7)
        monkeypatch.setattr(cli, "ree_numeric", lambda rho: report)
        res = runner.invoke(cli.main, ["verify", "--suite", "oracle"])
        assert res.exit_code == 1 and "0/4 checks passed" in res.output
        assert res.output.count("(ln 2 outside the bracket [lower, value])") == 4

    def test_suite_table(self, runner, tmp_path):
        """`--suite` offers the three suites and all, and `--suite all`
        reports exactly the checks of families, revmap and oracle, in that
        order and with their names."""
        suite = next(p for p in cli.verify.params if p.name == "suite")
        assert list(suite.type.choices) == ["families", "revmap", "oracle", "all"]
        names = {}
        for name in suite.type.choices:
            out = tmp_path / f"{name}.json"
            res = runner.invoke(cli.main, ["verify", "--suite", name, "--out", str(out)])
            assert res.exit_code == 0
            report = json.load(open(out))
            names[name] = [c["name"] for c in report["checks"]]
            assert report["suite"] == name
            assert [line.split("] ")[1] for line in res.output.splitlines()[:-1]] == names[name]
        assert names["all"] == names["families"] + names["revmap"] + names["oracle"]
        assert len(names["oracle"]) == 4 and len(names["revmap"]) == 2

    def test_json_report(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(cli.main, ["verify", "--suite", "revmap",
                                       "--out", str(out)])
        assert res.exit_code == 0
        d = json.load(open(out))
        assert d["passed"] == d["total"]
