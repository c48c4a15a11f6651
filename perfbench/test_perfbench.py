"""Tests of the benchmark itself: its checker, its inputs and its tracing.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reegeom import css, ree  # noqa: E402


def _flatten(obj):
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in [k] + _flatten(obj[k])]
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _flatten(item)]
    if isinstance(obj, np.ndarray):
        return obj.ravel().tolist()
    if hasattr(obj, "__dataclass_fields__"):
        return _flatten(vars(obj))
    return [obj]


def _workload(name, work):
    return workloads.WORKLOADS[name](workloads.Context(str(work), run.child_env()))


def _inputs(name, seed, work):
    workload = _workload(name, work)
    ops = run.op_list(workload, np.random.default_rng(seed), 2 * workload.cycle_s)
    return [_flatten(op.inputs) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    first = _inputs(name, 7, tmp_path)
    assert first == _inputs(name, 7, tmp_path)
    assert first != _inputs(name, 8, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_list_is_whole_cycles_sized_by_seconds(name, tmp_path):
    workload = _workload(name, tmp_path)
    per_cycle = len(next(workload.cycles(np.random.default_rng(1))))
    for n_cycles in (1, 3):
        ops = run.op_list(workload, np.random.default_rng(1), n_cycles * workload.cycle_s)
        assert len(ops) == n_cycles * per_cycle
    assert len(run.op_list(workload, np.random.default_rng(1), 0)) == per_cycle


def test_checker_rejects_planted_css_and_accepts_the_correct_one():
    rng = np.random.default_rng(5)
    rho = ref.local_rotation(ref.horodecki_state((0.6, 0.3, 0.1)),
                             ref.haar_su2(rng), ref.haar_su2(rng))
    res = css.css_auto(rho)
    oracle = ree.ree_numeric(rho, ree.OracleConfig(seed=1)).value
    cert = ree.directional_optimality_check(rho, res.css)
    assert ref.check_certified_family(rho, res, oracle, cert) == []
    assert workloads.planted_css_rejected(rho, res, oracle)


def test_family_checker_accepts_css_auto_and_rejects_a_wrong_ree():
    rng = np.random.default_rng(6)
    for kind in ("bell", "vp", "horodecki", "werner", "bell_sep", "horodecki_sep"):
        expected = workloads.family_member(kind, rng)
        res = css.css_auto(expected["rho"])
        assert ref.check_family_solve(expected, res) == [], kind
        if not res.separable:
            res.ree += 1e-6
            assert ref.check_family_solve(expected, res), kind


def _bindings():
    return {(ns.__name__, attr): value for ns in tracing._namespaces()
            for attr, value in vars(ns).items()}


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            from reegeom import css as css_mod, qstate as qstate_mod
            assert css_mod.to_pauli is qstate_mod.to_pauli
            assert css_mod.to_pauli.__wrapped__ is before[("reegeom.qstate", "to_pauli")]
            with tracer.op():
                css_mod.css_auto(ref.bell_diagonal([0.9, -0.8, 0.7]))
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["css.css_auto"] == 1
    assert tracer.calls["qstate.to_pauli"] > 0


def test_self_times_add_up_to_the_traced_wall_time():
    tracer = tracing.Tracer()
    rng = np.random.default_rng(3)
    ctx = workloads.Context(ROOT, {})
    ops = next(workloads.SolveFamilies(ctx).cycles(rng))
    with tracing.installed(tracer):
        for op in ops:
            with tracer.op():
                op.run()
    total = sum(tracer.self_s.values())
    assert abs(total - tracer.wall_s) <= 1e-3 * tracer.wall_s + 1e-4
    assert min(tracer.self_s.values()) >= 0


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(100))
    value, level = run.tail(samples)
    assert value == 89 and sum(s > value for s in samples) == 10
    assert run.tail([3, 1, 2])[0] == 3
    assert run.tail([5, 1, 7, 2, 6, 3, 4]) == (6, 6 / 7)


def test_import_breakdown_finds_reegeom_and_scipy():
    got = tracing.import_breakdown("import reegeom", run.child_env(), ROOT, repeats=1)
    assert got["total"] > got["reegeom_self"] > 0
    assert got["scipy"] > 0


COUNTS = ("ree.iterations", "css.geometric_share", "geometry.mesh.points",
          "revmap.sweep.rows", "qstate.calls", "spectra.calls", "revmap.calls",
          "css.css_auto.calls", "ree.relative_entropy.calls", "trace.ops")


def _traced(name, seed, records):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           name, "--seed", str(seed), "--seconds", "1", "--trace", "1",
                           "--records", str(records)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: result["metrics"][k]["value"] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_across_same_seed_runs(name, tmp_path):
    assert _traced(name, 4, tmp_path) == _traced(name, 4, tmp_path)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "solve-families", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
