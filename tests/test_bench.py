"""scripts/bench.py: the aggregation into a BENCH file, its schema and the
comparison of two, on canned result lines with no subprocess."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

END_TO_END = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
              {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def _stdout(ops_per_s, op_p50_ms, failed=0):
    """A run's standard output: a progress line, then the result object."""
    result = {"correct": not failed, "attempted": 40, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                          "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}}
    return f"solve-families seed 1: 40 ops, {failed} failed; record x.json\n{json.dumps(result)}\n"


def parse(stdout):
    return json.loads(stdout.splitlines()[-1])


def _runs():
    return {"solve-families": [parse(_stdout(v, 1000 / v, failed=int(v == 150.0)))
                               for v in (150.0, 140.0, 160.0, 145.0, 155.0)],
            "cli-cold": [parse(_stdout(v, 1000 / v)) for v in (7.0, 6.0)]}


def _checkout(tmp_path):
    """A checkout with no .git and a two-module package."""
    package = tmp_path / "src" / "reegeom"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Docstring."""\n\n# comment\nX = 1\n')
    (package / "ree.py").write_text("import math\n\n\ndef f():\n    return math.pi\n")
    return tmp_path


def test_aggregate_medians_quartiles_and_ops():
    got = bench.aggregate(_runs(), END_TO_END)
    assert set(got) == {"solve-families", "cli-cold"}
    fam = got["solve-families"]
    assert fam["attempted"] == [40] * 5 and fam["failed"] == [1, 0, 0, 0, 0]
    ops = fam["metrics"]["ops_per_s"]
    assert (ops["q1"], ops["median"], ops["q3"]) == (145.0, 150.0, 155.0)
    assert ops["values"] == [150.0, 140.0, 160.0, 145.0, 155.0] and ops["unit"] == "1/s"
    assert fam["metrics"]["op_p50_ms"]["median"] == pytest.approx(1000 / 150)
    cold = got["cli-cold"]["metrics"]["ops_per_s"]
    assert (cold["q1"], cold["median"], cold["q3"]) == (6.25, 6.5, 6.75)


def test_bench_file_schema(tmp_path):
    """Every key the BENCH file promises, JSON-serialisable; outside a git
    checkout the sha and the modified flag are null."""
    got = bench.bench_file(_checkout(tmp_path), _runs(), END_TO_END)
    assert set(got) == {"schema", "seeds", "seconds", "git_sha", "src_modified", "platform",
                        "cpu_count", "python", "numpy", "OPENBLAS_NUM_THREADS",
                        "code_lines", "workloads"}
    assert got["schema"] == bench.SCHEMA and got["seeds"] == [1, 2, 3, 4, 5]
    assert got["seconds"] == 20.0
    assert got["git_sha"] is None and got["src_modified"] is None
    assert isinstance(got["cpu_count"], int) and got["numpy"].count(".") >= 1
    assert got["code_lines"] == {"__init__.py": {"lines": 4, "code": 1},
                                 "ree.py": {"lines": 5, "code": 3}}
    for workload in got["workloads"].values():
        assert set(workload) == {"attempted", "failed", "metrics"}
        for metric in workload["metrics"].values():
            assert set(metric) == {"unit", "median", "q1", "q3", "values"}
            assert metric["q1"] <= metric["median"] <= metric["q3"]
    assert json.loads(json.dumps(got)) == got


def test_compare_flags_only_beyond_the_bound(tmp_path):
    old = bench.bench_file(_checkout(tmp_path), _runs(), END_TO_END)
    new = json.loads(json.dumps(old))
    fam, cold = (new["workloads"][w]["metrics"] for w in ("solve-families", "cli-cold"))
    fam["ops_per_s"]["median"] = 150.0 * 0.74  # 26% fewer ops: beyond 0.25
    fam["op_p50_ms"]["median"] *= 1.2  # 20% slower: within
    cold["ops_per_s"]["median"] = 13.0  # twice as fast: a gain is never flagged
    cold["op_p50_ms"]["median"] *= 1.3
    del new["workloads"]["solve-families"]["metrics"]["op_p50_ms"]["q1"]  # medians alone are read
    lines = bench.compare(old, new, END_TO_END)
    assert len(lines) == 4
    assert lines[0].startswith("solve-families ops_per_s (higher is better): 150 -> 111 1/s, "
                               "ratio 0.7400")
    assert lines[0].endswith("BEYOND BOUND 0.25")
    assert "ratio 1.2000" in lines[1] and "BEYOND" not in lines[1]
    assert "ratio 2.0000" in lines[2] and "BEYOND" not in lines[2]
    assert lines[3].endswith("BEYOND BOUND 0.25")


def test_compare_skips_a_workload_missing_from_either_file(tmp_path):
    old = bench.bench_file(_checkout(tmp_path), _runs(), END_TO_END)
    new = json.loads(json.dumps(old))
    del new["workloads"]["cli-cold"]
    old["workloads"]["solve-families"]["metrics"]["ops_per_s"]["median"] = 0.0
    lines = bench.compare(old, new, END_TO_END)  # a zero old median gives no ratio
    assert len(lines) == 2 and math.isnan(float(lines[0].split("ratio ")[1].split()[0]))
