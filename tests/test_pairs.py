"""scripts/pairs.py: the gain rule and the summary, on canned result lines
with no subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("pairs", SCRIPTS / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
              {"name": "op_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def _stdout(ops_per_s, op_tail_ms, failed=0):
    """A run's standard output: a progress line, then the result object."""
    result = {"correct": not failed, "attempted": 50, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                          "op_tail_ms": {"value": op_tail_ms, "unit": "ms"}}}
    return f"geometry-export seed 1: 50 ops, {failed} failed; record x.json\n{json.dumps(result)}\n"


def _pairs(parent_ops, change_ops, parent_tail, change_tail, change_failed=0):
    return [(pairs.parse_result(_stdout(p, pt)), pairs.parse_result(_stdout(c, ct, change_failed)))
            for p, c, pt, ct in zip(parent_ops, change_ops, parent_tail, change_tail)]


def test_parse_result_reads_the_last_line():
    result = pairs.parse_result(_stdout(373.3, 3.4))
    assert result["metrics"]["ops_per_s"]["value"] == 373.3 and result["attempted"] == 50


def test_quartiles_inclusive():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_holds_on_nine_of_ten_wins_beyond_the_spread():
    parent = [370.0, 365.0, 382.0, 373.0, 380.0, 368.0, 375.0, 372.0, 378.0, 371.0]
    change = [p + 20.0 for p in parent]
    change[3] = 360.0  # one loss
    v = pairs.verdict(parent, change, "higher")
    assert (v["wins"], v["losses"], v["pairs"]) == (9, 1, 10)
    assert v["spread"] == pytest.approx(v["parent"][2] - v["parent"][0])
    assert v["holds"]


@pytest.mark.parametrize("case", ["eight-wins", "within-spread", "eight-wins-two-ties"])
def test_gain_not_shown(case):
    parent = [370.0, 365.0, 382.0, 373.0, 380.0, 368.0, 375.0, 372.0, 378.0, 371.0]
    if case == "eight-wins":
        change = [p + 20.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
    elif case == "within-spread":  # ten wins, but by less than the parent's quartile distance
        change = [p + 1.0 for p in parent]
    else:  # a tie counts for neither side, so eight wins of ten pairs fall short
        change = [p + 20.0 for p in parent[:8]] + parent[8:]
    v = pairs.verdict(parent, change, "higher")
    assert not v["holds"]
    assert v["losses"] == (2 if case == "eight-wins" else 0)


def test_lower_is_better_counts_a_fall_as_a_win():
    v = pairs.verdict([3.4, 3.5, 3.3], [3.1, 3.2, 3.0], "lower")
    assert v["wins"] == 3 and v["gain"] == pytest.approx(0.3)


def test_summary_lines():
    got = _pairs([370.0, 380.0, 375.0], [395.0, 396.0, 394.0], [3.4, 3.3, 3.5], [3.2, 3.6, 3.1],
                 change_failed=1)
    lines = pairs.summary(got, END_TO_END)
    assert len(lines) == 3
    assert lines[0].startswith("ops_per_s (higher is better, 1/s): parent 375 [372.5, 377.5], "
                               "change 395 [394.5, 395.5], change/parent 1.0533x; "
                               "change wins 3 of 3 (loses 0)")
    assert lines[0].endswith("gain holds")
    assert "change wins 2 of 3 (loses 1)" in lines[1] and lines[1].endswith("gain not shown")
    assert lines[2] == "failed ops: parent 0 of 150, change 3 of 150"


@pytest.mark.parametrize("case", ["regression", "within-bound", "unresolved", "all-better"])
def test_bound_verdict(case):
    """A median worse by more than the bound is a regression; a parent whose
    quartile distance exceeds the bound of its median leaves the metric
    unresolved, unless every change run beats every parent run."""
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0]
    if case == "regression":  # 30% fewer ops per second
        change = [p * 0.7 for p in parent]
    elif case == "within-bound":  # 10% fewer, inside the 25% bound
        change = [p * 0.9 for p in parent]
    elif case == "unresolved":  # the parent spreads by 50% of its median
        parent = [60.0, 150.0, 70.0, 140.0, 100.0, 100.0]
        change = [p * 0.95 for p in parent]
    else:  # the same spread, but every change run is the better
        parent = [60.0, 150.0, 70.0, 140.0, 100.0, 100.0]
        change = [151.0, 152.0, 153.0, 154.0, 155.0, 156.0]
    v = pairs.bound_verdict(parent, change, "higher", 0.25)
    assert v["status"] == {"regression": "regression", "within-bound": "within bound",
                           "unresolved": "unresolved", "all-better": "within bound"}[case]
    assert v["all_better"] == (case == "all-better")
    if case == "regression":
        assert v["worse"] == pytest.approx(0.3)
    elif case == "within-bound":
        assert v["worse"] == pytest.approx(0.1) and v["spread"] < 0.25
    else:
        assert v["spread"] > 0.25


def test_bound_verdict_lower_is_better():
    """A rise of a lower-is-better metric is the worse direction."""
    v = pairs.bound_verdict([3.0, 3.1, 2.9], [4.0, 4.1, 3.9], "lower", 0.25)
    assert v["worse"] == pytest.approx(1 / 3) and v["status"] == "regression"


def test_bound_lines():
    got = _pairs([370.0, 380.0, 375.0], [395.0, 396.0, 394.0], [3.4, 3.3, 3.5], [5.2, 5.6, 5.1])
    lines = pairs.bound_lines(got, END_TO_END)
    assert lines == [
        "ops_per_s (bound 0.25): change median better by 5.33% of the parent's, parent "
        "quartile distance 1.33% of its median; every change run beats every parent run: "
        "within bound",
        "op_tail_ms (bound 0.25): change median worse by 52.94% of the parent's, parent "
        "quartile distance 2.94% of its median: regression"]
