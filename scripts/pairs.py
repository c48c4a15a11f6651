"""Alternating parent/change benchmark pairs, and whether a gain may be claimed.

    python scripts/pairs.py PARENT CHANGE --workload W --seeds 501 502 ... [--seconds 20]

PARENT and CHANGE are two checkouts of this repository.  For each seed, one
pair: `perfbench/run.py --workload W --seed S --seconds X --trace 0` runs,
unchanged, in a subprocess in each checkout, the parent first in odd pairs
(the first, third, ...) and the change first in even ones.  Each run's last
line of standard output is its result object; its run record goes to a
temporary directory.  One line per pair gives both sides' end-to-end metrics.

Then, for each end-to-end metric of PARENT's BENCHMARK.json, one line gives
each side's median and quartiles, the pairs the change won (ties count for
neither side) and whether a gain holds: the change wins at least nine tenths
of the pairs run, and the medians differ, in the better direction, by more
than the distance between the parent's quartiles.  A last line counts the
failed ops of each side.

A second block gives one line per metric on regressions, against the
metric's BENCHMARK.json `bound`, a fraction of the parent's median:
"regression" where the change's median is worse than the parent's by more
than the bound; else "unresolved" where the parent's quartile distance over
its median exceeds the bound, so that its runs spread too widely to tell,
unless every change run beats every parent run; else "within bound".  The
script reports; it exits 0 unless a run fails to produce a result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_result(stdout: str) -> dict:
    """The result object of one run: the last line of its standard output."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive of the extremes."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The gain rule on one metric's paired values, pair k being
    (parent[k], change[k])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = sign * (cm - pm)
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "losses": losses, "pairs": len(parent), "gain": gain, "spread": p3 - p1,
            "holds": 10 * wins >= 9 * len(parent) and gain > p3 - p1}


def summary(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """One line per metric of `end_to_end` (BENCHMARK.json's entries) over
    the result objects of the pairs, then the failed-op counts."""
    lines = []
    for spec in end_to_end:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        v = verdict(parent, change, spec["better"])
        p1, pm, p3 = v["parent"]
        c1, cm, c3 = v["change"]
        ratio = f"{cm / pm:.4f}x" if pm else "n/a"
        lines.append(
            f"{name} ({spec['better']} is better, {spec['unit']}): "
            f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}], change {cm:.4g} [{c1:.4g}, {c3:.4g}], "
            f"change/parent {ratio}; change wins {v['wins']} of {v['pairs']} "
            f"(loses {v['losses']}); median gain {v['gain']:+.4g} against parent "
            f"quartile distance {v['spread']:.4g}: gain {'holds' if v['holds'] else 'not shown'}")
    failed = [sum(r["failed"] for r in side) for side in zip(*pairs)] or [0, 0]
    attempted = [sum(r["attempted"] for r in side) for side in zip(*pairs)] or [0, 0]
    lines.append(f"failed ops: parent {failed[0]} of {attempted[0]}, "
                 f"change {failed[1]} of {attempted[1]}")
    return lines


def bound_verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The regression rule on one metric's paired values: the change's
    median worse than the parent's by more than `bound` of the parent's
    median, and whether the parent's quartile distance over its median, its
    spread, exceeds `bound` with some change run not beating every parent run."""
    sign = 1.0 if better == "higher" else -1.0
    (p1, pm, p3), cm = quartiles(parent), quartiles(change)[1]
    if not pm:
        return {"worse": math.nan, "spread": math.nan, "all_better": False,
                "status": "unresolved"}
    worse, spread = sign * (pm - cm) / abs(pm), (p3 - p1) / abs(pm)
    all_better = (min(change) > max(parent) if sign > 0 else max(change) < min(parent))
    status = ("regression" if worse > bound
              else "unresolved" if spread > bound and not all_better else "within bound")
    return {"worse": worse, "spread": spread, "all_better": all_better, "status": status}


def bound_lines(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """One line per metric of `end_to_end` (BENCHMARK.json's entries, each
    with its `bound`) on the regression rule of `bound_verdict`."""
    lines = []
    for spec in end_to_end:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        v = bound_verdict(parent, change, spec["better"], spec["bound"])
        every = "; every change run beats every parent run" if v["all_better"] else ""
        side = "worse" if v["worse"] > 0 else "better"
        lines.append(
            f"{name} (bound {spec['bound']:g}): change median {side} by {abs(v['worse']):.2%} "
            f"of the parent's, parent quartile distance {v['spread']:.2%} of its median"
            f"{every}: {v['status']}")
    return lines


def _pair_line(k: int, seed: int, parent: dict, change: dict) -> str:
    def values(r):
        return ", ".join(f"{m} {v['value']:.4g}" for m, v in r["metrics"].items())
    return f"pair {k} seed {seed}: parent {values(parent)} | change {values(change)}"


def run_one(checkout: Path, workload: str, seed: int, seconds: float, records: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--records", records]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return parse_result(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    pairs = []
    with tempfile.TemporaryDirectory() as records:
        for k, seed in enumerate(args.seeds, 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            result = {side: run_one(getattr(args, side), args.workload, seed, args.seconds,
                                    str(Path(records) / side)) for side in order}
            pairs.append((result["parent"], result["change"]))
            print(_pair_line(k, seed, *pairs[-1]), flush=True)
    print(f"{args.workload}: {len(pairs)} pairs at --seconds {args.seconds:g}, "
          f"parent {args.parent}, change {args.change}")
    print("\n".join(summary(pairs, bench["end_to_end"])))
    print("\n".join(bound_lines(pairs, bench["end_to_end"])))


if __name__ == "__main__":
    main()
