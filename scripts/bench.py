"""Benchmark one checkout on every workload into a BENCH file, and compare two.

    python scripts/bench.py CHECKOUT OUT [--compare OLD.json]

CHECKOUT is a checkout of this repository.  For each workload of its
BENCHMARK.json and each of SEEDS, `perfbench/run.py --workload W --seed S
--seconds 20 --trace 0` runs, unchanged, in a subprocess in CHECKOUT, with
its run record in a temporary directory (`scripts/pairs.py`'s `run_one`);
every BENCH file is made at the same seeds and length, so that any two
compare.  OUT, a JSON file, gets per workload and end-to-end metric the
median and quartiles over the seeds (`pairs.quartiles`) with the values
behind them, and the ops attempted and failed at each seed; beside them the
checkout's git sha (null outside a git checkout) and whether its `src`
differs from that commit, `platform`, `os.cpu_count()`, the Python and
numpy versions, `OPENBLAS_NUM_THREADS` as this process sees it, and
`scripts/code_lines.py`'s lines and code lines of each module of
`src/reegeom`.

With `--compare OLD.json`, a BENCH file written earlier, one line per
workload and metric gives OUT's median over OLD's and marks a ratio worse
than the metric's BENCHMARK.json bound, a relative change, with
`BEYOND BOUND`.  The script reports; it exits 0 unless a run fails to
produce a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from code_lines import counts  # noqa: E402
from pairs import quartiles, run_one  # noqa: E402

SCHEMA = 1
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 20.0


def aggregate(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per workload, the median and quartiles of each metric of `end_to_end`
    (BENCHMARK.json's entries) over the result objects of its runs, one a
    seed, and the ops each run attempted and failed."""
    out = {}
    for workload, results in runs.items():
        metrics = {}
        for spec in end_to_end:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            metrics[spec["name"]] = {"unit": spec["unit"], "median": median, "q1": q1,
                                     "q3": q3, "values": values}
        out[workload] = {"attempted": [r["attempted"] for r in results],
                         "failed": [r["failed"] for r in results], "metrics": metrics}
    return out


def _git(checkout: Path, *args: str) -> str | None:
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def bench_file(checkout: Path, runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """The contents of a BENCH file: the runs' `aggregate` and what they were
    measured on, the code and the machine."""
    status = _git(checkout, "status", "--porcelain", "--", "src")
    return {"schema": SCHEMA, "seeds": list(SEEDS), "seconds": SECONDS,
            "git_sha": _git(checkout, "rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status),
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "code_lines": {name: {"lines": n, "code": c} for name, (n, c)
                           in counts(checkout / "src" / "reegeom").items()},
            "workloads": aggregate(runs, end_to_end)}


def compare(old: dict, new: dict, end_to_end: list[dict]) -> list[str]:
    """One line per workload of both BENCH files and metric of `end_to_end`:
    new median over old, marked where it is worse than the metric's bound."""
    lines = []
    for workload in (w for w in new["workloads"] if w in old["workloads"]):
        for spec in end_to_end:
            name = spec["name"]
            was = old["workloads"][workload]["metrics"][name]["median"]
            now = new["workloads"][workload]["metrics"][name]["median"]
            ratio = now / was if was else float("nan")
            worse = (ratio < 1 - spec["bound"] if spec["better"] == "higher"
                     else ratio > 1 + spec["bound"])
            lines.append(f"{workload} {name} ({spec['better']} is better): {was:.4g} -> "
                         f"{now:.4g} {spec['unit']}, ratio {ratio:.4f}"
                         + (f"  BEYOND BOUND {spec['bound']:g}" if worse else ""))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--compare", type=Path, metavar="OLD.json")
    args = parser.parse_args(argv)

    bench = json.loads((args.checkout / "BENCHMARK.json").read_text())
    runs = {}
    with tempfile.TemporaryDirectory() as records:
        for workload in (w["name"] for w in bench["workloads"]):
            runs[workload] = []
            for seed in SEEDS:
                runs[workload].append(run_one(args.checkout, workload, seed, SECONDS, records))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m} {v['value']:.4g}" for m, v in runs[workload][-1]["metrics"].items()),
                    flush=True)
    result = bench_file(args.checkout, runs, bench["end_to_end"])
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    if args.compare:
        print("\n".join(compare(json.loads(args.compare.read_text()), result,
                                bench["end_to_end"])))


if __name__ == "__main__":
    main()
