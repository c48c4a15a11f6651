"""reegeom benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-families --seed 1 --seconds 20 --trace 0

The program under test is imported from `src/` of the checkout this file
sits in.  The ops are a fixed list drawn from `--seed` and sized by
`--seconds`.  With `--trace 0` the run times them and prints the end-to-end
metrics; with `--trace 1` it runs a list of half the size untraced and then
traced, and prints the per-layer metrics.  Every op's output is checked; the
last line of standard output is the result object.  A run record goes to
`.bench_build/records/` unless `--records` names another directory.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Kernel time (see calibrate.py) at the speed latencies are scaled to: a
# typical sample on the 2-core machine the bounds were set on, whose samples
# ranged from 2.5 to 4.6 ms as its speed moved.
CALIBRATION_REF_S = 3.3e-3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_TIMES = ("qstate.self_s", "qstate.to_pauli.self_s", "qstate.canonicalize.self_s",
               "qstate.from_pauli.self_s", "geometry.self_s",
               "geometry.surface_mesh.self_s", "geometry.line_surface_crossing.self_s",
               "css.self_s", "revmap.self_s", "ree.self_s", "ree.ree_numeric.self_s",
               "ree.directional_optimality_check.self_s", "cli.self_s", "cli.import_s",
               "cli.import.scipy_s", "cli.import.reegeom_self_s", "cli.decompose.run_s",
               "cli.css.run_s", "cli.reconstruct.run_s", "cli.sweep.run_s",
               "cli.surface.run_s", "bench.self_s")
LAYER_COUNTS = ("qstate.calls", "qstate.to_pauli.calls", "spectra.calls",
                "css.css_auto.calls", "revmap.calls", "revmap.g_matrix.calls",
                "ree.ree_numeric.calls", "ree.iterations", "ree.iterations_per_call",
                "ree.relative_entropy.calls", "trace.ops")
LAYER_OUTPUTS = ("geometry.mesh.points", "revmap.sweep.rows")
LAYER_SHARES = ("geometry.mesh.kept_ratio", "geometry.crossings_per_ray",
                "css.geometric_share", "css.separable_share", "ree.converged_share",
                "trace.overhead_share")
PER_LAYER = {**{k: "s" for k in LAYER_TIMES}, **{k: "count" for k in LAYER_COUNTS},
             **{k: "count" for k in LAYER_OUTPUTS}, **{k: "ratio" for k in LAYER_SHARES}}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    """The environment a user's shell gives reegeom, with src importable."""
    env = dict(os.environ)
    env.pop("REE_GEOM_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def attempt(run):
    """(output, seconds, failures) of one call; an exception is a failure."""
    t0 = perf_counter()
    try:
        out = run()
    except Exception as exc:  # an op that raises is counted, not fatal
        return None, perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    return out, perf_counter() - t0, []


def check(op, out, fails) -> list:
    if fails:
        return fails
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output fails its check
        return [f"check raised {type(exc).__name__}: {exc}"]


def setup_seconds(workload, ctx) -> list:
    """Wall time of fresh processes that import reegeom and make one warm-up call."""
    code = f"{workload.import_statement}; {workload.setup_code}"
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ctx.work, env=ctx.env,
                       check=True, capture_output=True, timeout=120)
        samples.append(perf_counter() - t0)
    return samples


def tail(samples) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND samples beyond it, and
    its level.  With TAIL_BEYOND or fewer samples no order statistic has that
    many beyond it; there it is the highest with a quarter of the samples
    beyond it (the second largest of 6), because the maximum of a handful of
    ops moved by a third between runs on a shared machine."""
    ordered = sorted(samples)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) // 4
    index = len(ordered) - 1 - beyond
    return ordered[index], (index + 1) / len(ordered)


def op_list(workload, rng, seconds) -> list:
    """The run's ops: as many whole cycles as fit in `seconds` at the
    workload's nominal cycle time.  The list is a function of the seed and
    `seconds` alone, so every run and every version of the program measures
    the same inputs whatever the speed of the machine."""
    n_cycles = max(1, round(seconds / workload.cycle_s))
    cycles = workload.cycles(rng)
    return [op for _ in range(n_cycles) for op in next(cycles)]


def timed_run(workload, rng, seconds, ctx):
    """The op list of about `seconds` of work, timed op by op.

    On an in-process workload each op's wall time is scaled to the reference
    speed by the calibration kernel's time just before and just after it.
    The times of each `workload.group` consecutive ops add up to one sample
    of the latency metrics."""
    import calibrate

    ops = op_list(workload, rng, seconds)
    walls, latencies, failures, head, by_kind = [], [], [], [], {}
    kernel = [calibrate.sample_s()]
    for op in ops:
        out, wall, fails = attempt(op.run)
        walls.append(wall)
        if workload.in_process:
            kernel.append(calibrate.sample_s())
            wall *= CALIBRATION_REF_S / ((kernel[-2] + kernel[-1]) / 2)
        latencies.append(wall)
        by_kind.setdefault(op.kind, []).append(wall)
        fails = check(op, out, fails)
        failures += [f"{op.kind}: {f}" for f in fails[:1]]
        if len(head) < workload.fingerprint_ops:
            head.append(out)
    g = workload.group
    samples = [sum(latencies[i:i + g]) for i in range(0, len(latencies), g)]
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_kib = resource.getrusage(who).ru_maxrss
    setups = setup_seconds(workload, ctx)
    tail_s, level = tail(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    notes = {"ops": len(latencies), "samples": len(samples), "tail_level": level,
             "setup_samples": setups,
             "wall_s": sum(walls), "wall_ms": [t * 1e3 for t in walls],
             "latencies_ms": [t * 1e3 for t in latencies],
             "calibration_ms": [t * 1e3 for t in kernel],
             "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
             "fingerprint": workload.fingerprint(head)}
    return metrics, len(latencies), failures, notes


def traced_run(workload, rng, seconds, ctx):
    """The op list of about `seconds`/2 of work, run once untraced and once
    traced."""
    import tracing

    ops = op_list(workload, rng, seconds / 2)
    untraced = {}
    for op in ops:
        _, latency, _ = attempt(op.run)
        untraced.setdefault(op.kind, []).append(latency)

    tracer = tracing.Tracer()
    failures = []
    with tracing.installed(tracer):
        for op in ops:
            if op.traced:
                out, _, fails = attempt(lambda: op.traced(tracer))
            else:
                with tracer.op():
                    out, _, fails = attempt(op.run)
            failures += [f"{op.kind}: {f}" for f in check(op, out, fails)[:1]]

    imports = tracing.import_breakdown(workload.import_statement, ctx.env, ctx.work)
    untraced_wall = sum(sum(v) for v in untraced.values())
    metrics = layer_metrics(tracer, imports, untraced, untraced_wall)
    notes = {"ops": len(ops), "traced_wall_s": tracer.wall_s,
             "untraced_wall_s": untraced_wall,
             "accounted_s": sum(tracer.self_s.values())}
    return metrics, len(ops), failures, notes


def layer_metrics(tracer, imports, untraced, untraced_wall) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    counts, calls, self_s = tracer.counts, tracer.calls, tracer.self_s
    auto_calls = calls["css.css_auto"]
    oracle_calls = calls["ree.ree_numeric"]
    m = {f"{layer}.self_s": tracer.layer_self_s(layer)
         for layer in ("qstate", "geometry", "css", "revmap", "ree", "cli")}
    m.update({f"{layer}.calls": tracer.layer_calls(layer)
              for layer in ("qstate", "spectra", "revmap")})
    for name in ("qstate.to_pauli", "qstate.canonicalize", "qstate.from_pauli",
                 "geometry.surface_mesh", "geometry.line_surface_crossing",
                 "ree.ree_numeric", "ree.directional_optimality_check"):
        m[f"{name}.self_s"] = self_s[name]
    for name in ("qstate.to_pauli", "css.css_auto", "revmap.g_matrix",
                 "ree.ree_numeric", "ree.relative_entropy"):
        m[f"{name}.calls"] = calls[name]
    m.update({
        "geometry.mesh.points": counts["geometry.mesh.points"],
        "geometry.mesh.kept_ratio": ratio(counts["geometry.mesh.points"],
                                          counts["geometry.mesh.grid"]),
        "geometry.crossings_per_ray": ratio(counts["geometry.crossings"],
                                            calls["geometry.line_surface_crossing"]),
        "css.geometric_share": ratio(counts["css.geometric"], auto_calls),
        "css.separable_share": ratio(counts["css.separable"], auto_calls),
        "revmap.sweep.rows": counts["revmap.sweep.rows"],
        "ree.iterations": counts["ree.iterations"],
        "ree.iterations_per_call": ratio(counts["ree.iterations"], oracle_calls),
        "ree.converged_share": ratio(counts["ree.converged"], oracle_calls),
        "cli.import_s": imports["total"],
        "cli.import.scipy_s": imports["scipy"],
        "cli.import.reegeom_self_s": imports["reegeom_self"],
        "bench.self_s": self_s["bench.op"],
        "trace.ops": sum(len(v) for v in untraced.values()),
        "trace.overhead_share": ratio(tracer.wall_s, untraced_wall),
    })
    for sub in ("decompose", "css", "reconstruct", "sweep", "surface"):
        m[f"cli.{sub}.run_s"] = statistics.median(untraced[sub]) if sub in untraced else 0.0
    return m


def run_record(args, env, metrics, notes) -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    package = os.path.join(SRC, "reegeom")
    lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                lines += sum(1 for _ in fh)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": {"library": blas.get("name"), "version": blas.get("version"),
                 **{v: env.get(v, "unset") for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "src_reegeom_lines": lines,
        "metrics": metrics, **notes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", default=os.path.join(BUILD, "records"),
                        help="directory for the run record")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reegeom", "__init__.py")):
        fail(f"no reegeom sources under {SRC}")
    sys.path.insert(0, SRC)
    user_env = child_env()
    # In-process workloads are one caller on one thread.  OpenBLAS would
    # start a second thread for the oracle's products, and when the other
    # core was busy those two threads made cycles up to 10x slower while
    # single-threaded code slowed 2.5x.  Set before numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        cls = workloads.WORKLOADS[args.workload]
        ctx = workloads.Context(work, child_env() if cls.in_process else user_env)
        workload = cls(ctx)
        exec(f"{workload.import_statement}; {workload.setup_code}", {})
        rng = np.random.default_rng(args.seed)
        runner = traced_run if args.trace else timed_run
        metrics, attempted, failures, notes = runner(workload, rng, args.seconds, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    record = run_record(args, ctx.env, metrics, notes)
    os.makedirs(args.records, exist_ok=True)
    path = os.path.join(args.records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**record, "failures": failures}, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed {args.seed}: {attempted} ops, {len(failures)} failed "
          f"(failed_share {len(failures) / attempted:.4g}); record {path}")
    for line in failures[:10]:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
