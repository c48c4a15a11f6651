"""Write the reegeom CLI files for one fixed input set into DIR.

    python scripts/cli_outputs.py DIR

The input set is 32 two-qubit states, each under its own fixed local unitary:
Bell-diagonal, generalized Vedral-Plenio (one with |l2 - l3| = 2e-8),
generalized Horodecki, Werner, separable, X-shaped, pure, generic, one
mixed maximally correlated state outside the VP family, and a VP and a
Horodecki state nudged off their template by 1e-9 of white noise or of
|01><01|, a weight on the kernel of their closed-form CSS.  Inputs are
appended, so that every earlier random draw stays in place.  The
states are built with numpy alone, so the input files do not depend on the
reegeom under test.  Each state goes through `decompose`, `reconstruct` of
the decompose file, and `css` with `--method auto`, `numeric` and
`geometric`; then `surface` runs for both bodies at three (r, s), and at one
of them with `--tol 0`, with `--tol 1e-3` and with `--n 96`; `sweep` at two
seeds and `verify --suite all`; last, `sweep` at two (r, s) near |r| = |s| = 1,
then at `--xmax 1e300`, whose far points overflow and drop, each appended so
that every earlier file keeps its name.  So every subcommand runs.

The commands run in-process through `reegeom.cli.main` with DIR as the
working directory, so every `--out` name and manifest is relative and two
runs compare equal.  Exit codes go to `exit_codes.txt`, console output to
`console.txt`.  To show that a change leaves the CLI files as they were:

    PYTHONPATH=<parent checkout>/src python scripts/cli_outputs.py before
    PYTHONPATH=src python scripts/cli_outputs.py after
    diff -r before after
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import click
import numpy as np

import reegeom.cli

SEED = 2026
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]],
                dtype=complex) / np.sqrt(2)


def projector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def bell_diagonal(t) -> np.ndarray:
    return (np.eye(4) + sum(ti * np.kron(p, p) for ti, p in zip(t, (SX, SY, SZ)))) / 4


def vp(l1, l2, l3) -> np.ndarray:
    return l1 * projector(BELL[0]) + np.diag([l2, 0, 0, l3])


def horodecki(l1, l2, l3) -> np.ndarray:
    return l1 * projector(BELL[0]) + np.diag([0, l2, l3, 0])


def werner(p) -> np.ndarray:
    return p * projector(BELL[3]) + (1 - p) * np.eye(4) / 4


def x_state(diag, c03, c12) -> np.ndarray:
    m = np.diag(diag).astype(complex)
    m[0, 3], m[1, 2] = c03, c12
    m[3, 0], m[2, 1] = np.conj(c03), np.conj(c12)
    return m


def ginibre(rng, rank, n=4) -> np.ndarray:
    z = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = z @ z.conj().T
    return m / np.trace(m).real


def unitary(rng, n=2) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def states(rng) -> dict[str, np.ndarray]:
    """The 32 input states, each rotated by its own local unitary."""
    base = {
        "bell_vertex": bell_diagonal([1, -1, 1]),
        "bell_face": bell_diagonal([0.8, -0.8, 0.8]),
        "bell_generic": bell_diagonal([0.9, -0.8, 0.7]),
        "bell_negative": bell_diagonal([-0.7, -0.5, -0.6]),
        "vp_a": vp(0.5, 0.3, 0.2),
        "vp_b": vp(0.7, 0.1, 0.2),
        "vp_near_equal": vp(0.4, 0.3 + 1e-8, 0.3 - 1e-8),
        "vp_edge": vp(0.9, 0.1, 0.0),
        "horodecki_a": horodecki(0.6, 0.3, 0.1),
        "horodecki_b": horodecki(0.8, 0.15, 0.05),
        "horodecki_c": horodecki(0.7, 0.1, 0.2),
        "horodecki_separable": horodecki(0.45, 0.35, 0.2),
        "werner_separable": werner(0.2),
        "werner_half": werner(0.5),
        "werner_high": werner(0.9),
        "separable_product": np.kron(ginibre(rng, 2, n=2), ginibre(rng, 2, n=2)),
        "separable_diagonal": np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex),
        "separable_mixed": np.eye(4, dtype=complex) / 4,
        "x_a": x_state([0.3, 0.2, 0.1, 0.4], 0.3 * np.exp(0.4j), 0.1),
        "x_b": x_state([0.45, 0.05, 0.1, 0.4], 0.4, 0.05j),
        "x_c": x_state([0.25, 0.25, 0.25, 0.25], 0.1, 0.2),
        "pure_schmidt": projector([np.cos(0.3), 0, 0, np.sin(0.3)]),
        "pure_random_a": projector(rng.normal(size=4) + 1j * rng.normal(size=4)),
        "pure_random_b": projector(rng.normal(size=4) + 1j * rng.normal(size=4)),
        "generic_rank2": ginibre(rng, 2),
        "generic_rank3": ginibre(rng, 3),
        "generic_rank4": ginibre(rng, 4),
        "generic_mixture": 0.7 * ginibre(rng, 1) + 0.3 * np.eye(4) / 4,
        # 0.7|00><00| + 0.3|11><11| + 0.4(|00><11| + h.c.): z > min(a, b)
        "max_correlated": x_state([0.7, 0.0, 0.0, 0.3], 0.4, 0.0),
        "vp_white_noise": (1 - 1e-9) * vp(0.5, 0.3, 0.2) + 1e-9 * np.eye(4) / 4,
        "vp_01_noise": (1 - 1e-9) * vp(0.5, 0.3, 0.2) + 1e-9 * np.diag([0, 1, 0, 0]),
        "horodecki_white_noise": (1 - 1e-9) * horodecki(0.6, 0.3, 0.1) + 1e-9 * np.eye(4) / 4,
    }
    out = {}
    for name, rho in base.items():
        u = np.kron(unitary(rng), unitary(rng))
        out[name] = u @ rho @ u.conj().T
    return out


def commands(names) -> list[list[str]]:
    cmds = []
    for name in names:
        state = f"{name}.state.json"
        cmds.append(["decompose", state, "--out", f"{name}.decompose.json"])
        cmds.append(["reconstruct", f"{name}.decompose.json",
                     "--out", f"{name}.reconstruct.json"])
        for method in ("auto", "numeric", "geometric"):
            cmds.append(["css", state, "--method", method,
                         "--out", f"{name}.css-{method}.json"])
    for body in ("T", "L"):
        for r, s in (("0", "0"), ("0.3", "-0.2"), ("-0.5", "0.4")):
            cmds.append(["surface", "--body", body, "--r", r, "--s", s, "--n", "24",
                         "--out", f"surface_{body}_{r}_{s}.csv"])
        # the root filter at both ends of --tol, and the largest mesh of the
        # geometry-export benchmark
        for flags, tag in ((["--n", "24", "--tol", "0"], "tol0"),
                           (["--n", "24", "--tol", "1e-3"], "tol1e-3"),
                           (["--n", "96"], "n96")):
            cmds.append(["surface", "--body", body, "--r", "0.3", "--s", "-0.2", *flags,
                         "--out", f"surface_{body}_0.3_-0.2_{tag}.csv"])
    for seed in ("0", "1"):
        cmds.append(["sweep", "--r", "0.1", "--s", "-0.2", "--seed", seed,
                     "--out", f"sweep_seed{seed}.csv"])
    cmds.append(["verify", "--suite", "all", "--out", "verify.json"])
    for r, s in (("0.97", "0.97"), ("-0.98", "-0.96")):
        cmds.append(["sweep", "--r", r, "--s", s, "--out", f"sweep_{r}_{s}.csv"])
    cmds.append(["sweep", "--r", "-0.5", "--s", "0.5", "--xmax", "1e300",
                 "--out", "sweep_xmax1e300.csv"])
    return cmds


def run(args: list[str]) -> int:
    """Exit code of `reegeom ARGS` run in this process."""
    try:
        code = reegeom.cli.main.main(args, prog_name="reegeom", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    return int(code or 0)


def main(out_dir: str) -> None:
    inputs = states(np.random.default_rng(SEED))
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    for name, rho in inputs.items():
        with open(f"{name}.state.json", "w") as fh:
            json.dump({"re": rho.real.tolist(), "im": rho.imag.tolist()}, fh, indent=2)
            fh.write("\n")
    lines = []
    with open("console.txt", "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        for args in commands(inputs):
            print("$ reegeom " + " ".join(args), flush=True)
            lines.append(f"{run(args)} {' '.join(args)}\n")
    with open("exit_codes.txt", "w") as fh:
        fh.writelines(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
