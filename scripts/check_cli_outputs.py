"""Check the CLI files that `scripts/cli_outputs.py` wrote into DIR.

    python scripts/check_cli_outputs.py DIR

Five gates run in turn: exit codes (with the console output), recovery
gaps, cross-route REE, oracle excess and certificates.  Each prints its
name, then either every file that breaks it or one line saying that it
holds.  A gate that counts files also fails where it found none, so that
an empty or misnamed DIR cannot pass.  The exit code is 1 if any gate
fails, else 0.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from reegeom.cli import _state_matrix
from reegeom.ree import directional_optimality_check

CLOSED_FORM = ("geometric", "maximally-correlated")


def exit_codes(out: Path):
    """Every command of the fixed input set exits 0, so that a crash fails
    here even where two runs crash alike and their diff is empty; only
    `css --method geometric` may exit 3, on a state outside the closed-form
    families.  In console.txt, a command that exited non-zero printed exactly
    one line, starting `error:`, and no command printed a line holding
    `Warning` or `Traceback`, so that a warning or a traceback beside the
    right exit code fails here too."""
    bad, printed = [], []
    for text in (out / "console.txt").read_text().splitlines():
        if text.startswith("$ reegeom "):
            printed.append((text[len("$ reegeom "):], []))
        else:
            printed[-1][1].append(text)
    lines = (out / "exit_codes.txt").read_text().splitlines()
    if [args for args, _ in printed] != [line.split(" ", 1)[1] for line in lines]:
        bad.append("console.txt: its commands are not those of exit_codes.txt")
    for line, (_, output) in zip(lines, printed):
        code, args = line.split(" ", 1)
        geometric = args.startswith("css ") and " --method geometric " in args
        if not (code == "0" or (geometric and code == "3")):
            bad.append(line)
        if code != "0" and not (len(output) == 1 and output[0].startswith("error:")):
            bad.append(f"{line}: printed {output}, not one error line")
        bad += [f"{args}: printed {text!r}" for text in output
                if "Warning" in text or "Traceback" in text]
    return bad, ("every CLI command exited as expected, each that failed with one error "
                 "line, and none printed a warning or a traceback"), True


def recovery_gaps(out: Path):
    """Every entangled css-auto and css-geometric result carries a
    reverse-map recovery gap, and a closed-form one (method geometric or
    maximally-correlated) rebuilds rho within 1e-9 and has
    |lambda_min(css^Gamma)| within 1e-14 (edge_gap); every closed-form CSS
    keeps rho's Bloch vectors within 1e-15; a method reverse-map one, the
    reverse map's Newton solve, has recovery_gap within 1e-12 and edge_gap
    within 1e-14, as the closed forms do, so that a solve that stops short of
    its rounding floor fails here."""
    bad = []
    for path in sorted([*out.glob("*.css-auto.json"), *out.glob("*.css-geometric.json")]):
        res = json.loads(path.read_text())
        closed = res["method"] in CLOSED_FORM
        gap = res["residuals"]["recovery_gap"]
        if not res["separable"] and (gap is None or (closed and gap > 1e-9)):
            bad.append(f"{path.name}: recovery_gap {gap}")
        edge = res["residuals"]["edge_gap"]
        if not res["separable"] and closed and not edge <= 1e-14:
            bad.append(f"{path.name}: edge_gap {edge}")
        if res["method"] == "reverse-map" and not (gap is not None and gap <= 1e-12
                                                   and edge <= 1e-14):
            bad.append(f"{path.name}: reverse-map recovery_gap {gap}, edge_gap {edge}")
        if closed and not res["residuals"]["bloch_gap"] <= 1e-15:
            bad.append(f"{path.name}: bloch_gap {res['residuals']['bloch_gap']}")
    return bad, ("every entangled css file has its recovery gap, every entangled "
                 "closed-form one sits on the PPT boundary, every closed-form one keeps "
                 "rho's Bloch vectors, and every reverse-map one has recovery_gap within "
                 "1e-12 and edge_gap within 1e-14"), True


def cross_route_ree(out: Path):
    """Every css-numeric file is converged, and the oracle's bracket
    [lower, ree] holds the same state's css-auto REE within 1e-12, so that a
    closed form on the wrong family cannot pass on its own residuals; each
    file's gap equals ree - lower within 1e-15.  The summary prints the least
    margin on each side of the bracket, css-auto ree - lower and ree -
    css-auto ree, with the file that sets it, so that a bracket moving onto
    the css-auto REE shows before it breaks the gate."""
    bad, n, margins = [], 0, ([], [])
    for path in sorted(out.glob("*.css-numeric.json")):
        num = json.loads(path.read_text())
        n += 1
        if not num["converged"]:
            bad.append(f"{path.name}: not converged, gap {num['gap']}")
            continue
        if not abs(num["gap"] - (num["ree"] - num["lower"])) <= 1e-15:
            bad.append(f"{path.name}: gap {num['gap']} is not ree - lower "
                       f"{num['ree'] - num['lower']}")
        auto = json.loads(out.joinpath(path.name.replace(
            "css-numeric", "css-auto")).read_text())["ree"]
        margins[0].append((auto - num["lower"], path.name))
        margins[1].append((num["ree"] - auto, path.name))
        if not num["lower"] - 1e-12 <= auto <= num["ree"] + 1e-12:
            bad.append(f"{path.name}: css-auto ree {auto} outside "
                       f"[{num['lower']}, {num['ree']}]")
    (below, below_at), (above, above_at) = (min(m, default=(math.nan, "no file"))
                                            for m in margins)
    return bad, (f"all {n} css-numeric files converged, their gaps are ree - lower, "
                 "and their brackets hold the css-auto REEs; least css-auto ree - lower "
                 f"{below:.3g} ({below_at}), least ree - css-auto ree {above:.3g} "
                 f"({above_at})"), n > 0


def oracle_excess(out: Path):
    """On every entangled state solved in closed form (css-auto method
    geometric or maximally-correlated) or by the reverse map's Newton solve
    (method reverse-map), the oracle's REE exceeds css-auto's by at least
    5e-10 and at most 8e-9, the barrier parameter 8 times the last weight
    1e-9: a path that stops short of the last weight's centre, or a closed
    form above the minimum, fails here though its bracket may still hold the
    closed form's REE."""
    bad, n = [], 0
    for path in sorted(out.glob("*.css-auto.json")):
        auto = json.loads(path.read_text())
        if auto["separable"] or auto["method"] not in (*CLOSED_FORM, "reverse-map"):
            continue
        n += 1
        num = json.loads(out.joinpath(path.name.replace(
            "css-auto", "css-numeric")).read_text())["ree"]
        excess = num - auto["ree"]
        if not 5e-10 <= excess <= 8e-9 + 1e-12:
            bad.append(f"{path.name}: css-numeric ree exceeds css-auto ree by "
                       f"{excess}, outside [5e-10, 8e-9]")
    return bad, (f"on all {n} entangled closed-form and reverse-map states the "
                 "oracle's REE exceeds css-auto's by 5e-10 to 8e-9"), n > 0


def certificates(out: Path):
    """The exact optimality certificate c of `directional_optimality_check`,
    read with each css file's state file: c >= -1e-12 at every entangled
    closed-form CSS (css-auto method geometric or maximally-correlated),
    c >= -1e-10 at every css-auto CSS of method reverse-map, the bound that
    route accepts, and c >= -gap - 1e-12 at every css-numeric CSS, where the
    barrier's multiplier alone gives c = -gap."""
    bad, n_closed, n_reverse, n_numeric = [], 0, 0, 0

    def certificate(path, kind):
        res = json.loads(path.read_text())
        state = out / path.name.replace(f".{kind}.json", ".state.json")
        rho = _state_matrix(json.loads(state.read_text()))
        return res, directional_optimality_check(rho, _state_matrix(res["css"]))

    for path in sorted(out.glob("*.css-auto.json")):
        res, c = certificate(path, "css-auto")
        if not res["separable"] and res["method"] == "reverse-map":
            n_reverse += 1
            if not c >= -1e-10:
                bad.append(f"{path.name}: certificate {c} below -1e-10")
        if res["separable"] or res["method"] not in CLOSED_FORM:
            continue
        n_closed += 1
        if not c >= -1e-12:
            bad.append(f"{path.name}: certificate {c} below -1e-12")
    for path in sorted(out.glob("*.css-numeric.json")):
        res, c = certificate(path, "css-numeric")
        n_numeric += 1
        if not c >= -res["gap"] - 1e-12:
            bad.append(f"{path.name}: certificate {c} below -gap {-res['gap']}")
    return bad, (f"all {n_closed} entangled closed-form CSSs have certificates >= -1e-12, "
                 f"all {n_reverse} reverse-map CSSs >= -1e-10, and all {n_numeric} "
                 "css-numeric CSSs >= -gap - 1e-12"), min(n_closed, n_reverse, n_numeric) > 0


GATES = {"Exit codes": exit_codes, "Recovery gaps": recovery_gaps,
         "Cross-route REE": cross_route_ree, "Oracle excess": oracle_excess,
         "Certificates": certificates}


def main(out_dir: str) -> int:
    failed = []
    for name, gate in GATES.items():
        bad, summary, counted = gate(Path(out_dir))
        print(f"{name}: " + ("\n".join(bad) or summary))
        if bad or not counted:
            failed.append(name)
    print(f"failed: {', '.join(failed)}" if failed else "all five gates hold")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
