"""Run one reegeom CLI command with every layer traced.

Usage: python perfbench/cli_child.py DUMP ARGS...

Imports `reegeom.cli` (timed as the `cli.import` span), runs the command
ARGS as `reegeom ARGS` would, writes the tracer dump to DUMP and exits with
the command's exit code.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import reegeom.cli  # noqa: E402

IMPORT_S = perf_counter() - t0

from tracing import Tracer, installed  # noqa: E402


def main():
    dump, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.self_s["cli.import"] += IMPORT_S
    tracer.calls["cli.import"] += 1
    code = 0
    with installed(tracer), tracer.op(), tracer.span("cli.main"):
        try:
            reegeom.cli.main.main(args=args, prog_name="reegeom",
                                  standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    with open(dump, "w") as fh:
        json.dump(tracer.dump(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
