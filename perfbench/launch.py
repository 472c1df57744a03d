"""Run one ``qx2src.cli`` command with the tracer installed.

    python3 perfbench/launch.py TRACE_OUT.json <cli arguments...>

Behaves like ``python -m qx2src.cli <arguments>`` (same stdout, stderr
and exit code) and, when the command returns, writes the tracer's
per-function totals to TRACE_OUT.json for the parent benchmark to merge.
"""

import json
import sys

from qx2src import cli

from tracer import SPAN_NAMES, Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        snap = tracer.snapshot()
        snap["main_total_s"] = snap["total_s"][SPAN_NAMES.index("cli.main")]
        with open(out_path, "w") as fh:
            json.dump(snap, fh)
        tracer.uninstall()
    return code


if __name__ == "__main__":
    sys.exit(main())
