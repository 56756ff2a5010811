"""Child process of the benchmark: runs the ctlab CLI in one of two modes.

    python3 perfbench/child.py setup OUTFILE -- CTLAB_ARGS...
    python3 perfbench/child.py trace OUTFILE -- CTLAB_ARGS...

setup  runs `ctlab.cli.main` until the first pipeline row would begin, writes
       the monotonic clock reading at that moment to OUTFILE and stops.
trace  runs `ctlab.cli.main` with every public ctlab function wrapped by the
       span tracer and writes the spans to OUTFILE as JSON lines.

The exit code is the CLI's (0 for setup once the first row is reached).
"""

from __future__ import annotations

import importlib
import sys
import time


class _FirstRow(Exception):
    pass


def _first_row(*args, **kwargs):
    raise _FirstRow(time.perf_counter())


def main(argv) -> int:
    if len(argv) < 3 or argv[0] not in ("setup", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, out_path, ctlab_args = argv[0], argv[1], argv[3:]
    import ctlab.cli as cli

    if mode == "setup":
        cli.compute_row = _first_row
        try:
            rc = cli.main(ctlab_args)
        except _FirstRow as reached:
            with open(out_path, "w", encoding="ascii") as fh:
                fh.write(repr(reached.args[0]))
            return 0
        print(f"setup probe: no pipeline row began (exit {rc})", file=sys.stderr)
        return 1

    from spans import LAYERS, Tracer

    tracer = Tracer()
    tracer.install([importlib.import_module(f"ctlab.{layer}") for layer in LAYERS])
    try:
        return cli.main(ctlab_args)
    finally:
        tracer.write(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
