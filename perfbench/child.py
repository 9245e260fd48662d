"""One benchmark child: import the statindep CLI, optionally trace it, run it.

Usage: python3 perfbench/child.py SIDECAR TRACE [CLI ARGS ...]

The package is imported from the ``src`` directory of the checkout that
holds this file, never from an installed copy.  SIDECAR receives a JSON
object with the CLOCK_MONOTONIC time at which ``import statindep.cli``
returned (the parent compares it with its own spawn time), the numpy
version, and, when TRACE is 1, the tracer's per-layer summary.  With no
CLI arguments the child only imports the package.  The exit code is the CLI's.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    sidecar, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, SRC)
    import statindep.cli
    imported = time.monotonic()
    if not os.path.abspath(statindep.cli.__file__).startswith(SRC + os.sep):
        print(f"statindep imported from {statindep.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    record = {"imported": imported, "numpy": sys.modules["numpy"].__version__}
    code = 0
    if cli_args:
        tracer = None
        if trace:
            import tracer as tracing
            tracer = tracing.install()
        start = time.perf_counter()
        code = statindep.cli.main(cli_args)
        main_s = time.perf_counter() - start
        if tracer is not None:
            record["trace"] = tracing.summary(tracer, main_s)
    with open(sidecar + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    os.replace(sidecar + ".tmp", sidecar)
    return code


if __name__ == "__main__":
    sys.exit(main())
