"""Record reference outputs and check the workload seed list.

Usage (from the root of a checkout of the commit whose outputs are the
reference): python3 perfbench/record.py

Runs every workload once at every seed in ``workloads.SEEDS``, checks each
run's exit code and verdicts, and writes ``reference/digests.json`` (the
sha256 of every output file) and, for workload seed 0, the gzipped output
files themselves.  Prints one line per (workload, seed) and exits 1 if any
seed fails, so that seed can be dropped from the list.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
import tempfile
import time

import check
import run
import workloads


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.WORK)
    env = run.child_env()
    digests: dict = {}
    bad = 0
    try:
        for name in workloads.WORKLOADS:
            for seed in workloads.SEEDS:
                basename, out_dir, cli_args = run.prepare(name, seed, workdir)
                shutil.rmtree(out_dir, ignore_errors=True)
                c = run.spawn(workdir, cli_args, False, env, time.monotonic() + 600)
                outputs = check.read_outputs(out_dir, basename)
                problems = check.check_run(c.code, outputs, basename, None)
                bad += bool(problems)
                print(f"{name} seed {seed}: {c.wall_s:.2f} s, "
                      f"{c.rss_mb:.0f} MB, {'; '.join(problems) or 'ok'}")
                digests.setdefault(name, {})[str(seed)] = {
                    n: check.digest(d) for n, d in outputs.items()}
                if seed == 0:
                    folder = os.path.join(check.REFERENCE_DIR, f"{name}-seed0")
                    shutil.rmtree(folder, ignore_errors=True)
                    os.makedirs(folder)
                    for n, data in outputs.items():
                        with gzip.GzipFile(os.path.join(folder, n + ".gz"), "wb",
                                           compresslevel=9, mtime=0) as fh:
                            fh.write(data)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(check.REFERENCE_DIR, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
