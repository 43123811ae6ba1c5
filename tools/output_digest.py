"""Digest the CLI output of benchmark workloads, to check byte identity.

Usage (from the root of a checkout):

    python3 tools/output_digest.py --seeds 1,2,3
    python3 tools/output_digest.py --workload lattice --workload sweep --seeds 1

Every case that ``perfbench/cases.py`` builds for each workload and seed
runs once, in process, through ``fracon.cli.main``, with fracon imported
from this checkout's ``src``.  One line per workload is printed:

    <workload> <cases> <sha256>

where the hash covers, case by case in run order, the argv, the exit code
(or the exception a case raised), stdout and stderr.  Run the same command
in two checkouts: equal lines mean byte-identical output on every case.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"


def _import():
    """``fracon.cli.main`` and the case builder, from this checkout only."""
    sys.dont_write_bytecode = True  # leave no caches under perfbench/
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    import fracon
    import fracon.cli
    from cases import WORKLOADS, build

    where = Path(fracon.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"fracon imported from {where}, not from {SRC}")
    return fracon.cli.main, WORKLOADS, build


def _record(main, argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # a raising case is part of the output
            code = f"raised {type(exc).__name__}: {exc}"
    return (json.dumps([list(argv), code, out.getvalue(), err.getvalue()]) + "\n").encode()


def main(argv=None) -> int:
    cli_main, workloads, build = _import()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads,
                   help="workload to digest (repeatable; default: all)")
    p.add_argument("--seeds", default="1,2,3", help="comma-separated case seeds")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workload or workloads:
        digest, n = hashlib.sha256(), 0
        for seed in seeds:
            for case in build(workload, seed):
                digest.update(_record(cli_main, case.argv))
                n += 1
        print(f"{workload} {n} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
