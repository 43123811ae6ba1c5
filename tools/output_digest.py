"""Digest the CLI output of benchmark workloads, to check byte identity.

Usage (from the root of a checkout):

    python3 tools/output_digest.py --seeds 1,2,3
    python3 tools/output_digest.py --workload lattice --workload sweep --seeds 1
    python3 tools/output_digest.py --seeds 1,2,3 --cold
    python3 tools/output_digest.py --seeds 1,2,3 --by-command

Every case that ``perfbench/cases.py`` builds for each workload and seed
runs once, in process, through ``fracon.cli.main``, with fracon imported
from this checkout's ``src`` by ``perfbench/run.py``'s ``import_program``
and each case run by its ``run_case``.  One line per workload is printed:

    <workload> <cases> <sha256>

where the hash covers, case by case in run order, the argv, the exit code
(or the exception a case raised), stdout and stderr.  Run the same command
in two checkouts: equal lines mean byte-identical output on every case.

``--by-command`` prints one line per workload and command instead, sorted
by command,

    <workload> <command> <cases> <sha256>

hashing only that command's cases (in run order), so a change meant to move
one command's bytes can show that every other command's did not move.

``--cold`` clears every ``functools`` cache of every imported fracon
module (``cache_clear()``) before each case, so each case runs as in a
fresh process.  Equal digests with and without it show that no output
depends on what the caches hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from cases import WORKLOADS, build  # noqa: E402
from run import import_program, run_case  # noqa: E402


def _record(main, argv) -> bytes:
    (code, out, err), _ = run_case(main, argv)
    return (json.dumps([list(argv), code, out, err]) + "\n").encode()


def _clear_caches() -> None:
    """``cache_clear()`` every functools cache found in a fracon module."""
    for name, module in list(sys.modules.items()):
        if name == "fracon" or name.startswith("fracon."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def main(argv=None) -> int:
    cli_main = import_program().cli.main
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to digest (repeatable; default: all)")
    p.add_argument("--seeds", default="1,2,3", help="comma-separated case seeds")
    p.add_argument("--cold", action="store_true",
                   help="clear fracon's functools caches before each case")
    p.add_argument("--by-command", action="store_true",
                   help="print one digest per workload and command")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workload or WORKLOADS:
        digests: dict[str, list] = {}  # group -> [sha256, cases]
        for seed in seeds:
            for case in build(workload, seed):
                if args.cold:
                    _clear_caches()
                group = case.argv[0] if args.by_command else ""
                entry = digests.setdefault(group, [hashlib.sha256(), 0])
                entry[0].update(_record(cli_main, case.argv))
                entry[1] += 1
        for group, (digest, n) in sorted(digests.items()):
            label = f"{workload} {group}" if args.by_command else workload
            print(f"{label} {n} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
