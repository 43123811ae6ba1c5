"""Time ``certify_gsc`` of two checkouts against each other, in one process.

Usage (from the root of a checkout):

    python3 tools/kernel_ab.py ../parent                # parent against this checkout
    python3 tools/kernel_ab.py ../parent . --rounds 12 --grids 24,50,100,150

Each checkout's ``src/fracon`` is imported under its own package name
(``fracon_a`` for the first path, ``fracon_b`` for the second), so both
run in the same interpreter, on the same allocator and at the same
moment.  Every round times each grid on both sides, A first in even
rounds and B first in odd ones; a side's time is the best of three
batches of calls, each batch long enough to take about 50 ms.  One
certification of ``abs(x - 0.3)^(a)`` on [0, 1] with eta ``example23``,
c = 1 and alpha 0.5 is timed at each grid, with ``--refine`` levels.

One line per grid is printed: the median time of each side over the
rounds, the ratio B/A of the medians, how many rounds B was the faster
in, and whether the two sides' reports are equal.

This adds to perfbench pairs (alternating ``perfbench/run.py`` runs in
the two checkouts) and never replaces them: it isolates one kernel in a
warm process, while the benchmark's end-to-end metrics also pay for
start-up, parsing, the CLI and the case mix.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import statistics
import sys
import timeit
from pathlib import Path

F_TEXT = "abs(x - 0.3)^(a)"
ETA = "example23"
C = 1.0
ALPHA = 0.5


def _load(root: Path, name: str):
    """The ``fracon`` package of checkout ``root``, imported as ``name``."""
    init = root / "src" / "fracon" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no fracon package at {init}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _certify(fracon, grid: int, refine: int):
    """One certification bound to its arguments: a closure over the loop's
    variables would read them when called, and time one checkout twice."""
    presets = importlib.import_module(f"{fracon.__name__}.presets")
    f = fracon.FunctionSpec.from_text(F_TEXT, domain=(0.0, 1.0))
    eta = fracon.EtaSpec.from_text(presets.ETA_PRESETS[ETA])
    ctx = fracon.AlphaContext(alpha=ALPHA)
    return functools.partial(fracon.certify_gsc, f, eta, C, ctx, grid, refine)


def _seconds(call, number: int) -> float:
    """Best of three batches of ``number`` calls, per call."""
    return min(timeit.repeat(call, number=number, repeat=3)) / number


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("b", type=Path, nargs="?", default=Path("."),
                        help="checkout B (default: the current directory)")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--grids", default="24,50,100,150")
    parser.add_argument("--refine", type=int, default=3)
    args = parser.parse_args(argv)
    grids = [int(g) for g in args.grids.split(",")]

    sys.dont_write_bytecode = True  # leave no caches in either checkout
    sides = (_load(args.a.resolve(), "fracon_a"), _load(args.b.resolve(), "fracon_b"))
    print(f"A {sides[0].__file__}\nB {sides[1].__file__}")
    print(f"{'grid':>5} {'A ms':>9} {'B ms':>9} {'B/A':>6} {'B wins':>7}  same")
    for grid in grids:
        calls = [_certify(side, grid, args.refine) for side in sides]
        reports = [call() for call in calls]  # also warms each side
        number = max(1, round(0.05 / _seconds(calls[0], 1)))
        times = ([], [])
        for r in range(args.rounds):
            for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[s].append(_seconds(calls[s], number))
        wins = sum(tb < ta for ta, tb in zip(*times))
        med_a, med_b = (statistics.median(t) for t in times)
        same = repr(reports[0]) == repr(reports[1])
        print(f"{grid:>5} {med_a * 1e3:>9.3f} {med_b * 1e3:>9.3f} {med_b / med_a:>6.3f} "
              f"{wins:>4}/{args.rounds:<2}  {'yes' if same else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
