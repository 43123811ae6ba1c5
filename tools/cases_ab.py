"""Time a benchmark workload's command lines in two checkouts, in one process.

Usage (from the root of a checkout):

    python3 tools/cases_ab.py ../parent                      # parent against this checkout
    python3 tools/cases_ab.py ../parent . --workload sweep --seeds 1,2 --rounds 30

Each checkout's ``src/fracon`` is imported under its own package name
(``fracon_a`` for the first path, ``fracon_b`` for the second), so both
run in the same interpreter, on the same allocator and at the same moment.  The case list is the one this
checkout's ``perfbench/cases.py`` builds for the workload and seeds, and
every case runs through each side's ``cli.main`` with its output captured,
by ``perfbench/run.py``'s ``run_case``.

One untimed pass per side warms both and records each case's argv, exit
code (or raised exception), stdout and stderr.  Then every round shuffles
the case list and runs each case on both sides back to back, the side that
goes first drawn per case, and records each call's time for its side.
The draws come from a fixed seed, so every run uses the same orders.

Printed: one row for each statistic of a round's case times, the mean and
the p50 and p90 (nearest rank, as ``perfbench/run.py`` takes them; the
benchmark's claims are on these percentiles).  A row gives each side's
median of that statistic over the rounds in ms, the median of the
per-round ratios B/A with their lower and upper quartiles, and the number
of rounds each side was the faster on it.  Then whether the two sides'
outputs are equal.  The exit code is 1 when they differ.

Giving the same checkout twice (an A/A run) measures the spread: its
quartiles of B/A are how far apart two runs of equal code read on this
machine, and a B/A of a real A/B run that stays inside them shows no
difference.

This adds to perfbench pairs (alternating ``perfbench/run.py`` runs in
the two checkouts) and never replaces them: it compares warm calls in one
process, while the benchmark also pays for start-up and measures each
checkout in its own process, where the machine's load can differ between
the two runs of a pair.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cli_main(root: Path, name: str):
    """The ``cli.main`` of checkout ``root``'s fracon, imported as ``name``."""
    init = root / "src" / "fracon" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no fracon package at {init}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli").main


def main(argv: list[str] | None = None) -> int:
    sys.dont_write_bytecode = True  # leave no caches in either checkout
    sys.path.insert(0, str(ROOT / "perfbench"))
    from cases import WORKLOADS, build
    from run import quantile, run_case

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("b", type=Path, nargs="?", default=Path("."),
                        help="checkout B (default: the current directory)")
    parser.add_argument("--workload", choices=WORKLOADS, default="sweep")
    parser.add_argument("--seeds", default="1,2", help="comma-separated case seeds")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)

    cases = [case.argv for seed in args.seeds.split(",") for case in build(args.workload, int(seed))]
    sides = (_cli_main(args.a.resolve(), "fracon_a"), _cli_main(args.b.resolve(), "fracon_b"))
    print(f"A {args.a.resolve()}\nB {args.b.resolve()}")
    outputs = [[run_case(side, argv)[0] for argv in cases] for side in sides]
    rng = random.Random(0)
    rounds = ([], [])  # each side's case times, one list per round
    for _ in range(args.rounds):
        order = list(range(len(cases)))
        rng.shuffle(order)
        times = ([], [])
        gc.collect()
        for c in order:
            for s in ((0, 1) if rng.random() < 0.5 else (1, 0)):
                times[s].append(run_case(sides[s], cases[c])[1])
        for s in (0, 1):
            rounds[s].append(times[s])
    print(f"{args.workload}: {len(cases)} cases, seeds {args.seeds}, {args.rounds} rounds")
    print("ms/case      A          B      B/A   (q1     q3)   A faster  B faster")
    stats = {"mean": statistics.fmean,
             "p50": lambda t: quantile(t, 0.5),
             "p90": lambda t: quantile(t, 0.9)}
    for name, stat in stats.items():
        a, b = ([stat(t) for t in rounds[s]] for s in (0, 1))
        ratios = [v / u for u, v in zip(a, b)]
        q1, q3 = quantile(ratios, 0.25), quantile(ratios, 0.75)
        wins_a = sum(u < v for u, v in zip(a, b))
        wins_b = sum(v < u for u, v in zip(a, b))
        print(f"{name:5} {statistics.median(a) * 1e3:9.3f}  {statistics.median(b) * 1e3:9.3f}  "
              f"{statistics.median(ratios):6.3f} ({q1:5.3f}  {q3:5.3f})  "
              f"{wins_a:4}/{args.rounds:<4} {wins_b:4}/{args.rounds}")
    same = outputs[0] == outputs[1]
    print(f"outputs {'equal' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
