"""Per-case traced memory peaks of a benchmark workload.

Usage (from the root of a checkout):

    python3 tools/case_peaks.py --workload quadrature --seed 1
    python3 tools/case_peaks.py --workload sweep --seed 2 --top 5 --all

The case list is the one ``perfbench/cases.py`` builds for the workload
and seed.  Every case first runs once untraced, so caches (quadrature
meshes, lazy imports) are warm, as they are when the benchmark takes its
peak pass after timing.  Then each case runs once more through
``fracon.cli.main``, with fracon imported from this checkout's ``src``,
under ``tracemalloc``: its peak is the traced peak above the level the
case starts at, after a ``gc.collect()``.

Printed: the top cases by peak (``--all`` prints every case in run
order), then the max and the median peak of each command, then the
workload's max.  Bytes are exact; KB means 1,000 bytes.

This sizes memory claims, case by case, before and after a change.  It
never replaces ``perfbench/run.py``, whose ``peak_traced_mib`` is the
benchmark's figure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import statistics
import sys
import tracemalloc

# fracon.cli.main and the case builder, from this checkout only.
from output_digest import _import


def _run(main, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(list(argv))
        except Exception:  # a raising case still has a peak
            pass


def case_peaks(main, cases) -> list[int]:
    """Each case's traced peak in bytes above its starting level, warm."""
    for case in cases:
        _run(main, case.argv)
    peaks = []
    tracemalloc.start()
    try:
        for case in cases:
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _run(main, case.argv)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    cli_main, workloads, build = _import()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--top", type=int, default=10, help="how many of the largest cases to print")
    p.add_argument("--all", action="store_true", help="print every case, in run order")
    args = p.parse_args(argv)
    cases = build(args.workload, args.seed)
    peaks = case_peaks(cli_main, cases)
    rows = list(zip(peaks, (" ".join(c.argv) for c in cases)))
    if args.all:
        for peak, text in rows:
            print(f"{peak:>12,} B  {text}")
        print()
    print(f"top {min(args.top, len(rows))} of {len(rows)} cases:")
    for peak, text in sorted(rows, key=lambda r: -r[0])[: args.top]:
        print(f"{peak:>12,} B  {text}")
    print("\nper command:          max          median   cases")
    by_command: dict[str, list[int]] = {}
    for peak, case in zip(peaks, cases):
        by_command.setdefault(case.argv[0], []).append(peak)
    for command, values in sorted(by_command.items()):
        print(f"  {command:<10} {max(values):>12,} B  {statistics.median(values):>12,.0f} B"
              f"  {len(values):>5}")
    print(f"\n{args.workload} seed {args.seed}: max {max(peaks):,} B "
          f"({max(peaks) / 2**20:.4f} MiB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
