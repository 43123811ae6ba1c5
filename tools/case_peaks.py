"""Per-case traced memory peaks of a benchmark workload.

Usage (from the root of a checkout):

    python3 tools/case_peaks.py --workload quadrature --seed 1
    python3 tools/case_peaks.py --workload sweep --seed 2 --top 5 --all
    python3 tools/case_peaks.py --workload sweep --seed 1 --stages

The case list is the one ``perfbench/cases.py`` builds for the workload
and seed.  Every case first runs once untraced, so caches (quadrature
meshes, lazy imports) are warm, as they are when the benchmark takes its
peak pass after timing.  Then each case runs once more through
``fracon.cli.main``, with fracon imported from this checkout's ``src``,
under ``tracemalloc``: its peak is the traced peak above the level the
case starts at, after a ``gc.collect()``.  Cases run through
``perfbench/run.py``'s ``run_case``, as the benchmark's own peak pass
runs them, so the captured output counts as it does there.

Printed: the top cases by peak (``--all`` prints every case in run
order), then the max and the median peak of each command, then the
workload's max.  Bytes are exact; KB means 1,000 bytes.

``--stages`` also names the CLI stage that set each case's peak: one of
``STAGES``, the names ``fracon.cli`` calls its chain, certify and output
steps by, or ``other`` for the code between them (parsing, report
building).  For the traced pass each of those names in the ``fracon.cli``
module is replaced by a wrapper that reads and resets tracemalloc's peak
on entry and on exit, so every peak read belongs to one stage; the case's
peak is the largest of them.  A table then gives, per command and stage,
the cases whose peak that stage set and their max.  The wrappers' own
frames add about 1 KB to a sweep case's peak.

This sizes memory claims, case by case, before and after a change.  It
never replaces ``perfbench/run.py``, whose ``peak_traced_mib`` is the
benchmark's figure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import statistics
import sys
import tracemalloc

# perfbench/run.py's loader and case runner, and the case builder.
from output_digest import WORKLOADS, build, import_program, run_case

STAGES = ("hh_terms", "certify_gsc", "fejer_terms", "_write_csv_row", "_emit_text")


class StagePeaks:
    """The traced peak of each stage of one case, from wrappers around the
    ``STAGES`` names of the ``fracon.cli`` module ``cli``."""

    def __init__(self, cli) -> None:
        self.highs: dict[str, int] = {}
        self.stage = "other"
        for name in STAGES:
            setattr(cli, name, self._wrap(name, getattr(cli, name)))

    def _close(self) -> None:
        """Charge the peak since the last reset to the running stage."""
        peak = tracemalloc.get_traced_memory()[1]
        self.highs[self.stage] = max(self.highs.get(self.stage, 0), peak)
        tracemalloc.reset_peak()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def stage(*args, **kwargs):
            self._close()
            outer, self.stage = self.stage, name
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
                self.stage = outer
        return stage

    def start(self) -> None:
        self.highs, self.stage = {}, "other"

    def finish(self) -> tuple[int, str]:
        """The case's traced peak and the stage that set it."""
        self._close()
        stage = max(self.highs, key=self.highs.__getitem__)
        return self.highs[stage], stage


def case_peaks(main, cases, stages: StagePeaks | None = None) -> list[tuple[int, str]]:
    """Each case's traced peak in bytes above its starting level, warm,
    with the stage that set it ("" without ``stages``)."""
    for case in cases:
        run_case(main, case.argv)
    peaks = []
    tracemalloc.start()
    try:
        for case in cases:
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            if stages is None:
                run_case(main, case.argv)
                peak, stage = tracemalloc.get_traced_memory()[1], ""
            else:
                stages.start()
                run_case(main, case.argv)
                peak, stage = stages.finish()
            peaks.append((peak - before, stage))
    finally:
        tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    cli_main = import_program().cli.main
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--top", type=int, default=10, help="how many of the largest cases to print")
    p.add_argument("--all", action="store_true", help="print every case, in run order")
    p.add_argument("--stages", action="store_true",
                   help="name the fracon.cli stage that set each case's peak")
    args = p.parse_args(argv)
    cases = build(args.workload, args.seed)
    stages = StagePeaks(sys.modules[cli_main.__module__]) if args.stages else None
    results = case_peaks(cli_main, cases, stages)
    peaks = [peak for peak, _ in results]
    rows = [(peak, (f"{stage:<15} " if stage else "") + " ".join(case.argv))
            for (peak, stage), case in zip(results, cases)]
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
    if stages is not None:
        print("\nstage that set the peak:          max   cases")
        by_stage: dict[tuple[str, str], list[int]] = {}
        for (peak, stage), case in zip(results, cases):
            by_stage.setdefault((case.argv[0], stage), []).append(peak)
        for (command, stage), values in sorted(by_stage.items()):
            print(f"  {command:<10} {stage:<15} {max(values):>12,} B  {len(values):>5}")
    print(f"\n{args.workload} seed {args.seed}: max {max(peaks):,} B "
          f"({max(peaks) / 2**20:.4f} MiB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
