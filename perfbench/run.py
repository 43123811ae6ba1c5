"""fracon benchmark: closed-loop CLI workloads with independent output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each case is one in-process ``fracon.cli.main(argv)`` call; one client,
one process, one thread, and the next case starts when the previous one
returns.  The case list comes from ``--seed`` (see ``cases.py``).

A run first executes every case once and checks its output with
``oracle.py``; that pass also warms caches.  Timed passes then repeat the
case list until ``--seconds`` have elapsed, and every later output must be
byte-identical to the checked one.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters), throughput (cases per pass over the median pass time), p50
and p90 case time over every timed case, the minimum correct digits over
checked reference values, and the highest per-case tracemalloc peak from
a separate pass.  ``--trace 1`` alternates untraced passes with passes
under the span wrappers of ``tracing.py`` and reports the per-layer
metrics; the spans go to ``.perfbench/`` in the repository root.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7
MIN_TRACED_PASSES = 2
# Calibration kernel: its median time in a run is mapped to REFERENCE_S.
REFERENCE_S = 0.02
CALIBRATE_EVERY_S = 0.5

from cases import WORKLOADS, build as build_cases  # noqa: E402


def import_program():
    """Import fracon from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fracon
        import fracon.cli  # noqa: F401
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import fracon from {SRC}: {exc}") from None

    where = Path(fracon.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"fracon imported from {where}, not from {SRC}")
    return fracon


def run_case(main, argv) -> tuple[tuple, float]:
    """One closed-loop call: ((exit code, stdout, stderr), seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # a raising case is a failed case, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return (code, out.getvalue(), err.getvalue()), dt


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of the samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Calibration:
    """Machine-speed probe interleaved with the timed cases.

    A shared host changes speed from minute to minute: on a shared 2-vCPU
    VM it swung by up to 1.6x, and the spread of raw times over ten runs
    reached 25%.  A fixed kernel that does not touch fracon (numpy
    elementwise powers on 1e3 to 3e5 elements, and dict and str work in the
    interpreter) runs about every ``CALIBRATE_EVERY_S`` between cases, and
    every time metric is scaled by ``REFERENCE_S / median(kernel time)``:
    times read as on a machine where the kernel takes 20 ms.  That cut the
    ten-run spread of the sweep's throughput from 20% to 6%.  A change to
    fracon moves the scaled times exactly as it moves the raw ones; the
    raw values are printed next to them.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.arrays = [rng.random(n) for n in (1_000, 30_000, 300_000)]
        self.samples: list[float] = []
        self.last = -math.inf

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            t0 = time.perf_counter()
            for _ in range(4):
                for x in self.arrays:
                    float(((abs(x - 0.3) ** 0.37) * x).sum())
                table = {}
                for i in range(3000):
                    table[str(i)] = (i, i * 0.5)
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def scaled(metrics: dict, calib: Calibration) -> dict:
    """Scale every time-valued metric to the reference machine speed."""
    k = calib.factor
    out = {}
    for name, (value, unit, note) in metrics.items():
        if unit in ("s", "ms", "1/s"):
            raw = value
            value = value / k if unit == "1/s" else value * k
            note = f"{note}; raw {raw:.6g}"
        out[name] = (value, unit, note)
    out["calibration"] = (k, "factor", f"kernel median {1e3 * REFERENCE_S / k:.3f} ms "
                          f"over {len(calib.samples)} samples")
    return out


class WorkloadRun:
    """One workload run: the case list, its checked outputs, and the tallies."""

    def __init__(self, workload: str, seed: int) -> None:
        from oracle import Oracle

        self.fracon = import_program()
        self.main = lambda argv: self.fracon.cli.main(argv)
        self.workload = workload
        self.cases = build_cases(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digits: list[float] = []
        self.expected: list[tuple] = []
        oracle = Oracle()
        for i, case in enumerate(self.cases):
            result, _ = run_case(self.main, case.argv)
            self.expected.append(result)
            code, out, err = result
            self.attempted += 1
            if not isinstance(code, int):
                self._fail(i, code)
                continue
            verdict = oracle.check(case, code, out)
            if err:
                verdict.fail(f"stderr: {err.strip()}")
            self.digits += verdict.digits
            if verdict.problems:
                self._fail(i, "; ".join(verdict.problems))

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        self.problems.append(f"case {i} {' '.join(self.cases[i].argv)}: {why}")

    def run_pass(self, calib: Calibration, tracer=None) -> list[float]:
        """Run every case once; outputs must repeat the checked ones exactly."""
        times = []
        for i, case in enumerate(self.cases):
            calib.maybe()
            if tracer is not None:
                tracer.case_id = i
            result, dt = run_case(self.main, case.argv)
            times.append(dt)
            self.attempted += 1
            if result != self.expected[i]:
                self._fail(i, "output differs from the checked first run")
        return times

    def peak_pass(self) -> float:
        """Highest per-case tracemalloc peak above the pre-case level, bytes.

        A collection before each case frees earlier cases' cyclic garbage,
        which would otherwise be freed (or not) at a point that depends on
        the case order.
        """
        peak = 0
        tracemalloc.start()
        try:
            for i, case in enumerate(self.cases):
                gc.collect()
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                result, _ = run_case(self.main, case.argv)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
                self.attempted += 1
                if result != self.expected[i]:
                    self._fail(i, "output differs under tracemalloc")
        finally:
            tracemalloc.stop()
        return peak

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure_setup(workload: str, seed: int, calib: Calibration) -> list[float]:
    """Seconds from spawning a fresh interpreter to its case list being built."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        calib.maybe()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    calib = Calibration()
    setup = measure_setup(workload, seed, calib)
    s = WorkloadRun(workload, seed)
    pass_times, samples = [], []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        times = s.run_pass(calib)
        pass_times.append(sum(times))
        samples += times
    peak = s.peak_pass()
    n = len(s.cases)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "cases_per_s": (n / statistics.median(pass_times), "1/s",
                        f"{n} cases over the median of {len(pass_times)} passes"),
        "case_p50_ms": (1e3 * quantile(samples, 0.5), "ms", f"n={len(samples)} cases"),
        "case_p90_ms": (1e3 * quantile(samples, 0.9), "ms", f"n={len(samples)} cases"),
        "min_correct_digits": (min(s.digits), "digits", f"n={len(s.digits)} checked values"),
        "peak_traced_mib": (peak / 2**20, "MiB", f"max over {n} cases, own pass"),
    }
    return report(s, scaled(metrics, calib))


def traced(workload: str, seed: int, seconds: float) -> dict:
    from tracing import EXPECTED, Tracer, derived, pass_counts, pass_times, top_entry

    s = WorkloadRun(workload, seed)
    tracer = Tracer(s.fracon)
    calib = Calibration()
    plain, runs = [], []
    start = time.perf_counter()
    while len(runs) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        plain.append(sum(s.run_pass(calib)))
        tracer.begin_pass()
        tracer.install()
        try:
            case_s = sum(s.run_pass(calib, tracer))
        finally:
            tracer.uninstall()
        runs.append((case_s, pass_counts(tracer.stats, tracer.counters),
                     pass_times(tracer.stats, tracer.entry, len(s.cases), case_s),
                     top_entry(tracer.entry)))
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{workload}-{seed}.csv")

    missing = [name for name in EXPECTED[workload] if not tracer.fired[name]]
    if missing:
        raise SystemExit(f"wrappers never fired on {workload}: {missing}")
    counts = runs[0][1]
    for _, other, _, _ in runs[1:]:
        if other != counts:
            s.failed += 1
            diff = {k: (counts[k], other[k]) for k in counts if counts[k] != other[k]}
            s.problems.append(f"counters differ between traced passes: {diff}")
    times = {k: statistics.median(r[2][k] for r in runs) for k in runs[0][2]}
    merged = {**counts, **times}
    merged.update(derived(merged))
    merged["trace.overhead_frac"] = (statistics.median(r[0] for r in runs)
                                     / statistics.median(plain) - 1.0)
    note = f"median of {len(runs)} traced passes"
    metrics = {k: (v, _unit(k), "per pass" if k in counts else note)
               for k, v in sorted(merged.items())}
    share = metrics["trace.max_entry_share"]
    metrics["trace.max_entry_share"] = share[:2] + (f"{note}; largest is {runs[0][3]}",)
    return report(s, scaled(metrics, calib))


def _unit(name: str) -> str:
    if name.endswith("_ms_per_case"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_share")):
        return "frac"
    if name.endswith("per_call"):
        return "points"
    return "count"


def report(s: WorkloadRun, metrics: dict) -> dict:
    print(f"workload {s.workload}: {len(s.cases)} cases per pass")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:7s} ({note})")
    print(f"  {'fail_frac':32s} {s.failed / s.attempted:14.6g} {'frac':7s} "
          f"({s.failed} of {s.attempted} case runs)")
    for problem in s.problems[:20]:
        print(f"  FAIL {problem}")
    return s.result({k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                     if k != "calibration"})


def run_all(args) -> dict:
    """Every workload in its own interpreter, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in part["metrics"].items()})
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
