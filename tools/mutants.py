"""Run the test suite against one-token mutants of fracon's formulas and rules.

Usage (from the root of a checkout):

    python3 tools/mutants.py                 # every mutant
    python3 tools/mutants.py m1-span T1-M    # the named ones
    python3 tools/mutants.py --list

Each mutant replaces one exact text, which occurs exactly once in
``src/fracon``, by another: a span power, a power of two, an endpoint, a
moment, a tolerance, an input bound, the refinement box's size, the order
of the eta pair at the ends, the witness's mixture and its f(mixture) of
0.0, the rule that skips a +0.0 strong term, the defect kernel's copy of
f(mixture) and the order of its first two operations, the evaluation of a
0-d input as one element, the order and the +0.0 start of the panel sums,
a Beta-table factor, the sign of a (b - x) base, m3's normal form, the
mirror image of f's form, the two Gauss series of m1's closed form or its
power of two, the mirror key of the weight's symmetry rule, the exact
derivative's Gamma ratio, the span of the exact integral, or the route
rule (an overflow that no longer falls back under "auto", a forced
"exact" that falls back, a Fejer integral's route filed under another
name).  The checkout (without ``.git`` and caches) is copied to a
temporary directory once.  The suite first runs
there unmutated, and must pass; then each mutant is written into the copy,
the suite runs as

    python3 -m pytest -x -q --ignore=tests/test_golden.py --ignore=tests/test_mutants.py

and the file is restored.  A mutant is ``caught`` when some test fails and
``survived`` when every test passes.  The golden files are left out because
they pin every formula's bytes at once: the question is which formulas the
semantic tests guard on their own.  ``tests/test_mutants.py`` is left out
because it fails on every mutant by design (it checks that each text below
is still in place).

Each run of the suite takes about 20 s, so this tool stays out of the
tests; ``tests/test_mutants.py`` only checks that every pattern below still
occurs exactly once.  Printed: one line per mutant with its verdict and
seconds, then the count caught.  The exit code is 1 when a mutant survives.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fracon"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--ignore=tests/test_golden.py", "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    name: str
    old: str  # occurs exactly once in src/fracon
    new: str


MUTANTS = (
    Mutant("m1-span", 'route("m1", w_form, span ** (3 * al)',
           'route("m1", w_form, span ** (2 * al)'),
    Mutant("m2-span", "w_times(1, 0), span ** (2 * al)", "w_times(1, 0), span ** (3 * al)"),
    Mutant("m3-span", "w_times(1, 1), span ** (3 * al)", "w_times(1, 1), span ** (2 * al)"),
    Mutant("T1-M", "T1 = fm - M / 2**al", "T1 = fm - M / 2"),
    Mutant("T2-4al", "(integral - ca / 4**al * span", "(integral - ca / 2**al * span"),
    Mutant("F1-4al", "F1 = fm * m0 - L + ca / 4**al * m1", "F1 = fm * m0 - L + ca / 2**al * m1"),
    Mutant("A1-end", "A1 = fb + e_ab", "A1 = fa + e_ab"),
    Mutant("A2-end", "A2 = fa + e_ba", "A2 = fb + e_ba"),
    Mutant("F3-m3", "R - ca * m3", "R - ca * m2"),
    Mutant("link-rtol", "_LINK_RTOL = 1e-9", "_LINK_RTOL = 1e-7"),
    Mutant("certify-tol", "_VIOLATION_RTOL = 1e-9", "_VIOLATION_RTOL = 1e-7"),
    Mutant("M-grid", "_sample(f, a, b, ctx, 512)", "_sample(f, a, b, ctx, 500)"),
    Mutant("kink-depth", "_KINK_DEPTH = 10", "_KINK_DEPTH = 7"),
    Mutant("rl-rtol", "\n_RTOL = 1e-9", "\n_RTOL = 1e-7"),
    Mutant("grid-lo", "_GRID_RANGE = (8,", "_GRID_RANGE = (9,"),
    Mutant("refine-hi", "(0, _MAX_REFINE)", "(0, _MAX_REFINE - 1)"),
    Mutant("c-lo", '_check_range("c", c, 0,', '_check_range("c", c, -1,'),
    Mutant("range-ge", "not value >= lo", "not value > lo"),
    Mutant("box-side", "_BOX = 13", "_BOX = 11"),
    Mutant("eta-pair", "np.array([fa, fb]), np.array([fb, fa])",
           "np.array([fb, fa]), np.array([fa, fb])"),
    Mutant("defect-mix", "t * x + (1.0 - t) * y", "t * y + (1.0 - t) * x"),
    Mutant("far-check", "if math.isfinite(far.max()):", "if True:"),
    Mutant("far-xy", "xs[-1] - ys[0], ys[-1]", "ys[-1]"),
    Mutant("far-yx", "ys[0], ys[-1] - xs[0]]", "ys[0]]"),
    Mutant("strong-sign", "np.count_nonzero(corr.view(np.int64))", "np.count_nonzero(corr)"),
    Mutant("plane-copy", "np.copyto(tmp, fmix)\n        fmix = tmp", "pass"),
    Mutant("defect-order", "np.multiply(e, ta, out=d)\n    np.add(d, fy, out=d)",
           "np.add(d, fy, out=d)\n    np.multiply(e, ta, out=d)"),
    Mutant("witness-rhs", "corr, dist, 0.0, dist)", "corr, dist, values[2:], dist)"),
    Mutant("zero-d", "xs.reshape(1) if xs.ndim == 0 else xs", "xs"),
    Mutant("sum-order", "np.add.reduce(np.ascontiguousarray(vals), axis=1)",
           "np.add.reduce(np.asfortranarray(vals), axis=1)"),
    Mutant("sum-start", "axis=1)\n    sums *= half", "axis=1, initial=-0.0)\n    sums *= half"),
    Mutant("beta-q", "gamma(p + 1.0) * gamma(q + alpha)", "gamma(p + 1.0) * gamma(q + 1.0)"),
    Mutant("beta-span", "span ** (p + q + alpha))", "span ** (p + q))"),
    Mutant("b-root", "scale, side = -u, 1", "scale, side = u, 1"),
    Mutant("m3-form", 'route("m3", w_times(1, 1)', 'route("m3", w_times(1, 0)'),
    Mutant("f-mirror", "eta.form({(j, k): cf", "eta.form({(k, j): cf"),
    Mutant("m1-c-swap", "_half_series(n, b2, cl), _half_series(n, b2, cr)",
           "_half_series(n, b2, cr), _half_series(n, b2, cl)"),
    Mutant("m1-2n", "(2.0**-n * g * halves)", "(g * halves)"),
    Mutant("sym-mirror", "c == form.get((j, k), 0.0)", "c == form.get((k, j), 0.0)"),
    Mutant("deriv-gamma", "gamma(1.0 + (k - 1) * alpha)", "gamma(1.0 + k * alpha)"),
    Mutant("exact-span", "f.form(a, b, ctx), b - a, ctx.alpha", "f.form(a, b, ctx), b, ctx.alpha"),
    Mutant("auto-overflow", "except (NotPolynomial, GammaDomainError, OverflowError):",
           "except (NotPolynomial, GammaDomainError):"),
    Mutant("forced-exact", 'if choice == "exact":\n                raise',
           'if choice == "never":\n                raise'),
    Mutant("route-name", 'm2 = route("m2"', 'm2 = route("m3"'),
)


def locate(mutant: Mutant, src: Path = SRC) -> list[Path]:
    """The files of ``src`` holding the mutant's text, once per occurrence."""
    return [path for path in sorted(src.glob("*.py"))
            for _ in range(path.read_text(encoding="utf-8").count(mutant.old))]


def _suite(copy: Path) -> tuple[bool, float]:
    """Whether the suite passes in ``copy``, and its seconds."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run(PYTEST, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", help="mutants to run (default: all)")
    p.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = p.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = sorted(set(args.names) - set(by_name))
    if unknown:
        p.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    for mutant in chosen:
        if len(locate(mutant)) != 1:
            p.error(f"{mutant.name}: its text does not occur exactly once in {SRC}")
    if args.list:
        for m in chosen:
            print(f"{m.name:<12} {m.old!r} -> {m.new!r}")
        return 0

    with tempfile.TemporaryDirectory(prefix="fracon-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench"))
        ok, seconds = _suite(copy)
        print(f"{'unmutated':<12} {'passes' if ok else 'FAILS':<9} {seconds:6.1f} s", flush=True)
        if not ok:
            return 2
        caught = 0
        for mutant in chosen:
            (path,) = locate(mutant, copy / "src" / "fracon")
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                ok, seconds = _suite(copy)
            finally:
                path.write_text(text, encoding="utf-8")
            caught += not ok
            print(f"{mutant.name:<12} {'survived' if ok else 'caught':<9} {seconds:6.1f} s",
                  flush=True)
    print(f"caught {caught} of {len(chosen)}")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
