"""Seeded case lists for the three benchmark workloads.

A case is one ``fracon`` command line plus the parameters the oracle needs
to check its output.  The program only ever sees ``argv``.

Each workload is a stratified design: the parameters that set a case's
cost or its accuracy (command, order alpha, function shape, weight,
lattice size, evaluation point) form a full factorial that every seed
covers once per pass, so two seeds run the same amount of work and meet
the same worst case.  The seed draws what leaves the cost nearly alone
(eta, c, the lattice's kink position and interval, integration direction,
sub-sweep grouping) and the case order.  Only stdlib is imported here, so
building a case list costs no numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("lattice", "quadrature", "sweep")

ALPHAS = (0.3, 0.5, 0.9, 1.0)
CS = (0.0, 1.0)
C_POOL = (0.0, 0.5, 1.0, 2.0)
ETAS = ("difference", "example23")
KINKS = (0.3, 0.5, 0.7)

# lattice: grids stop at 150 (about 108 MiB of defect tensor at 32 B/cell)
# only to keep a run's memory near 100 MiB on small shared machines.
GRIDS = (50, 100, 150)
REFINE = 3
LATTICE_SHAPES = ("square", "negsquare", "x^(4a)", "abs")
INTERVALS = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0))

# quadrature: every integral is over [0, 1] so the frozen references in
# refs.json cover every seed.
QUAD_SHAPES = ("x^(2a)",) + tuple(f"abs(x - {s})^(a)" for s in KINKS)
DIFF_AT = (0.4, 0.9)
# Smooth integrands run three times per (command, alpha), with fresh draws:
# they are the common case, and without them half the cases are capped
# kinked ones, which puts p50 in the gap between the two clusters, where
# it jumps from run to run.
SMOOTH_REPEATS = 3

# sweep: the CLI's default grid, regrouped into sub-sweeps by the seed.
SWEEP_FS = ("square", "negsquare", "const")


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    params: dict


def _num(x: float) -> str:
    return repr(float(x))


def _kink_text(s: float) -> str:
    return f"abs(x - {s})^(a)"


def lattice_cases(rng: random.Random) -> list[Case]:
    out = []
    for grid in GRIDS:
        for shape in LATTICE_SHAPES:
            for alpha in ALPHAS:
                f = _kink_text(rng.choice(KINKS)) if shape == "abs" else shape
                eta, c = rng.choice(ETAS), rng.choice(C_POOL)
                a, b = rng.choice(INTERVALS)
                argv = ("certify", "--f", f, "--eta", eta, "--alpha", _num(alpha),
                        "--c", _num(c), f"--interval={_num(a)},{_num(b)}",
                        "--grid", str(grid), "--refine", str(REFINE))
                out.append(Case(argv, dict(
                    f=f, eta=eta, alpha=alpha, c=c, a=a, b=b, grid=grid,
                    refine=REFINE)))
    return out


def quadrature_cases(rng: random.Random) -> list[Case]:
    out = []
    for shape in QUAD_SHAPES:
        for alpha in ALPHAS:
            al = _num(alpha)
            for _ in range(SMOOTH_REPEATS if shape == "x^(2a)" else 1):
                eta, c = rng.choice(ETAS), rng.choice(C_POOL)
                out.append(Case(("hh", "--f", shape, "--eta", eta, "--alpha", al,
                                 "--c", _num(c), "--backend", "rl"),
                                dict(f=shape, eta=eta, alpha=alpha, c=c)))
                for w in ("one", "parabolic"):
                    eta, c = rng.choice(ETAS), rng.choice(C_POOL)
                    out.append(Case(("fejer", "--f", shape, "--eta", eta, "--w", w,
                                     "--alpha", al, "--c", _num(c)),
                                    dict(f=shape, eta=eta, w=w, alpha=alpha, c=c)))
                lo, hi = rng.choice(((0, 1), (1, 0)))
                out.append(Case(("integrate", shape, str(lo), str(hi), "--alpha", al,
                                 "--backend", "rl"),
                                dict(f=shape, alpha=alpha, sign=1.0 if lo < hi else -1.0)))
                # Every (shape, alpha, point): the finite-difference errors
                # set min_correct_digits, which must not depend on the seed.
                for at in DIFF_AT:
                    out.append(Case(("diff", shape, "--at", _num(at), "--from", "0",
                                     "--alpha", al, "--mode", "fd"),
                                    dict(f=shape, alpha=alpha, at=at)))
    return out


def sweep_cases(rng: random.Random) -> list[Case]:
    """Partition the default 4x2x2x3 grid into eight 2x1x1x3 sub-sweeps."""
    alphas = list(ALPHAS)
    rng.shuffle(alphas)
    out = []
    for pair in (alphas[:2], alphas[2:]):
        for c in CS:
            for eta in ETAS:
                fs = list(SWEEP_FS)
                rng.shuffle(fs)
                argv = ("sweep", "--alphas", ",".join(_num(x) for x in pair),
                        "--cs", _num(c), "--etas", eta, "--fs", ",".join(fs))
                out.append(Case(argv, dict(
                    alphas=tuple(pair), cs=(c,), etas=(eta,), fs=tuple(fs))))
    return out


_BUILDERS = {
    "lattice": lattice_cases,
    "quadrature": quadrature_cases,
    "sweep": sweep_cases,
}


def build(workload: str, seed: int) -> list[Case]:
    """The workload's case list for ``seed``, in a seed-shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    cases = _BUILDERS[workload](rng)
    rng.shuffle(cases)
    return cases
