"""Acceptance gate: ten pinned criteria with tolerances and runtime budgets.

Each test covers exactly one criterion, enforces its runtime budget, and
records one PASS/FAIL line that the terminal summary prints after the run.
Expected values are closed forms or hand computations stated inline; the
suite never trusts the library's own output as its oracle.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fracon import (
    EXACT,
    NUMERIC,
    AlphaContext,
    DerivativeMode,
    EtaSpec,
    FunctionSpec,
    axiom_conformance,
    certify_gsc,
    defect,
    gamma,
    hh_fejer_consistency,
    hh_terms,
    lf_derivative,
    lf_integral,
    minimum_condition_check,
)
from fracon.cli import main
from fracon.presets import ETA_PRESETS, F_PRESETS

RESULTS: list[tuple[int, str, float, str]] = []

_ALPHAS = (0.3, 0.5, 0.9, 1.0)
_DIFF = EtaSpec.from_text("u - v")


@contextmanager
def criterion(number: int, description: str, budget_s: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append((number, description, time.perf_counter() - start, "FAIL"))
        raise
    elapsed = time.perf_counter() - start
    within = budget_s is None or elapsed <= budget_s
    RESULTS.append((number, description, elapsed, "PASS" if within else "FAIL"))
    assert within, (
        f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s"
    )


def test_criterion_01_axiom_conformance(capsys):
    """Base-value arithmetic satisfies all seven axioms at 1e-12, under 1s."""
    with criterion(1, "axiom conformance, 4 orders x 1000 triples", 1.0):
        for alpha in _ALPHAS:
            rows = axiom_conformance(alpha, triples=1000, seed=2718, tol=1e-12)
            assert len(rows) == 7
            for row in rows:
                assert row.iso_ok, (alpha, row.index, row.iso_err)
                assert row.iso_err <= 1e-12
        assert main(["axioms"]) == 0
        out = capsys.readouterr().out
        assert out.count("iso=7/7") == 4


def test_criterion_02_integrator_monomial_oracle():
    """Both integral routes reproduce G(1+ka)/G(1+(k+1)a) (b-a)^((k+1)a)."""
    with criterion(2, "monomial integral oracle, both backends", 5.0):
        for a, b in ((0.0, 1.0), (0.5, 2.0), (-1.0, 1.0)):
            for alpha in _ALPHAS:
                ctx = AlphaContext(alpha=alpha)
                for k in range(4):
                    text = "1" if k == 0 else f"(x - lo)^({k}a)"
                    f = FunctionSpec.from_text(text, domain=(a, b),
                                               params={"lo": a, "hi": b})
                    ref = (gamma(1 + k * alpha) / gamma(1 + (k + 1) * alpha)
                           * (b - a) ** ((k + 1) * alpha))
                    numeric = lf_integral(f, a, b, ctx, NUMERIC)
                    exact = lf_integral(f, a, b, ctx, EXACT)
                    assert abs(numeric - ref) <= 1e-6 * abs(ref), (alpha, k, a, b)
                    assert abs(exact - ref) <= 1e-12 * abs(ref), (alpha, k, a, b)


def test_criterion_03_derivative_crosscheck():
    """Finite differences track the term rule to 1e-4 on monomials."""
    with criterion(3, "derivative term rule vs finite differences", 1.0):
        points = np.linspace(0.2, 2.0, 10)
        for alpha in _ALPHAS:
            ctx = AlphaContext(alpha=alpha)
            for k in (1, 2, 3):
                f = FunctionSpec.from_text(f"x^({k}a)", domain=(0.0, 2.5))
                for x0 in points:
                    ref = (gamma(1 + k * alpha) / gamma(1 + (k - 1) * alpha)
                           * x0 ** ((k - 1) * alpha))
                    fd = lf_derivative(f, float(x0), ctx,
                                       mode=DerivativeMode.FINITE_DIFFERENCE,
                                       s=0.0)
                    assert abs(fd - ref) <= 1e-4 * abs(ref), (alpha, k, x0)


# (text, interval, midpoint value, mean value, endpoint average)
_CLASSICAL_SUITE = [
    ("x^2", (0.0, 1.0), 0.25, 1.0 / 3.0, 0.5),
    ("x^2", (-1.0, 1.0), 0.0, 1.0 / 3.0, 1.0),
    ("x^4", (0.0, 1.0), 0.0625, 0.2, 0.5),
    ("x^4", (-1.0, 1.0), 0.0, 0.2, 1.0),
    ("abs(x)", (0.0, 1.0), 0.5, 0.5, 0.5),
    ("abs(x)", (-1.0, 1.0), 0.0, 0.5, 1.0),
]


def test_criterion_04_classical_sandwich():
    """al=1, c=0, eta=u-v: the chain reproduces midpoint <= mean <= ends."""
    with criterion(4, "classical sandwich for x^2, x^4, |x|", 1.0):
        ctx = AlphaContext(alpha=1.0)
        for text, (a, b), fm, mean, ends in _CLASSICAL_SUITE:
            f = FunctionSpec.from_text(text, domain=(a, b))
            rep = hh_terms(f, _DIFF, 0.0, a, b, ctx)
            assert f.evaluate((a + b) / 2.0, ctx) == pytest.approx(fm, abs=1e-9)
            assert rep.T2 == pytest.approx(mean, abs=1e-9), (text, a, b)
            assert rep.T3 == pytest.approx(ends, abs=1e-9), (text, a, b)
            assert fm <= mean + 1e-9 <= ends + 2e-9
            assert rep.all_hold, (text, a, b)


def test_criterion_05_certified_membership_suite():
    """x^(2a) + c^a x^(2a) with eta = 2^a u + v is violation-free on [0,2]."""
    with criterion(5, "parameterized membership certification", 30.0):
        eta = EtaSpec.from_text("2^a*u + v")
        for alpha in (0.5, 1.0):
            for c in (0.5, 1.0, 2.0):
                f = FunctionSpec.from_text("x^(2a) + c^(a)*x^(2a)",
                                           domain=(0.0, 2.0), params={"c": c})
                rep = certify_gsc(f, eta, c, AlphaContext(alpha=alpha),
                                  grid_n=50, refine_depth=3)
                assert rep.status == "NoViolationFound", (alpha, c)
                assert rep.min_defect >= -1e-9, (alpha, c, rep.min_defect)


def test_criterion_06_counterexample_detection():
    """-x^2 with c=1 is caught; hand defect at (0,1,1/2) is -1/2."""
    with criterion(6, "concave counterexample with validated witness", 5.0):
        ctx = AlphaContext(alpha=1.0)
        f = FunctionSpec.from_text("-x^(2a)", domain=(0.0, 1.0))
        rep = certify_gsc(f, _DIFF, 1.0, ctx, grid_n=50, refine_depth=3)
        assert rep.status == "Violated"
        w = rep.witness
        assert w is not None
        assert w.defect <= -0.4
        assert defect(f, _DIFF, 1.0, ctx, w.x, w.y, w.t) == w.defect


def test_criterion_07_minimum_condition():
    """x^2, al=1, c=1 on [0,2]: antecedent never pairs with a failed consequent."""
    with criterion(7, "minimum-point condition on a 200-point grid", 1.0):
        f = FunctionSpec.from_text("x^2", domain=(0.0, 2.0))
        rep = minimum_condition_check(f, _DIFF, 1.0, AlphaContext(alpha=1.0),
                                      grid_n=200)
        assert rep.checked == 200
        assert rep.violations == ()
        # The equality case: at the sampled minimizer x*=0 the consequent
        # margin eta(f(y), f(0)) - c (y-0)^2 = y^2 - y^2 is identically zero,
        # so the theorem holds with nothing to spare.
        assert rep.x_star == 0.0
        assert rep.f_star == 0.0
        assert rep.antecedent_count == 200


def test_criterion_08_weighted_chain_consistency():
    """With w = 1 the weighted terms recompose the plain chain's pieces."""
    with criterion(8, "unit-weight consistency checks", 5.0):
        cases = [(text, ab, 1.0) for text, ab, *_ in _CLASSICAL_SUITE]
        cases.append(("x^(2a)", (0.0, 1.0), 0.5))
        for text, (a, b), alpha in cases:
            ctx = AlphaContext(alpha=alpha)
            f = FunctionSpec.from_text(text, domain=(a, b))
            rep = hh_fejer_consistency(f, _DIFF, 0.0, a, b, ctx)
            eq1, eq2, le3 = rep.checks
            assert abs(eq1.lhs - eq1.rhs) <= 1e-9 * (1.0 + abs(eq1.rhs)), (text, a, b)
            assert abs(eq2.lhs - eq2.rhs) <= 1e-9 * (1.0 + abs(eq2.rhs)), (text, a, b)
            assert le3.lhs <= le3.rhs + 1e-9, (text, a, b)
            assert rep.ok


def test_criterion_09_sweep_determinism(tmp_path):
    """Two fresh-process runs of the preset sweep emit identical bytes."""
    with criterion(9, "byte-identical sweep reruns", 60.0):
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            proc = subprocess.run(
                [sys.executable, "-m", "fracon", "sweep", "--out", str(path)],
                capture_output=True, text=True, timeout=55,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == ""
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        lines = first.decode().splitlines()
        assert len(lines) == 49


def test_criterion_10_honest_gap_reporting(capsys):
    """Sweep statuses for al < 1 are exactly the sign of a finite gap.

    Every CSV link cell is recomputed from a fresh chain report: the gap
    must be finite, HOLDS must mean gap >= -tol, and FAILS must mean the
    gap is genuinely below -tol — no optimistic rounding in either
    direction. The chain itself is allowed to fail here; only the harness's
    bookkeeping is on trial.
    """
    with criterion(10, "signed-gap bookkeeping for fractional rows", None):
        assert main(["sweep"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        fractional = [r for r in rows if float(r["alpha"]) < 1.0]
        assert len(fractional) == 36
        checked_links = 0
        for row in fractional:
            assert row["status"] in ("NoViolationFound", "Violated")
            ctx = AlphaContext(alpha=float(row["alpha"]))
            f = FunctionSpec.from_text(F_PRESETS[row["f_id"]], domain=(0.0, 1.0))
            eta = EtaSpec.from_text(ETA_PRESETS[row["eta_id"]])
            rep = hh_terms(f, eta, float(row["c"]), 0.0, 1.0, ctx)
            for cell, link in zip(
                (row["link12"], row["link23"], row["link34"]), rep.links
            ):
                assert math.isfinite(link.gap)
                assert cell == ("HOLDS" if link.holds else "FAILS")
                if cell == "HOLDS":
                    assert link.gap >= -rep.link_tol
                else:
                    assert link.gap < -rep.link_tol
                checked_links += 1
        assert checked_links == 36 * 3
