"""Machine-independent work counts of the two costly layers.

These pin how much work a call does, not how long it takes: quadrature
evaluations and levels for a smooth integral, and lattice cells for a
certification.  A change that alters them changes the cost model and must
say so.
"""

import pytest

from fracon import AlphaContext, EtaSpec, FunctionSpec, WeightSpec, certify_gsc, rl_integrate
from fracon import DerivativeMode, calculus, estimate_eta_sup, fejer_terms, lf_derivative
from fracon.presets import ETA_PRESETS, F_PRESETS


@pytest.mark.parametrize("alpha", (0.5, 1.0))
def test_rl_integrate_smooth_work(alpha):
    """124 graded panels x 8 points, halved once: 992 + 1984 evaluations."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text("x^(2a)")
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, alpha)
    assert (res.evals, res.levels, res.converged) == (2976, 1, True)


def test_rl_integrate_kinked_work():
    """abs(x - 0.5)^(a) at alpha 0.3 with its kink as a breakpoint.

    The kink and its two 10-step ladders add 21 panels to the 124 graded
    ones, and the 145 panels converge on the first pass: 1160 + 2320 =
    3,480 evaluations.  Refining every panel took 1,014,816 evaluations
    and hit the cap.
    """
    ctx = AlphaContext(alpha=0.3)
    f = FunctionSpec.from_text("abs(x - 0.5)^(a)")
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, 0.3,
                       points=f.singular_points())
    assert (res.evals, res.levels, res.converged) == (3480, 1, True)
    assert res.evals <= 1_014_816 // 10


@pytest.mark.parametrize("s", (0.3, 0.5, 0.7))
@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
def test_rl_integrate_kinked_set_work(s, alpha):
    """Every abs(x - s)^(a) of the frozen kinked set, at the default rtol,
    takes the one 145-panel first pass."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(f"abs(x - {s})^(a)")
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, alpha,
                       points=f.singular_points())
    assert (res.evals, res.levels, res.converged) == (3480, 1, True)


@pytest.mark.parametrize(("text", "alpha", "levels"), (
    ("x^(2a)", 0.5, 1),
    ("abs(x - 0.5)^(a)", 0.3, 1),
))
def test_rl_integrate_calls_fn_once_per_level(text, alpha, levels):
    """The first pass evaluates the panels and their halves in one call."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(text)
    sizes = []

    def fn(xs):
        sizes.append(xs.size)
        return f.evaluate_many(xs, ctx)

    res = rl_integrate(fn, 0.0, 1.0, alpha, points=f.singular_points())
    assert len(sizes) == res.levels == levels
    assert sum(sizes) == res.evals


@pytest.mark.parametrize(("grid", "refine", "cells"), ((20, 2, 12394), (16, 0, 4096)))
def test_certify_lattice_cells(grid, refine, cells):
    """grid**3 lattice cells plus one 13**3 box per refinement level."""
    f = FunctionSpec.from_text("x^(2a)")
    rep = certify_gsc(f, EtaSpec.from_text("u - v"), 0.0, -1.0, 1.0, AlphaContext(alpha=1.0),
                      grid_n=grid, refine_depth=refine)
    assert rep.status == "NoViolationFound"
    assert rep.evaluations == grid**3 + refine * 13**3 == cells


@pytest.mark.parametrize(("grid", "refine"), ((20, 2), (50, 0), (8, 1)))
def test_certify_evaluates_f_once_per_distinct_mixture(monkeypatch, grid, refine):
    """The main lattice's grid**3 mixtures are the (grid - 1)**2 + 1 evenly
    spaced points of one table, so f is evaluated there once each: after
    the grid points of the eta screen, one table call, then per refinement
    level one call over the box's 13 x points, 13 y points and 13**3
    mixtures.  This f is no member at alpha 0.5 (where f(x) < f(y), t**0.5 > t
    puts the right side below f's chord), so the report is Violated, and its witness is re-evaluated in one more call, on its
    x, y and mixture.  The report's ``evaluations`` still counts lattice
    cells."""
    sizes = []
    original = FunctionSpec.evaluate_many

    def recording(self, xs, ctx):
        out = original(self, xs, ctx)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(FunctionSpec, "evaluate_many", recording)
    rep = certify_gsc(FunctionSpec.from_text("x^(2a)"),
                      EtaSpec.from_text("u - v"), 0.0, -1.0, 1.0, AlphaContext(alpha=0.5),
                      grid_n=grid, refine_depth=refine)
    assert rep.status == "Violated"
    assert sizes == [grid, (grid - 1) ** 2 + 1] + refine * [13 + 13 + 13**3] + [3]
    assert rep.evaluations == grid**3 + refine * 13**3


@pytest.mark.parametrize(("text", "x0", "alpha", "work"), (
    ("abs(x - 0.3)^(a)", 0.4, 0.3, (3480, 1, True)),
    ("x^(2a)", 0.5, 0.5, (2976, 1, True)),
    ("abs(x - 0.7)^(a)", 0.9, 0.5, (3480, 1, True)),
))
def test_fd_derivative_inner_work(monkeypatch, text, x0, alpha, work):
    """The fd derivative's two inner integrals run at rtol 1e-11.

    One central difference of G = I^(1-alpha)[f - f(s)] takes two
    rl_integrate calls.  A kinked pair converges on the first pass at
    1e-11, as at the default 1e-9.
    """
    seen = []
    original = calculus.rl_integrate

    def recording(*args, **kwargs):
        res = original(*args, **kwargs)
        seen.append((res.evals, res.levels, res.converged))
        return res

    monkeypatch.setattr(calculus, "rl_integrate", recording)
    f = FunctionSpec.from_text(text)
    lf_derivative(f, x0, AlphaContext(alpha=alpha), DerivativeMode.FINITE_DIFFERENCE, s=0.0)
    assert seen == [work, work]


@pytest.mark.parametrize(("eta", "f", "points"), (
    (ETA_PRESETS["difference"], F_PRESETS["square"], [4]),
    (ETA_PRESETS["example23"], F_PRESETS["square"], [4]),
    ("u*v", F_PRESETS["square"], [512**2]),
    ("u - 1", "x", [4, 512**2]),
))
def test_eta_sup_work(monkeypatch, eta, f, points):
    """eta is evaluated on the 2 x 2 corners of the sampled f-range when it
    is separately monotone, and on all 512**2 pairs otherwise.  For u - 1
    and f = x on [0, 1] the corner max is +0.0, so the full matrix settles
    the sign of zero after the corners."""
    seen = []
    original = EtaSpec.evaluate_many

    def recording(self, us, vs, ctx):
        out = original(self, us, vs, ctx)
        seen.append(out.size)
        return out

    monkeypatch.setattr(EtaSpec, "evaluate_many", recording)
    estimate_eta_sup(FunctionSpec.from_text(f), EtaSpec.from_text(eta),
                     0.0, 1.0, AlphaContext(alpha=0.5))
    assert seen == points


# The parabolic weight written with abs: no normal form, so every Fejer
# integral stays on the rl route; its kinks are the ends of [lo, hi], which
# add no breakpoint.
_RL_PARABOLIC = "abs(x - lo)^(a)*abs(hi - x)^(a)"


def test_fejer_terms_builds_two_meshes_and_reuses_them():
    """Of fejer_terms' six integrals on x^(2a) over [0, 1] with a weight
    smooth inside it, on the rl route, five share the smooth [0, 1] mesh
    and m1 adds the kink at 1/2: two meshes built, four reuses."""
    ctx = AlphaContext(alpha=0.5)
    w = WeightSpec.from_text(_RL_PARABOLIC, params={"lo": 0.0, "hi": 1.0})
    calculus._mesh.cache_clear()
    rep = fejer_terms(FunctionSpec.from_text("x^(2a)"),
                      EtaSpec.from_text("u - v"), 0.0, w, 0.0, 1.0, ctx)
    info = calculus._mesh.cache_info()
    assert set(rep.routes.values()) == {"rl"}
    assert (info.misses, info.hits) == (2, 4)


def test_fejer_terms_repeated_kink_shares_one_mesh():
    """On abs(x - 0.5)^(a), L's kinks are f's and their mirror images,
    (0.5, 0.5), and m1's are (0.5,): one kink set, so one mesh.  Sorting
    and deduplicating the kinks before the cache key leaves two meshes
    built (the smooth [0, 1] one and the one kinked at 1/2), one fewer
    than when the repeated kink made a key of its own."""
    ctx = AlphaContext(alpha=0.3)
    w = WeightSpec.from_text(_RL_PARABOLIC, params={"lo": 0.0, "hi": 1.0})
    calculus._mesh.cache_clear()
    rep = fejer_terms(FunctionSpec.from_text("abs(x - 0.5)^(a)"),
                      EtaSpec.from_text("u - v"), 0.0, w, 0.0, 1.0, ctx)
    info = calculus._mesh.cache_info()
    assert set(rep.routes.values()) == {"rl"}
    assert (info.misses, info.hits) == (2, 4)
