"""Tests for membership defects, certification, and structural checks.

The membership inequality under test, for mixture point t*x + (1-t)*y:

    f(t x + (1-t) y)  <=  f(y) + t^al eta(f(x), f(y))
                          - c^al t^al (1-t)^al |x - y|^(2 al)

``defect`` returns (rhs - lhs); certification searches the (x, y, t) lattice
for negative defects and either reports the most negative witness or the
minimum defect seen.  Every hand value asserted here is recomputed inline
from that display form, never from the library's own internals.
"""

from __future__ import annotations

import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracon import (
    AlphaContext,
    Counterexample,
    EtaSpec,
    EvalError,
    FunctionSpec,
    SymmetryError,
    WeightSpec,
    certify_gsc,
    check_eta_necessary,
    check_symmetry,
    cli,
    convexity,
    defect,
    estimate_eta_sup,
    minimum_condition_check,
)
from fracon.expr import _monotone_dirs

_CTX1 = AlphaContext(alpha=1.0)


def _f(text: str, lo: float, hi: float, **params: float) -> FunctionSpec:
    return FunctionSpec.from_text(text, domain=(lo, hi), params=params or None)


# ------------------------------------------------------------- defect values


def test_defect_hand_value_square():
    """x^2, c=0, eta=u-v at (x,y,t)=(0,1,1/2).

    lhs = f(1/2) = 1/4; rhs = f(1) + (1/2)(f(0) - f(1)) = 1 - 1/2 = 1/2.
    """
    d = defect(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), 0.0, _CTX1, 0.0, 1.0, 0.5)
    assert d == pytest.approx(0.25, abs=1e-15)


def test_defect_hand_value_concave_strong():
    """-x^2, c=1, eta=u-v at (0,1,1/2): rhs = -3/4, lhs = -1/4, defect -1/2."""
    d = defect(_f("-x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), 1.0, _CTX1, 0.0, 1.0, 0.5)
    assert d == pytest.approx(-0.5, abs=1e-15)


def test_defect_zero_at_t_zero():
    """t=0 picks the y endpoint exactly: lhs = f(y) = rhs."""
    d = defect(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), 1.0, _CTX1, 0.3, 0.9, 0.0)
    assert d == 0.0


def test_defect_coincident_points():
    """x == y: distance term drops and defect = t^al eta(f(x), f(x))."""
    f = _f("x^(2a)", 0.0, 1.0)
    assert defect(f, EtaSpec.from_text("u - v"), 1.0, _CTX1, 0.4, 0.4, 0.7) == 0.0
    ctx = AlphaContext(alpha=0.5)
    eta = EtaSpec.from_text("2^a*u + v")
    fx = f.evaluate(0.4, ctx)
    expected = 0.7**0.5 * (2.0**0.5 * fx + fx)
    got = defect(f, eta, 1.0, ctx, 0.4, 0.4, 0.7)
    assert got == pytest.approx(expected, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(0.0, 2.0),
    y=st.floats(0.0, 2.0),
    t=st.floats(0.0, 1.0),
    c=st.floats(0.0, 3.0),
)
def test_defect_matches_classical_strong_form_at_unit_order(x, y, t, c):
    """al=1, eta=u-v: defect is the classical strongly-convex defect."""
    f = _f("x^(2a)", 0.0, 2.0)
    fx, fy = x * x, y * y
    mix = t * x + (1.0 - t) * y
    expected = fy + t * (fx - fy) - c * t * (1.0 - t) * (x - y) ** 2 - mix * mix
    got = defect(f, EtaSpec.from_text("u - v"), c, _CTX1, x, y, t)
    assert got == pytest.approx(expected, abs=1e-12 * (1.0 + abs(expected)))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 1.0),
    x=st.floats(0.0, 2.0),
    y=st.floats(0.0, 2.0),
    t=st.floats(0.0, 1.0),
)
def test_defect_matches_eta_form_without_strong_term(alpha, x, y, t):
    """c=0: defect reduces to fy + t^al eta(fx, fy) - f(mixture)."""
    ctx = AlphaContext(alpha=alpha)
    f = _f("x^(2a)", 0.0, 2.0)
    fx = f.evaluate(x, ctx)
    fy = f.evaluate(y, ctx)
    fz = f.evaluate(t * x + (1.0 - t) * y, ctx)
    expected = fy + t**alpha * (fx - fy) - fz
    got = defect(f, EtaSpec.from_text("u - v"), 0.0, ctx, x, y, t)
    assert got == pytest.approx(expected, abs=1e-12 * (1.0 + abs(expected)))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 1.0),
    x=st.floats(0.0, 2.0),
    y=st.floats(0.0, 2.0),
    t=st.floats(0.0, 1.0),
    c=st.floats(0.0, 3.0),
)
def test_defect_matches_display_form(alpha, x, y, t, c):
    """Full display form with eta(u,v) = 2^al u + v, recomputed inline."""
    ctx = AlphaContext(alpha=alpha)
    f = _f("x^(2a)", 0.0, 2.0)
    fx = f.evaluate(x, ctx)
    fy = f.evaluate(y, ctx)
    fz = f.evaluate(t * x + (1.0 - t) * y, ctx)
    e = 2.0**alpha * fx + fy
    expected = (
        fy
        + t**alpha * e
        - c**alpha * t**alpha * (1.0 - t) ** alpha * abs(x - y) ** (2.0 * alpha)
        - fz
    )
    got = defect(f, EtaSpec.from_text("2^a*u + v"), c, ctx, x, y, t)
    assert got == pytest.approx(expected, abs=1e-12 * (1.0 + abs(expected)))


# ------------------------------------------------------------- certification


def test_certify_square_is_clean():
    rep = certify_gsc(_f("x^(2a)", -1.0, 1.0), EtaSpec.from_text("u - v"), 0.0, _CTX1,
                      grid_n=20, refine_depth=2)
    assert rep.status == "NoViolationFound"
    assert rep.witness is None
    assert rep.min_defect >= -1e-9
    assert rep.grid.interval == (-1.0, 1.0)
    assert rep.evaluations > 20**3


def test_certify_concave_finds_witness():
    """-x^2 with c=1 violates; the canonical witness is (0, 1, 1/2)."""
    f = _f("-x^(2a)", 0.0, 1.0)
    eta = EtaSpec.from_text("u - v")
    rep = certify_gsc(f, eta, 1.0, _CTX1, grid_n=20, refine_depth=2)
    assert rep.status == "Violated"
    w = rep.witness
    assert isinstance(w, Counterexample)
    assert w.defect <= -0.4
    # Witness must be self-validating: re-evaluating the defect at the
    # reported point reproduces the reported value exactly.
    assert defect(f, eta, 1.0, _CTX1, w.x, w.y, w.t) == w.defect
    assert w.rhs - w.lhs == w.defect
    assert rep.min_defect == w.defect


def test_certify_parameterized_instance():
    """x^(2a) + c^a x^(2a) with eta = 2^a u + v stays violation-free."""
    ctx = AlphaContext(alpha=0.5)
    f = _f("x^(2a) + c^(a)*x^(2a)", 0.0, 2.0, c=1.0)
    rep = certify_gsc(f, EtaSpec.from_text("2^a*u + v"), 1.0, ctx, grid_n=24, refine_depth=2)
    assert rep.status == "NoViolationFound"
    assert rep.min_defect >= -1e-9


def test_certify_pointwise_dominating_eta_stays_clean():
    """If eta2 >= eta pointwise, membership w.r.t. eta implies it w.r.t. eta2."""
    rep = certify_gsc(_f("x^(2a)", -1.0, 1.0), EtaSpec.from_text("u - v + 1"), 0.0, _CTX1,
                      grid_n=16, refine_depth=2)
    assert rep.status == "NoViolationFound"
    assert rep.min_defect >= -1e-9


def test_certify_deterministic():
    f = _f("x^(2a)", 0.0, 1.0)
    eta = EtaSpec.from_text("u - v")
    r1 = certify_gsc(f, eta, 0.5, _CTX1, grid_n=16, refine_depth=2)
    r2 = certify_gsc(f, eta, 0.5, _CTX1, grid_n=16, refine_depth=2)
    assert r1 == r2
    assert cli._json_text(r1, "\n") == cli._json_text(r2, "\n")


def test_certify_report_dict_shape():
    rep = certify_gsc(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), 0.0, _CTX1,
                      grid_n=16, refine_depth=1)
    d = json.loads(cli._json_text(rep, "\n"))
    assert set(d) == {"status", "witness", "min_defect", "tol_violation", "max_abs_f",
                      "grid", "evaluations", "necessary"}
    assert d["grid"] == {"grid_n": 16, "refine_depth": 1, "interval": [0.0, 1.0]}
    assert d["witness"] is None


@pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
def test_certify_non_finite_defect_raises(monkeypatch, rows):
    """On [-1e200, 1e200] |x - y|^(2a) overflows: no report, an EvalError
    naming the first NaN cell, whatever the slab size."""
    if rows is not None:
        monkeypatch.setattr(convexity, "_SLAB_CELLS", rows * 8 * 8)
    f = FunctionSpec.from_text("1", domain=(-1e200, 1e200))
    eta = EtaSpec.from_text("u - v")
    with pytest.raises(EvalError) as info:
        certify_gsc(f, eta, 1.0, _CTX1, grid_n=8, refine_depth=0)
    # The first cell of the lattice: x = a, y = a + (b - a) / 7, t = 0.
    assert str(info.value) == ("non-finite defect nan at x=-1e+200, "
                               f"y={-1e200 + 2e200 / 7!r}, t=0.0")


@pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
def test_certify_zero_strong_term_keeps_nan_defect(monkeypatch, rows):
    """With c = 0 the strong term is zero, but 0 * inf is still NaN: on
    [-1e200, 1e200] the overflowing |x - y|^(2a) raises as it does at c = 1."""
    if rows is not None:
        monkeypatch.setattr(convexity, "_SLAB_CELLS", rows * 8 * 8)
    f = FunctionSpec.from_text("1", domain=(-1e200, 1e200))
    with pytest.raises(EvalError) as info:
        certify_gsc(f, EtaSpec.from_text("u - v"), 0.0, _CTX1, grid_n=8, refine_depth=0)
    assert str(info.value) == ("non-finite defect nan at x=-1e+200, "
                               f"y={-1e200 + 2e200 / 7!r}, t=0.0")


@pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
def test_certify_overflowing_mixture_raises(monkeypatch, rows):
    """(x - 0.5)^(-200) is at most 14^200 on the grid-8 points of [0, 1], but
    the mixture 24/49 (x = 0, y = 4/7, t = 1/7) lies 1/98 from 0.5, and
    98^200 overflows."""
    if rows is not None:
        monkeypatch.setattr(convexity, "_SLAB_CELLS", rows * 8 * 8)
    f = _f("(x - 0.5)^(-200)", 0.0, 1.0)
    assert np.isfinite(f.evaluate_many(np.linspace(0.0, 1.0, 8), _CTX1)).all()
    with pytest.raises(EvalError, match="^non-finite value in evaluation$"):
        certify_gsc(f, EtaSpec.from_text("u - v"), 0.0, _CTX1, grid_n=8, refine_depth=0)


def test_certify_rejects_refine_past_cap():
    """3**(level - 1) stops converting to float at level 648; the cap comes first.
    At alpha 0.5 the minimizer sits at x = 0, where the box never collapses,
    so all 40 levels run."""
    f, eta = _f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v")
    for depth in (convexity._MAX_REFINE + 1, 648):
        with pytest.raises(ValueError,
                           match=f"refine_depth must be <= {convexity._MAX_REFINE}, got {depth}"):
            certify_gsc(f, eta, 0.0, _CTX1, grid_n=8, refine_depth=depth)
    rep = certify_gsc(f, eta, 0.0, AlphaContext(alpha=0.5), grid_n=8,
                      refine_depth=convexity._MAX_REFINE)
    assert rep.evaluations == 8**3 + convexity._MAX_REFINE * 13**3


def test_certify_rejects_tiny_grid():
    with pytest.raises(ValueError, match="grid_n"):
        certify_gsc(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), 0.0, _CTX1, grid_n=7)


def test_certify_rejects_grid_over_cap_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("certify_gsc sampled a rejected grid_n")

    monkeypatch.setattr(convexity, "_lattice_min", no_sampling)
    monkeypatch.setattr(convexity, "check_eta_necessary", no_sampling)
    cap = convexity._MAX_GRID
    with pytest.raises(ValueError, match=f"grid_n must be <= {cap}, got {cap + 1}"):
        certify_gsc(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), 0.0, _CTX1,
                    grid_n=cap + 1)


def test_certify_requires_domain():
    f = FunctionSpec.from_text("x^(2a)")
    with pytest.raises(ValueError):
        certify_gsc(f, EtaSpec.from_text("u - v"), 0.0, _CTX1, grid_n=16)


# ------------------------------------------------------------ lattice kernels
#
# The main lattice reads f from the table of its (grid - 1)**2 + 1 evenly
# spaced mixtures and is walked in slabs of whole t-planes; a refinement
# box is evaluated whole, at float mixtures.


_SLAB_CASES = [
    ("x^(2a)", "u - v", 1.0, 1.0, "NoViolationFound"),
    ("-x^(2a)", "u - v", 1.0, 0.5, "Violated"),
    ("x^(4a)", "u - v", 1.0, 0.5, "Violated"),
    ("x^(4a)", "2^a*u + v", 0.0, 0.3, "NoViolationFound"),  # minimum 0, tied
    ("abs(x - 0.3)^(a)", "u - v", 0.0, 1.0, "NoViolationFound"),
    ("abs(x - 0.3)^(a)", "u - v", 1.0, 0.3, "Violated"),
]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize(("text", "eta", "c", "alpha", "status"), _SLAB_CASES,
                         ids=["square", "negsquare", "x4a", "x4a-tied", "kink", "kink-strong"])
def test_certify_report_independent_of_slab_size(monkeypatch, text, eta, c, alpha, status,
                                                 rows):
    """Slabs of 1 or 3 t-planes (3 leaves a short last slab) change nothing."""
    f = _f(text, 0.0, 1.0)
    eta = EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    default = certify_gsc(f, eta, c, ctx, grid_n=20, refine_depth=3)
    assert default.status == status
    monkeypatch.setattr(convexity, "_SLAB_CELLS", rows * 20 * 20)
    assert certify_gsc(f, eta, c, ctx, grid_n=20, refine_depth=3) == default


@pytest.mark.parametrize("slab_cells", [1, 5 * 17 * 17, 1 << 16])
def test_certify_tie_keeps_first_lattice_index(monkeypatch, slab_cells):
    """f = 1, eta = -1, c = 0: the defect is -t^al, so every (x, y) ties at
    t = 1 and the witness is the first of them, x = y = a."""
    monkeypatch.setattr(convexity, "_SLAB_CELLS", slab_cells)
    rep = certify_gsc(_f("1", 0.2, 1.3), EtaSpec.from_text("-1"), 0.0,
                      AlphaContext(alpha=0.5), grid_n=17, refine_depth=2)
    assert rep.status == "Violated"
    assert (rep.witness.x, rep.witness.y, rep.witness.t) == (0.2, 0.2, 1.0)
    assert rep.witness.defect == -1.0


def _table_defects(f, eta, c, ctx, xs, ts):
    """The main lattice's defects and f(mixture) as whole (x, y, t) tensors.

    Mixture (i, j, k) is table point k*i + (n - 1 - k)*j, gathered here by
    fancy indexing rather than through the kernel's plane views.
    """
    n, al = len(xs), ctx.alpha
    mixtures = np.linspace(xs[0], xs[-1], (n - 1) ** 2 + 1)
    mixtures[:: n - 1] = xs
    table = f.evaluate_many(mixtures, ctx)
    fx = table[:: n - 1]
    e = eta.evaluate_many(fx[:, None], fx[None, :], ctx)
    ta = ts**al
    corr = c**al * ta * (1.0 - ts) ** al
    dist = np.abs(xs[:, None] - xs[None, :]) ** (2.0 * al)
    i, j, k = np.ogrid[:n, :n, :n]
    fmix = table[k * i + (n - 1 - k) * j]
    with np.errstate(over="ignore", invalid="ignore"):
        d = fx[None, :, None] + ta * e[:, :, None] - corr * dist[:, :, None] - fmix
    return d, fmix


def _table_reference(f, eta, c, ctx, xs, ts):
    """The whole-tensor evaluation that the main-lattice slabs replace."""
    d, fmix = _table_defects(f, eta, c, ctx, xs, ts)
    i, j, k = np.unravel_index(int(np.argmin(d)), d.shape)
    return (int(i), int(j), int(k)), float(d[i, j, k]), float(np.max(np.abs(fmix)))


def _box_reference(f, eta, c, ctx, xs, ys, ts):
    """The whole-tensor evaluation at float mixtures t*x + (1-t)*y."""
    al = ctx.alpha
    fx = f.evaluate_many(xs, ctx)
    fy = f.evaluate_many(ys, ctx)
    e = eta.evaluate_many(fx[:, None], fy[None, :], ctx)
    ta = ts**al
    corr = c**al * ta * (1.0 - ts) ** al
    dist = np.abs(xs[:, None] - ys[None, :]) ** (2.0 * al)
    mix = ts[None, None, :] * xs[:, None, None] + (1.0 - ts[None, None, :]) * ys[None, :, None]
    fmix = f.evaluate_many(mix, ctx)
    d = (
        fy[None, :, None]
        + ta[None, None, :] * e[:, :, None]
        - corr[None, None, :] * dist[:, :, None]
        - fmix
    )
    i, j, k = np.unravel_index(int(np.argmin(d)), d.shape)
    return (int(i), int(j), int(k)), float(d[i, j, k]), float(np.max(np.abs(fmix)))


@pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
@pytest.mark.parametrize("box", [False, True], ids=["lattice", "box"])
@pytest.mark.parametrize(("text", "eta", "c", "alpha", "status"), _SLAB_CASES,
                         ids=["square", "negsquare", "x4a", "x4a-tied", "kink", "kink-strong"])
def test_lattice_min_matches_whole_tensor(monkeypatch, text, eta, c, alpha, status, box,
                                          rows):
    """Both kernels return exactly the whole-tensor index, minimum and max
    |f|: the main lattice in slabs of 1 or 3 t-planes or the default, and an
    off-centre refinement box clipped at x = 0 (so xs differs from ys),
    which reads no slab size at all."""
    f = _f(text, 0.0, 1.0)
    eta = EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    xs = ts = np.linspace(0.0, 1.0, 20)
    if rows is not None:
        monkeypatch.setattr(convexity, "_SLAB_CELLS", rows * len(xs) ** 2)
    if box:
        w = 1.0 / 19
        xs = np.linspace(max(0.0, 0.02 - w), min(1.0, 0.02 + w), 13)
        ys = np.linspace(max(0.0, 0.61 - w), min(1.0, 0.61 + w), 13)
        ts = np.linspace(max(0.0, 0.97 - w), min(1.0, 0.97 + w), 13)
        got = convexity._box_min(f, eta, c, ctx, xs, ys, ts)
        assert got == _box_reference(f, eta, c, ctx, xs, ys, ts)
    else:
        got = convexity._lattice_min(f, eta, c, ctx, xs, ts)
        assert got == _table_reference(f, eta, c, ctx, xs, ts)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(8, 30),
    text=st.sampled_from(["x^(2a)", "-x^(2a)", "x", "1", "abs(x - 0.3)^(a)", "x^(4a) - x^(a)"]),
    eta=st.sampled_from(["u - v", "u*v", "2^a*u + v", "-1"]),
    alpha=st.sampled_from([0.3, 0.5, 1.0]),
    c=st.sampled_from([0.0, -0.0, 2.0]),
    interval=st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (-0.7, 0.4), (0.2, 1.3), (-3.0, -1.0)])
    | st.tuples(st.floats(-2.0, 0.0), st.floats(0.1, 2.0)),
    slab_cells=st.integers(1, 3 * 30 * 30),
)
# The minimum -96/49 sits at the mirror cells (7, 0, 3) and (0, 7, 4); the
# first in (x, y, t) order is in the later plane, and here the later slab.
@example(n=8, text="x", eta="u - v", alpha=1.0, c=2.0, interval=(-1.0, 1.0), slab_cells=1)
def test_lattice_min_matches_table_reference(n, text, eta, alpha, c, interval, slab_cells):
    """On random grids and intervals (a < 0 < b among them) the main-lattice
    kernel returns the whole-tensor index, minimum and max |f| over the same
    mixture table bit for bit, whatever the slab size."""
    f, eta = _f(text, *interval), EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    xs, ts = np.linspace(*interval, n), np.linspace(0.0, 1.0, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convexity, "_SLAB_CELLS", slab_cells)
        got = convexity._lattice_min(f, eta, c, ctx, xs, ts)
    want = _table_reference(f, eta, c, ctx, xs, ts)
    assert got[0] == want[0]
    assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex())


@pytest.mark.parametrize("text", ["abs(x - 0.3)^(a)", "x^(a) - 2*x^(3a)", "-abs(x + 0.1)^(2a)"])
@pytest.mark.parametrize("n", [8, 21, 50])
def test_lattice_min_t0_plane_is_exactly_zero(monkeypatch, text, n):
    """The table holds the lattice points themselves at every (n - 1)-th
    entry (on [-0.7, 1.3] a fine linspace alone misses 4 of them at grid 21
    and 36 at grid 50), so at t = 0 the mixture is y and the defect
    f(y) - f(y) is +0.0.  With eta = u - v + 1e6 every later plane is far
    positive, so the minimum is that zero, at the first cell."""
    tables = []
    original = FunctionSpec.evaluate_many

    def recording(self, xs, ctx):
        tables.append(xs)
        return original(self, xs, ctx)

    f, eta = _f(text, -0.7, 1.3), EtaSpec.from_text("u - v + 1e6")
    xs, ts = np.linspace(-0.7, 1.3, n), np.linspace(0.0, 1.0, n)
    monkeypatch.setattr(FunctionSpec, "evaluate_many", recording)
    (i, j, k), low, _ = convexity._lattice_min(f, eta, 1.0, AlphaContext(alpha=0.4), xs, ts)
    assert ((i, j, k), low.hex()) == ((0, 0, 0), (0.0).hex())
    [table] = tables
    assert table.size == (n - 1) ** 2 + 1
    assert [v.hex() for v in table[:: n - 1]] == [v.hex() for v in xs]


@pytest.mark.parametrize("n", [8, 9, 24, 50, 151])
def test_every_table_point_is_a_lattice_mixture(n):
    """Plane k = 1 alone reaches every m = i + (n - 2) j in [0, (n - 1)**2],
    so max |f| over the table is the max over the whole lattice."""
    i, j = np.ogrid[:n, :n]
    assert np.array_equal(np.unique(i + (n - 2) * j), np.arange((n - 1) ** 2 + 1))
    # |f| peaks at 0.3, which is a lattice point of [0, 1] only at grid 151.
    f, eta = _f("1 - abs(x - 0.3)^(a)", 0.0, 1.0), EtaSpec.from_text("u - v")
    xs, ts = np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n)
    ctx = AlphaContext(alpha=0.5)
    got = convexity._lattice_min(f, eta, 0.0, ctx, xs, ts)[2]
    mixtures = np.linspace(0.0, 1.0, (n - 1) ** 2 + 1)
    mixtures[:: n - 1] = xs
    table = f.evaluate_many(mixtures, ctx)
    assert np.max(np.abs(table)) > np.max(np.abs(f.evaluate_many(xs, ctx))) or n == 151
    assert got == float(np.max(np.abs(table))) == float(np.max(np.abs(
        _table_defects(f, eta, 0.0, ctx, xs, ts)[1])))


def test_lattice_min_inf_defect_is_no_violation_unless_it_is_the_minimum():
    """f = 1.5e308, eta = u: at t = 1 the right side f(y) + eta overflows to
    +inf, which is no violation; a box of +inf cells only has no finite
    minimum, and raises at its first cell."""
    f, eta = _f("1.5e308", 0.0, 1.0), EtaSpec.from_text("u")
    xs = np.array([0.0, 0.5])
    got = convexity._box_min(f, eta, 0.0, _CTX1, xs, xs, np.array([0.0, 1.0]))
    assert got == ((0, 0, 0), 0.0, 1.5e308)
    with pytest.raises(EvalError, match=r"^non-finite defect inf at x=0\.0, y=0\.0, t=1\.0$"):
        convexity._box_min(f, eta, 0.0, _CTX1, xs, xs, np.array([1.0]))


@pytest.mark.parametrize(("xs", "want"), (([0.0, 1.0], (0, 0, 0)), ([1.0, 0.0], (1, 0, 0))))
def test_box_min_inf_cell_before_or_after_the_finite_one(xs, want):
    """f = 1.5e308*x, eta = u at y = t = 1: the x = 0 cell is 1.5e308 and
    the x = 1 cell +inf, in either order; only a box that is +inf
    throughout raises."""
    got = convexity._box_min(_f("1.5e308*x", 0.0, 1.0), EtaSpec.from_text("u"), 0.0, _CTX1,
                             np.array(xs), np.array([1.0]), np.array([1.0]))
    assert got == (want, 1.5e308, 1.5e308)


@pytest.mark.parametrize("slab_cells", (1, 2, None), ids=["cells1", "cells2", "default"])
@pytest.mark.parametrize(("xs", "want"), (([0.5, 1.0], ((0, 0, 0), 0.0, 1.5e308)),
                                          ([0.9, 1.0], ((0, 0, 0), 0.0, 1.5e308))))
def test_lattice_min_inf_cells_do_not_depend_on_slab_size(monkeypatch, slab_cells, xs, want):
    """f = 1.5e308*x, eta = u, c = 0 on [a, 1] at grid 8: the right side
    f(y) + t*f(x) overflows to +inf near x = y = t = 1, and on [0.9, 1]
    every plane from t = 3/7 on is +inf throughout.  A +inf cell is no
    violation, so in slabs of one plane or of the whole lattice the
    minimum is the t = 0 plane's exact 0 at the first cell."""
    if slab_cells is not None:
        monkeypatch.setattr(convexity, "_SLAB_CELLS", slab_cells)
    f, eta = _f("1.5e308*x", *xs), EtaSpec.from_text("u")
    lattice, ts = np.linspace(*xs, 8), np.linspace(0.0, 1.0, 8)
    assert np.isposinf(_table_defects(f, eta, 0.0, _CTX1, lattice, ts)[0]).any()
    assert convexity._lattice_min(f, eta, 0.0, _CTX1, lattice, ts) == want


@pytest.mark.parametrize("slab_cells", (1, 2, None), ids=["cells1", "cells2", "default"])
def test_lattice_min_minus_inf_defect_raises(monkeypatch, slab_cells):
    """f = -1.5e308*x, eta = u, c = 0 on [0, 1] at grid 8: f(y) + t*f(x)
    overflows to -inf first, in (x, y, t) order, at x = 2/7, y = 1,
    t = 5/7 (1 + 10/49 times -1.5e308); at x = 1/7 even y = t = 1 stays
    finite.  That cell is named whatever the slab size, though later
    planes reach -inf at smaller (x, y)."""
    if slab_cells is not None:
        monkeypatch.setattr(convexity, "_SLAB_CELLS", slab_cells)
    xs, ts = np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 8)
    want = f"non-finite defect -inf at x={float(xs[2])!r}, y=1.0, t={float(ts[5])!r}"
    with pytest.raises(EvalError, match=f"^{re.escape(want)}$"):
        convexity._lattice_min(_f("-1.5e308*x", 0.0, 1.0), EtaSpec.from_text("u"), 0.0, _CTX1,
                               xs, ts)


def test_box_min_minus_inf_defect_raises():
    """f = -1.5e308*x, eta = u at y = t = 1: the x = 1 cell is -inf, which
    raises after a finite x = 0 cell."""
    with pytest.raises(EvalError, match=r"^non-finite defect -inf at x=1\.0, y=1\.0, t=1\.0$"):
        convexity._box_min(_f("-1.5e308*x", 0.0, 1.0), EtaSpec.from_text("u"), 0.0, _CTX1,
                           np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0]))


# min_defect, max |f| and witness (x, y, t, lhs, rhs, defect) as float.hex,
# frozen from the implementation that ran every refinement level; the x^(2a)
# minimum is float noise of the main lattice's mixtures.
_COLLAPSED = {
    ("x^(2a)", 1.0): (34, "-0x1.0000000000000p-53", "0x1.0000000000000p+0", None),
    ("abs(x - 0.3)^(a)", 0.5): (34, "-0x1.62cac76c59d7ep-2", "0x1.ac5eb3f7ab2f8p-1", [
        "0x1.3333333333333p-2", "0x1.ffffffffffffep-1", "0x1.f425ed097b381p-2",
        "0x1.326398fbaf35fp-1", "0x1.01fc6a8b04940p-2", "-0x1.62cac76c59d7ep-2"]),
}


@pytest.mark.parametrize(("text", "alpha"), sorted(_COLLAPSED))
def test_certify_stops_refining_a_collapsed_box(monkeypatch, text, alpha):
    """At grid 8 (9 for the kink) and refine 40, the box around the
    minimizer holds one value per axis before level 40; the levels after
    that would evaluate 13**3 copies of one cell, so they are not run, and
    the report is bit-identical to running them."""
    calls = []
    for name in ("_lattice_min", "_box_min"):
        def counting(*args, _kernel=getattr(convexity, name)):
            calls.append(args[4].size)
            return _kernel(*args)

        monkeypatch.setattr(convexity, name, counting)
    grid = 9 if "abs" in text else 8
    rep = certify_gsc(_f(text, 0.0, 1.0), EtaSpec.from_text("u - v"), 0.0,
                      AlphaContext(alpha=alpha), grid_n=grid, refine_depth=40)
    runs, min_defect, max_abs_f, witness = _COLLAPSED[text, alpha]
    assert (rep.min_defect.hex(), rep.max_abs_f.hex()) == (min_defect, max_abs_f)
    w = rep.witness
    assert (None if w is None else
            [v.hex() for v in (w.x, w.y, w.t, w.lhs, w.rhs, w.defect)]) == witness
    assert len(calls) == runs < 41
    assert rep.evaluations == grid**3 + (runs - 1) * 13**3
    assert rep.grid.refine_depth == 40


_DYADIC = st.integers(-8, 8).map(lambda k: k / 8) | st.just(-0.0)


@settings(max_examples=300, deadline=None)
@given(
    text=st.sampled_from(["x^(2a)", "-x^(2a)", "x"]),
    eta=st.sampled_from(["u - v", "u*v"]),
    c=st.sampled_from([0.0, 2.0, -0.0]),
    xs=st.lists(_DYADIC, min_size=1, max_size=6),
    ys=st.lists(_DYADIC, min_size=1, max_size=6),
    ts=st.lists(st.integers(0, 8).map(lambda k: k / 8), min_size=1, max_size=6),
)
# Defects +0.0 then -0.0: the box's min() is -0.0, but the first index
# holds +0.0.
@example(text="x", eta="u*v", c=0.0, xs=[0.5], ys=[0.0, -0.0], ts=[0.0])
# The first zero in (x, y, t) order is +0.0, in (x, t, y) order -0.0.
@example(text="x", eta="u*v", c=0.0, xs=[0.0], ys=[0.125, 1.0, -0.0], ts=[0.625, 0.0])
# A strong term of -0.0 (c = -0.0) turns the defect -0.0 into +0.0.
@example(text="x", eta="u*v", c=-0.0, xs=[0.5], ys=[-0.0], ts=[0.0])
def test_lattice_min_ties_match_whole_tensor_bitwise(text, eta, c, xs, ys, ts):
    """On dyadic points at alpha = 1 every defect is exact, so many cells tie,
    zeros of both signs among them.  The box kernel, which takes any xs, ys
    and ts, returns the whole tensor's index, minimum and max |f| bit for
    bit."""
    f, eta = _f(text, -1.0, 1.0), EtaSpec.from_text(eta)
    xs, ys, ts = np.array(xs), np.array(ys), np.array(ts)
    got = convexity._box_min(f, eta, c, _CTX1, xs, ys, ts)
    want = _box_reference(f, eta, c, _CTX1, xs, ys, ts)
    assert got[0] == want[0]
    assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex())


# f texts whose evaluation runs abs, sign and power ufuncs on the box arrays.
_BOX_FS = ["abs(x - 0.3)^(a)", "x^(a)", "x^(2a) - abs(x)^(3a)", "x^3 - 2*x^2",
           "abs(x)^2.5", "x^(0.5)", "1 - x^(2a)", "x"]


@settings(max_examples=300, deadline=None)
@given(
    text=st.sampled_from(_BOX_FS),
    eta=st.sampled_from(["u - v", "u*v", "2^a*u + v", "(u - v)^2 + abs(u)^(a)"]),
    alpha=st.sampled_from([0.3, 0.5, 0.7, 1.0]),
    c=st.sampled_from([0.0, 0.5, 2.0]),
    centers=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
    widths=st.tuples(st.floats(1e-6, 0.3), st.floats(1e-6, 0.3)),
)
# max |f| over the mixtures (about 0.53) is far below |f| at x near 1.
@example(text="x", eta="u - v", alpha=0.5, c=0.0, centers=(0.95, 0.0, 0.5),
         widths=(0.05, 0.05))
def test_box_min_matches_separate_evaluations(text, eta, alpha, c, centers, widths):
    """f evaluated once over the box's x, y and mixture points gives, slice by
    slice, the bits of three separate ``evaluate_many`` calls; and the box
    kernel, which builds its defect in place from that one call, returns
    the whole-tensor reference's index, minimum and max |f| bit for bit."""
    f, eta = _f(text, -1.0, 1.0), EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    (cx, cy, ct), (wx, wt) = centers, widths
    xs = np.linspace(max(-1.0, cx - wx), min(1.0, cx + wx), 13)
    ys = np.linspace(max(-1.0, cy - wx), min(1.0, cy + wx), 13)
    ts = np.linspace(max(0.0, ct - wt), min(1.0, ct + wt), 13)
    mix = ts * xs[:, None, None] + (1.0 - ts) * ys[:, None]
    merged = f.evaluate_many(np.concatenate((xs, ys, mix.ravel())), ctx)
    parts = [f.evaluate_many(v, ctx) for v in (xs, ys, mix)]
    assert merged.tobytes() == b"".join(p.tobytes() for p in parts)
    got = convexity._box_min(f, eta, c, ctx, xs, ys, ts)
    want = _box_reference(f, eta, c, ctx, xs, ys, ts)
    assert got[0] == want[0]
    assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex())


def _certify_peak(grid_n: int) -> int:
    """Traced peak bytes of one certify of x^(2a) on [0, 1] at alpha 0.5."""
    f = _f("x^(2a)", 0.0, 1.0)
    eta = EtaSpec.from_text("u - v")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        certify_gsc(f, eta, 1.0, AlphaContext(alpha=0.5), grid_n=grid_n, refine_depth=3)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_certify_memory_is_bounded():
    """At grid 120 a whole-lattice tensor would peak near 53 MiB."""
    assert _certify_peak(120) < 8 * 2**20


def test_certify_memory_grows_with_grid_squared_past_one_plane_per_slab():
    """At grid 300 one t-plane (90,000 cells) exceeds _SLAB_CELLS, so each
    slab is a single plane, and the working set is a few grid**2 arrays
    (720 KB each): the table of f, eta, the distances and the two slab
    buffers.  A whole-lattice tensor would take 216 MB."""
    assert 300**2 > convexity._SLAB_CELLS
    assert _certify_peak(300) < 8 * 2**20


def test_certify_working_set_is_six_grid_squared_arrays():
    """The mixtures are dropped once f's table is built, and max |f| is taken
    before the slab buffers exist, so the slab loop runs with six grid**2
    arrays live: the table, eta, the distances, the f(y) tile and the two
    slab buffers (one plane each at grid 300).  Keeping the mixtures, or
    taking |f| while the slab buffers exist, adds a seventh."""
    assert _certify_peak(300) < 6.5 * 8 * 300**2


# ---------------------------------------------------- necessary-sign checks


def test_necessary_passes_for_difference():
    rep = check_eta_necessary(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), _CTX1)
    assert rep.diag_ok and rep.upper_ok
    assert rep.diag_witness is None and rep.upper_witness is None


def test_necessary_fails_for_negative_constant():
    """eta = -1 breaks eta(w, w) >= 0 on the diagonal."""
    rep = check_eta_necessary(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("-1"), _CTX1)
    assert not rep.diag_ok
    assert rep.diag_min == -1.0
    assert rep.diag_witness is not None
    assert not rep.upper_ok


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_necessary_passes_for_additive_eta_on_nonnegative_f(alpha):
    """eta(u,v) = 2^al u + v dominates u - v whenever f >= 0."""
    ctx = AlphaContext(alpha=alpha)
    rep = check_eta_necessary(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("2^a*u + v"), ctx)
    assert rep.diag_ok and rep.upper_ok


# ----------------------------------------------------------- symmetry checks


_SYMMETRY_XS = np.linspace(0.0, 1.0, 1001)  # check_symmetry's samples of [0, 1]


def _asymmetries(w, ctx):
    """|w(x) - w(1 - x)| on check_symmetry's samples of [0, 1]."""
    return np.abs(w.evaluate_many(_SYMMETRY_XS, ctx) - w.evaluate_many(1.0 - _SYMMETRY_XS, ctx))


def test_symmetry_constant_weight():
    w = WeightSpec.from_text("1", domain=(0.0, 1.0))
    assert check_symmetry(w, 0.0, 1.0, _CTX1) is None
    assert np.max(_asymmetries(w, _CTX1)) == 0.0


def test_symmetry_parabolic_weight():
    ctx = AlphaContext(alpha=0.5)
    w = WeightSpec.from_text("(x - lo)^(a)*(hi - x)^(a)", domain=(0.0, 1.0),
                             params={"lo": 0.0, "hi": 1.0})
    assert check_symmetry(w, 0.0, 1.0, ctx) is None
    assert np.max(_asymmetries(w, ctx)) <= 1e-12


def test_symmetry_detects_skew():
    """w(x) = x on [0,1]: w(0) = 0 vs w(1) = 1 gives asymmetry 1 at x=0."""
    w = WeightSpec.from_text("x^(a)", domain=(0.0, 1.0))
    asym = _asymmetries(w, _CTX1)
    assert np.max(asym) == pytest.approx(1.0, abs=1e-12)
    assert _SYMMETRY_XS[np.argmax(asym)] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SymmetryError, match=re.escape(
            "weight is not symmetric about the midpoint: max asymmetry 1.000e+00 "
            "at x=0.0 (tol 2.000e-10)")):
        check_symmetry(w, 0.0, 1.0, _CTX1)


def test_symmetry_detects_negative_weight():
    """w = -1 is symmetric, so the negativity check is the one that fails."""
    w = WeightSpec.from_text("-1", domain=(0.0, 1.0))
    assert np.min(w.evaluate_many(_SYMMETRY_XS, _CTX1)) == -1.0
    with pytest.raises(SymmetryError,
                       match=re.escape("weight takes negative values: min -1.000e+00 at x=0.0")):
        check_symmetry(w, 0.0, 1.0, _CTX1)


# ----------------------------------------------------------- eta sup estimate


def test_eta_sup_examples():
    fsq = _f("x^(2a)", 0.0, 1.0)

    def sup(eta):
        return estimate_eta_sup(fsq, EtaSpec.from_text(eta), _CTX1, 0.0, 1.0)

    assert sup("u - v") == pytest.approx(1.0, abs=1e-12)
    assert sup("0") == 0.0
    assert sup("3") == 3.0
    # The estimate is a signed max, not a max of absolute values.
    assert sup("-1") == -1.0


def test_eta_sup_interval_override():
    fsq = _f("x^(2a)", 0.0, 1.0)
    got = estimate_eta_sup(fsq, EtaSpec.from_text("u - v"), _CTX1, a=0.0, b=2.0)
    assert got == pytest.approx(4.0, abs=1e-12)


class _Samples:
    """Stands in for a FunctionSpec whose samples on any grid are ``fx``."""

    def __init__(self, fx: np.ndarray):
        self.fx = fx

    def evaluate_many(self, xs, ctx):
        return self.fx


# Positive constants, among them 2^a, a subnormal and one that overflows a
# product; the samples hold both zeros and both signs of tiny and huge values.
_ETA_CONSTS = ("3", "0.5", "2^a", "2^(2a)", "5e-324", "1e-310", "1e300")
_ETA_SAMPLES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, 1.0, -1.0, 3.0,
                1e300, -1e300, 1.7e308)


def _neg(d):
    return (-d[0], -d[1])


def _eta_sum(pair):
    (lt, ld), (rt, rd), op = pair
    rd = rd if op == "+" else _neg(rd)
    if ld[0] * rd[0] < 0 or ld[1] * rd[1] < 0:
        return None
    return f"({lt} {op} {rt})", (ld[0] or rd[0], ld[1] or rd[1])


def _eta_extend(child):
    const = st.sampled_from(_ETA_CONSTS)
    return st.one_of(
        child.map(lambda t: (f"-({t[0]})", _neg(t[1]))),
        st.tuples(const, child).map(lambda p: (f"{p[0]}*({p[1][0]})", p[1][1])),
        st.tuples(child, const).map(lambda p: (f"({p[0][0]})/{p[1]}", p[0][1])),
        st.tuples(child, child, st.sampled_from("+-")).map(_eta_sum).filter(bool),
    )


# (text, directions) of a separately monotone eta, built so by construction.
_MONOTONE_ETAS = st.recursive(
    st.sampled_from((("u", (1, 0)), ("v", (0, 1)), ("1", (0, 0)), ("0", (0, 0))))
    | st.sampled_from(_ETA_CONSTS).map(lambda c: (c, (0, 0))),
    _eta_extend,
    max_leaves=6,
)


def _bits(x):
    return None if x is None else struct.pack("<d", x)


@settings(max_examples=400, deadline=None)
@given(
    eta_dirs=_MONOTONE_ETAS,
    fx=st.lists(st.sampled_from(_ETA_SAMPLES) | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12),
    alpha=st.sampled_from((0.3, 0.5, 1.0)),
)
# np.max keeps the last of tied zeros: a +0.0 corner with a -0.0 pair after
# it needs the full matrix, and -u needs the -0.0 sample as its lower end.
@example(eta_dirs=("u + v", (1, 1)), fx=[0.0, -0.0], alpha=1.0)
@example(eta_dirs=("u + v", (1, 1)), fx=[0.0, 0.0, -0.0], alpha=1.0)
@example(eta_dirs=("-(u)", (-1, 0)), fx=[-0.0, 0.0, 0.0], alpha=1.0)
def test_eta_sup_corners_match_full_matrix_bitwise(eta_dirs, fx, alpha):
    """For a separately monotone eta the 2 x 2 corner evaluation gives the
    full pair matrix's max bit for bit, the sign of zero included, and the
    same EvalError when some pair is non-finite."""
    text, dirs = eta_dirs
    eta = EtaSpec.from_text(text)
    ctx = AlphaContext(alpha=alpha)
    assert _monotone_dirs(eta.ast, {}, alpha) == dirs
    fx = np.array(fx)
    with np.errstate(all="ignore"):
        try:
            want = float(np.max(eta.evaluate_many(fx[:, None], fx[None, :], ctx)))
        except EvalError:
            want = None
        try:
            got = estimate_eta_sup(_Samples(fx), eta, ctx, a=0.0, b=1.0)
        except EvalError:
            got = None
    assert _bits(got) == _bits(want)


# ------------------------------------------------------- minimum-point check


def test_minimum_condition_square():
    """x^2 on [0,2], c=1: x* = 0 and no (antecedent, consequent) violation."""
    rep = minimum_condition_check(_f("x^(2a)", 0.0, 2.0), EtaSpec.from_text("u - v"), 1.0, _CTX1)
    assert rep.x_star == 0.0
    assert rep.f_star == 0.0
    assert rep.derivative == 0.0
    assert rep.derivative_mode == "exact"
    assert rep.checked == 200
    assert rep.violations == ()


def test_minimum_condition_shifted():
    rep = minimum_condition_check(_f("x^(2a) + 1", 0.0, 2.0), EtaSpec.from_text("u - v"), 1.0, _CTX1)
    assert rep.f_star == 1.0
    assert rep.violations == ()


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_minimum_condition_fractional_order(c):
    ctx = AlphaContext(alpha=0.5)
    rep = minimum_condition_check(_f("x^(2a)", 0.0, 2.0), EtaSpec.from_text("u - v"), c, ctx)
    assert rep.x_star == 0.0
    assert rep.violations == ()
    assert rep.checked == 200


def test_sampling_checks_reject_tiny_grid():
    f = _f("x^(2a)", 0.0, 1.0)
    eta = EtaSpec.from_text("u - v")
    with pytest.raises(ValueError, match="grid_n"):
        check_eta_necessary(f, eta, _CTX1, grid_n=3)
