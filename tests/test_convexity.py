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

import contextlib
import functools
import json
import math
import re
import struct
import tracemalloc
import warnings

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
    fejer_terms,
    hh_terms,
)
from fracon.expr import _monotone_dirs
from paper_checks import minimum_condition

_CTX1 = AlphaContext(alpha=1.0)


def _f(text: str, **params: float) -> FunctionSpec:
    return FunctionSpec.from_text(text, params=params or None)


@contextlib.contextmanager
def _ufunc_buffer(size):
    """numpy's ufunc buffer at ``size`` elements (None: as it is) in the block."""
    old = np.getbufsize() if size is None else np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


def _cell_buffer(cells):
    """numpy's ufunc buffer at about ``cells`` elements (None: as it is).

    The lattice walk runs at the caller's buffer size, and numpy copies the
    strided f(mixture) view through that buffer, a slab of at most that
    many cells at a time, so a caller's size must change no result.  numpy
    takes multiples of 16 only, so ``cells`` is rounded down to one, and 1
    and 2 cells both give its smallest, 16.
    """
    return _ufunc_buffer(None if cells is None else max(16, cells // 16 * 16))


def _plane_buffer(planes, n):
    """numpy's ufunc buffer at ``planes`` t-planes of a grid-n lattice (None: as it is)."""
    return _cell_buffer(None if planes is None else planes * n * n)


# ------------------------------------------------------------- defect values


def test_defect_hand_value_square():
    """x^2, c=0, eta=u-v at (x,y,t)=(0,1,1/2).

    lhs = f(1/2) = 1/4; rhs = f(1) + (1/2)(f(0) - f(1)) = 1 - 1/2 = 1/2.
    """
    d = defect(_f("x^(2a)"), EtaSpec.from_text("u - v"), 0.0, _CTX1, 0.0, 1.0, 0.5)
    assert d == pytest.approx(0.25, abs=1e-15)


def test_defect_hand_value_concave_strong():
    """-x^2, c=1, eta=u-v at (0,1,1/2): rhs = -3/4, lhs = -1/4, defect -1/2."""
    d = defect(_f("-x^(2a)"), EtaSpec.from_text("u - v"), 1.0, _CTX1, 0.0, 1.0, 0.5)
    assert d == pytest.approx(-0.5, abs=1e-15)


def test_defect_zero_at_t_zero():
    """t=0 picks the y endpoint exactly: lhs = f(y) = rhs."""
    d = defect(_f("x^(2a)"), EtaSpec.from_text("u - v"), 1.0, _CTX1, 0.3, 0.9, 0.0)
    assert d == 0.0


def test_defect_coincident_points():
    """x == y: distance term drops and defect = t^al eta(f(x), f(x))."""
    f = _f("x^(2a)")
    assert defect(f, EtaSpec.from_text("u - v"), 1.0, _CTX1, 0.4, 0.4, 0.7) == 0.0
    ctx = AlphaContext(alpha=0.5)
    eta = EtaSpec.from_text("2^a*u + v")
    (fx,) = f.evaluate_many(np.array([0.4]), ctx).tolist()
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
    f = _f("x^(2a)")
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
    f = _f("x^(2a)")
    fx, fy, fz = f.evaluate_many(np.array([x, y, t * x + (1.0 - t) * y]), ctx).tolist()
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
    f = _f("x^(2a)")
    fx, fy, fz = f.evaluate_many(np.array([x, y, t * x + (1.0 - t) * y]), ctx).tolist()
    e = 2.0**alpha * fx + fy
    expected = (
        fy
        + t**alpha * e
        - c**alpha * t**alpha * (1.0 - t) ** alpha * abs(x - y) ** (2.0 * alpha)
        - fz
    )
    got = defect(f, EtaSpec.from_text("2^a*u + v"), c, ctx, x, y, t)
    assert got == pytest.approx(expected, abs=1e-12 * (1.0 + abs(expected)))


@settings(max_examples=100, deadline=None)
@given(
    text=st.sampled_from(("x^(2a)", "-x^(2a)", "abs(x - 0.3)^(a)", "x^(3a)")),
    eta_text=st.sampled_from(("u - v", "2^a*u + v")),
    alpha=st.sampled_from((0.3, 0.5, 0.9, 1.0)),
    x=st.floats(-1.0, 1.0),
    y=st.floats(-1.0, 1.0),
    t=st.floats(0.0, 1.0),
    c=st.sampled_from((0.0, 0.5, 1.0, 2.0)),
)
def test_defect_is_the_one_cell_box_bitwise(text, eta_text, alpha, x, y, t, c):
    """A witness is re-evaluated in its refinement box's arithmetic: the
    defect at (x, y, t) is, bit for bit, the minimum of the box ([x], [y], [t])."""
    f, eta, ctx = _f(text), EtaSpec.from_text(eta_text), AlphaContext(alpha=alpha)
    one = np.array([x]), np.array([y]), np.array([t])
    _, low, _ = convexity._box_min(f, eta, c, ctx, *one)
    assert defect(f, eta, c, ctx, x, y, t).hex() == low.hex()


# ------------------------------------------------------------- certification


def test_certify_square_is_clean():
    rep = certify_gsc(_f("x^(2a)"), EtaSpec.from_text("u - v"), 0.0, -1.0, 1.0, _CTX1,
                      grid_n=20, refine_depth=2)
    assert rep.status == "NoViolationFound"
    assert rep.witness is None
    assert rep.min_defect >= -1e-9
    assert rep.grid.interval == (-1.0, 1.0)
    assert rep.evaluations > 20**3


def test_certify_concave_finds_witness():
    """-x^2 with c=1 violates; the canonical witness is (0, 1, 1/2)."""
    f = _f("-x^(2a)")
    eta = EtaSpec.from_text("u - v")
    rep = certify_gsc(f, eta, 1.0, 0.0, 1.0, _CTX1, grid_n=20, refine_depth=2)
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
    f = _f("x^(2a) + c^(a)*x^(2a)", c=1.0)
    rep = certify_gsc(f, EtaSpec.from_text("2^a*u + v"), 1.0, 0.0, 2.0, ctx, grid_n=24, refine_depth=2)
    assert rep.status == "NoViolationFound"
    assert rep.min_defect >= -1e-9


def test_certify_pointwise_dominating_eta_stays_clean():
    """If eta2 >= eta pointwise, membership w.r.t. eta implies it w.r.t. eta2."""
    rep = certify_gsc(_f("x^(2a)"), EtaSpec.from_text("u - v + 1"), 0.0, -1.0, 1.0, _CTX1,
                      grid_n=16, refine_depth=2)
    assert rep.status == "NoViolationFound"
    assert rep.min_defect >= -1e-9


def test_certify_deterministic():
    f = _f("x^(2a)")
    eta = EtaSpec.from_text("u - v")
    r1 = certify_gsc(f, eta, 0.5, 0.0, 1.0, _CTX1, grid_n=16, refine_depth=2)
    r2 = certify_gsc(f, eta, 0.5, 0.0, 1.0, _CTX1, grid_n=16, refine_depth=2)
    assert r1 == r2
    assert cli._json_text(r1, "\n") == cli._json_text(r2, "\n")


def test_certify_report_dict_shape():
    rep = certify_gsc(_f("x^(2a)"), EtaSpec.from_text("u - v"), 0.0, 0.0, 1.0, _CTX1,
                      grid_n=16, refine_depth=1)
    d = json.loads(cli._json_text(rep, "\n"))
    assert set(d) == {"status", "witness", "min_defect", "tol_violation", "max_abs_f",
                      "grid", "evaluations", "necessary"}
    assert d["grid"] == {"grid_n": 16, "refine_depth": 1, "interval": [0.0, 1.0]}
    assert d["witness"] is None


@pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
def test_certify_non_finite_defect_raises(rows):
    """On [-1e200, 1e200] |x - y|^(2a) overflows: no report, an EvalError
    naming the first NaN cell, whatever ufunc buffer the caller set (here
    1 or 3 t-planes, or numpy's default)."""
    f = FunctionSpec.from_text("1")
    eta = EtaSpec.from_text("u - v")
    with _plane_buffer(rows, 8), pytest.raises(EvalError) as info:
        certify_gsc(f, eta, 1.0, -1e200, 1e200, _CTX1, grid_n=8, refine_depth=0)
    # The first cell of the lattice: x = a, y = a + (b - a) / 7, t = 0.
    assert str(info.value) == ("non-finite defect nan at x=-1e+200, "
                               f"y={-1e200 + 2e200 / 7!r}, t=0.0")


@pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
def test_certify_zero_strong_term_keeps_nan_defect(rows):
    """With c = 0 the strong term is zero, but 0 * inf is still NaN: on
    [-1e200, 1e200] the overflowing |x - y|^(2a) raises as it does at c = 1,
    whatever ufunc buffer the caller set."""
    f = FunctionSpec.from_text("1")
    with _plane_buffer(rows, 8), pytest.raises(EvalError) as info:
        certify_gsc(f, EtaSpec.from_text("u - v"), 0.0, -1e200, 1e200, _CTX1, grid_n=8, refine_depth=0)
    assert str(info.value) == ("non-finite defect nan at x=-1e+200, "
                               f"y={-1e200 + 2e200 / 7!r}, t=0.0")


def test_zero_strong_term_keeps_nan_coordinates():
    """On [-1e308, 1e308] the span overflows (with linspace's warnings), so
    the lattice axes hold NaN; a constant f is finite there, and the NaN
    distances keep the c = 0 strong term, whose NaN the defect carries."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            EvalError, match="^non-finite defect nan at x=nan, y=nan, t=0.0$"):
        certify_gsc(_f("1"), EtaSpec.from_text("u - v"), 0.0, -1e308, 1e308, _CTX1,
                    grid_n=8, refine_depth=0)


@pytest.mark.parametrize("x_below_y", [True, False])
def test_zero_strong_term_box_keeps_nan_defect(x_below_y):
    """A c = 0 refinement box skips its +0.0 strong term only while every
    |x - y|^(2a) is finite.  Here the x and y sides meet at 0 and reach
    out to -1e200 and 1e200, so one corner distance is 0 and the other
    overflows, whichever side is below: 0 * inf is NaN, and the box raises
    as the lattice does."""
    low, high = np.linspace(-1e200, 0.0, 13), np.linspace(0.0, 1e200, 13)
    xs, ys = (low, high) if x_below_y else (high, low)
    ts = np.linspace(0.25, 0.75, 13)
    with pytest.raises(EvalError) as info:
        convexity._box_min(_f("x"), EtaSpec.from_text("u - v"), 0.0, _CTX1, xs, ys, ts)
    assert str(info.value) == (f"non-finite defect nan at x={float(xs[0])!r}, "
                               f"y={float(ys[0])!r}, t=0.25")


@pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
def test_certify_overflowing_mixture_raises(rows):
    """(x - 0.5)^(-200) is at most 14^200 on the grid-8 points of [0, 1], but
    the mixture 24/49 (x = 0, y = 4/7, t = 1/7) lies 1/98 from 0.5, and
    98^200 overflows, whatever ufunc buffer the caller set."""
    f = _f("(x - 0.5)^(-200)")
    assert np.isfinite(f.evaluate_many(np.linspace(0.0, 1.0, 8), _CTX1)).all()
    with _plane_buffer(rows, 8), pytest.raises(EvalError, match="^non-finite value in evaluation$"):
        certify_gsc(f, EtaSpec.from_text("u - v"), 0.0, 0.0, 1.0, _CTX1, grid_n=8, refine_depth=0)


def test_certify_rejects_refine_past_cap():
    """3**(level - 1) stops converting to float at level 648; the cap comes first.
    At alpha 0.5 the minimizer sits at x = 0, where the box never collapses,
    so all 40 levels run."""
    f, eta = _f("x^(2a)"), EtaSpec.from_text("u - v")
    for depth in (convexity._MAX_REFINE + 1, 648):
        with pytest.raises(ValueError,
                           match=f"refine_depth must be <= {convexity._MAX_REFINE}, got {depth}"):
            certify_gsc(f, eta, 0.0, 0.0, 1.0, _CTX1, grid_n=8, refine_depth=depth)
    rep = certify_gsc(f, eta, 0.0, 0.0, 1.0, AlphaContext(alpha=0.5), grid_n=8,
                      refine_depth=convexity._MAX_REFINE)
    assert rep.evaluations == 8**3 + convexity._MAX_REFINE * 13**3


def test_certify_rejects_tiny_grid():
    with pytest.raises(ValueError, match="grid_n"):
        certify_gsc(_f("x^(2a)"), EtaSpec.from_text("u - v"), 0.0, 0.0, 1.0, _CTX1, grid_n=7)


def test_certify_rejects_grid_over_cap_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("certify_gsc sampled a rejected grid_n")

    monkeypatch.setattr(convexity, "_lattice_min", no_sampling)
    monkeypatch.setattr(convexity, "check_eta_necessary", no_sampling)
    cap = convexity._MAX_GRID
    with pytest.raises(ValueError, match=f"grid_n must be <= {cap}, got {cap + 1}"):
        certify_gsc(_f("x^(2a)"), EtaSpec.from_text("u - v"), 0.0, 0.0, 1.0, _CTX1,
                    grid_n=cap + 1)


_INTERVAL_CALLS = {
    "certify_gsc": lambda f, eta, w, a, b: certify_gsc(f, eta, 0.0, a, b, _CTX1, grid_n=8),
    "check_eta_necessary": lambda f, eta, w, a, b: check_eta_necessary(f, eta, a, b, _CTX1),
    "estimate_eta_sup": lambda f, eta, w, a, b: estimate_eta_sup(f, eta, a, b, _CTX1),
    "check_symmetry": lambda f, eta, w, a, b: check_symmetry(w, a, b, _CTX1),
    "hh_terms": lambda f, eta, w, a, b: hh_terms(f, eta, 0.0, a, b, _CTX1),
    "fejer_terms": lambda f, eta, w, a, b: fejer_terms(f, eta, 0.0, w, a, b, _CTX1),
}


@pytest.mark.parametrize(("a", "b"), [(1.0, 0.0), (0.5, 0.5), (math.nan, 1.0), (0.0, math.nan)],
                         ids=["a>b", "a==b", "nan-a", "nan-b"])
@pytest.mark.parametrize("name", list(_INTERVAL_CALLS))
def test_interval_functions_share_one_interval_check(name, a, b):
    """Every function that samples or integrates over [a, b] refuses an
    empty, reversed or NaN interval with the same message."""
    call = _INTERVAL_CALLS[name]
    want = f"^{re.escape(f'need a < b, got [{a!r}, {b!r}]')}$"
    with pytest.raises(ValueError, match=want):
        call(_f("x^(2a)"), EtaSpec.from_text("u - v"), WeightSpec.from_text("1"), a, b)


# ------------------------------------------------------------ lattice kernels
#
# The main lattice reads f from the table of its (grid - 1)**2 + 1 evenly
# spaced mixtures and is walked one t-plane at a time, at the caller's
# ufunc buffer size; a refinement box is evaluated whole, at float mixtures.


_LATTICE_CASES = [
    ("x^(2a)", "u - v", 1.0, 1.0, "NoViolationFound"),
    ("-x^(2a)", "u - v", 1.0, 0.5, "Violated"),
    ("x^(4a)", "u - v", 1.0, 0.5, "Violated"),
    ("x^(4a)", "2^a*u + v", 0.0, 0.3, "NoViolationFound"),  # minimum 0, tied
    ("abs(x - 0.3)^(a)", "u - v", 0.0, 1.0, "NoViolationFound"),
    ("abs(x - 0.3)^(a)", "u - v", 1.0, 0.3, "Violated"),
]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize(("text", "eta", "c", "alpha", "status"), _LATTICE_CASES,
                         ids=["square", "negsquare", "x4a", "x4a-tied", "kink", "kink-strong"])
def test_certify_report_independent_of_slab_size(text, eta, c, alpha, status, rows):
    """The slab numpy copies a strided operand through at a time is its ufunc
    buffer; a buffer of 1 or 3 t-planes, set by the caller, changes nothing."""
    f = _f(text)
    eta = EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    default = certify_gsc(f, eta, c, 0.0, 1.0, ctx, grid_n=20, refine_depth=3)
    assert default.status == status
    with _plane_buffer(rows, 20):
        assert certify_gsc(f, eta, c, 0.0, 1.0, ctx, grid_n=20, refine_depth=3) == default


@pytest.mark.parametrize(("eta", "status"), [("-1e-9", "NoViolationFound"), ("-4e-9", "Violated")])
def test_certify_violation_threshold_is_1e_9_of_the_f_scale(eta, status):
    """f = 1, c = 0: the defect is eta t^al, least at t = 1, where it is eta
    itself.  The threshold is 1e-9 (1 + max |f|) = 2e-9, so a minimum of
    -0.5 of it is no violation and one of -2 of it is."""
    rep = certify_gsc(_f("1"), EtaSpec.from_text(eta), 0.0, 0.0, 1.0, AlphaContext(alpha=0.5),
                      grid_n=16)
    assert rep.tol_violation == 2e-9
    assert rep.min_defect == pytest.approx(float(eta), rel=1e-6)
    assert rep.status == status


@pytest.mark.parametrize("buffer_cells", [1, 5 * 17 * 17, 1 << 16])
def test_certify_tie_keeps_first_lattice_index(buffer_cells):
    """f = 1, eta = -1, c = 0: the defect is -t^al, so every (x, y) ties at
    t = 1 and the witness is the first of them, x = y = a, with a ufunc
    buffer of 16 cells, about 5 planes or the whole lattice."""
    with _cell_buffer(buffer_cells):
        rep = certify_gsc(_f("1"), EtaSpec.from_text("-1"), 0.0, 0.2, 1.3,
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
    """The whole-tensor evaluation that the main lattice's plane walk replaces."""
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
@pytest.mark.parametrize(("text", "eta", "c", "alpha", "status"), _LATTICE_CASES,
                         ids=["square", "negsquare", "x4a", "x4a-tied", "kink", "kink-strong"])
def test_lattice_min_matches_whole_tensor(text, eta, c, alpha, status, box, rows):
    """Both kernels return exactly the whole-tensor index, minimum and max
    |f|, with a ufunc buffer of 1 or 3 t-planes or numpy's default: the
    main lattice, and an off-centre refinement box clipped at x = 0 (so xs
    differs from ys)."""
    f = _f(text)
    eta = EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    xs = ts = np.linspace(0.0, 1.0, 20)
    if box:
        w = 1.0 / 19
        xs = np.linspace(max(0.0, 0.02 - w), min(1.0, 0.02 + w), 13)
        ys = np.linspace(max(0.0, 0.61 - w), min(1.0, 0.61 + w), 13)
        ts = np.linspace(max(0.0, 0.97 - w), min(1.0, 0.97 + w), 13)
        with _plane_buffer(rows, 20):
            got = convexity._box_min(f, eta, c, ctx, xs, ys, ts)
        assert got == _box_reference(f, eta, c, ctx, xs, ys, ts)
    else:
        with _plane_buffer(rows, 20):
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
    buffer_cells=st.integers(1, 3 * 30 * 30),
)
# The minimum -96/49 sits at the mirror cells (7, 0, 3) and (0, 7, 4); the
# first in (x, y, t) order is in the later plane.
@example(n=8, text="x", eta="u - v", alpha=1.0, c=2.0, interval=(-1.0, 1.0), buffer_cells=16)
def test_lattice_min_matches_table_reference(n, text, eta, alpha, c, interval, buffer_cells):
    """On random grids and intervals (a < 0 < b among them) the main-lattice
    kernel returns the whole-tensor index, minimum and max |f| over the same
    mixture table bit for bit, whatever ufunc buffer the caller set."""
    f, eta = _f(text), EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    xs, ts = np.linspace(*interval, n), np.linspace(0.0, 1.0, n)
    with _cell_buffer(buffer_cells):
        got = convexity._lattice_min(f, eta, c, ctx, xs, ts)
    want = _table_reference(f, eta, c, ctx, xs, ts)
    assert got[0] == want[0]
    assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex())


_BUFFERS = pytest.mark.parametrize("bufsize", [None, 16, 2**16],
                                   ids=["default", "buf16", "buf65536"])


def _kink_lattice(n):
    f, eta = _f("abs(x - 0.3)^(a)"), EtaSpec.from_text("2^a*u + v")
    return f, eta, AlphaContext(alpha=0.5), np.linspace(-0.7, 1.3, n), np.linspace(0.0, 1.0, n)


@functools.lru_cache(maxsize=None)
def _kink_reference(n, c):
    f, eta, ctx, xs, ts = _kink_lattice(n)
    return _table_reference(f, eta, c, ctx, xs, ts)


@_BUFFERS
@pytest.mark.parametrize("c", [0.0, 2.0], ids=["no-strong", "strong"])
def test_lattice_min_matches_whole_tensor_at_every_grid_and_buffer(bufsize, c):
    """Grids 8 to 100 hold t-planes shorter than numpy's ufunc buffer (up
    to grid 90 at its default 8,192 cells, every grid at 65,536) and planes
    that fill it (grids 91 on by default, every grid at 16).  The strided
    f(mixture) view goes through that buffer whole or in runs; either way
    the kernel returns the whole-tensor index, minimum and max |f| bit for
    bit, and leaves the caller's buffer size as it found it."""
    for n in range(8, 101):
        f, eta, ctx, xs, ts = _kink_lattice(n)
        with _ufunc_buffer(bufsize):
            size = np.getbufsize()
            got = convexity._lattice_min(f, eta, c, ctx, xs, ts)
            assert np.getbufsize() == size
        want = _kink_reference(n, c)
        assert got[0] == want[0], n
        assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex()), n


@_BUFFERS
@pytest.mark.parametrize(("text", "grid"), [("x^(2a)", 24), ("x^(2a)", 150), ("-1.5e308*x", 8)],
                         ids=["grid24", "grid150", "raising"])
def test_certify_leaves_numpy_buffer_and_error_state_alone(bufsize, text, grid):
    """Certification never changes numpy's buffer size or error state: both
    are as the caller set them afterwards, also when it raises (here the
    -inf defect of -1.5e308*x)."""
    f, eta = _f(text), EtaSpec.from_text("u")
    ctx = AlphaContext(alpha=0.5)
    with _ufunc_buffer(bufsize), np.errstate(under="raise"):
        before = np.getbufsize(), np.geterr()
        if text.startswith("-"):
            with pytest.raises(EvalError, match="^non-finite defect -inf"):
                certify_gsc(f, eta, 0.0, 0.0, 1.0, ctx, grid_n=grid, refine_depth=0)
        else:
            certify_gsc(f, eta, 1.0, 0.0, 1.0, ctx, grid_n=grid, refine_depth=2)
        assert (np.getbufsize(), np.geterr()) == before


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

    f, eta = _f(text), EtaSpec.from_text("u - v + 1e6")
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
    f, eta = _f("1 - abs(x - 0.3)^(a)"), EtaSpec.from_text("u - v")
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
    f, eta = _f("1.5e308"), EtaSpec.from_text("u")
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
    got = convexity._box_min(_f("1.5e308*x"), EtaSpec.from_text("u"), 0.0, _CTX1,
                             np.array(xs), np.array([1.0]), np.array([1.0]))
    assert got == (want, 1.5e308, 1.5e308)


@pytest.mark.parametrize("buffer_cells", (1, 2, None), ids=["cells1", "cells2", "default"])
@pytest.mark.parametrize(("xs", "want"), (([0.5, 1.0], ((0, 0, 0), 0.0, 1.5e308)),
                                          ([0.9, 1.0], ((0, 0, 0), 0.0, 1.5e308))))
def test_lattice_min_inf_cells_do_not_depend_on_slab_size(buffer_cells, xs, want):
    """f = 1.5e308*x, eta = u, c = 0 on [a, 1] at grid 8: the right side
    f(y) + t*f(x) overflows to +inf near x = y = t = 1, and on [0.9, 1]
    every plane from t = 3/7 on is +inf throughout.  A +inf cell is no
    violation, so with a 16-cell ufunc buffer or numpy's default the
    minimum is the t = 0 plane's exact 0 at the first cell."""
    f, eta = _f("1.5e308*x"), EtaSpec.from_text("u")
    lattice, ts = np.linspace(*xs, 8), np.linspace(0.0, 1.0, 8)
    assert np.isposinf(_table_defects(f, eta, 0.0, _CTX1, lattice, ts)[0]).any()
    with _cell_buffer(buffer_cells):
        assert convexity._lattice_min(f, eta, 0.0, _CTX1, lattice, ts) == want


@pytest.mark.parametrize("buffer_cells", (1, 2, None), ids=["cells1", "cells2", "default"])
def test_lattice_min_minus_inf_defect_raises(buffer_cells):
    """f = -1.5e308*x, eta = u, c = 0 on [0, 1] at grid 8: f(y) + t*f(x)
    overflows to -inf first, in (x, y, t) order, at x = 2/7, y = 1,
    t = 5/7 (1 + 10/49 times -1.5e308); at x = 1/7 even y = t = 1 stays
    finite.  That cell is named whatever ufunc buffer the caller set, though
    later planes reach -inf at smaller (x, y)."""
    xs, ts = np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 8)
    want = f"non-finite defect -inf at x={float(xs[2])!r}, y=1.0, t={float(ts[5])!r}"
    with _cell_buffer(buffer_cells), pytest.raises(EvalError, match=f"^{re.escape(want)}$"):
        convexity._lattice_min(_f("-1.5e308*x"), EtaSpec.from_text("u"), 0.0, _CTX1,
                               xs, ts)


def test_box_min_minus_inf_defect_raises():
    """f = -1.5e308*x, eta = u at y = t = 1: the x = 1 cell is -inf, which
    raises after a finite x = 0 cell."""
    with pytest.raises(EvalError, match=r"^non-finite defect -inf at x=1\.0, y=1\.0, t=1\.0$"):
        convexity._box_min(_f("-1.5e308*x"), EtaSpec.from_text("u"), 0.0, _CTX1,
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
    rep = certify_gsc(_f(text), EtaSpec.from_text("u - v"), 0.0, 0.0, 1.0,
                      AlphaContext(alpha=alpha), grid_n=grid, refine_depth=40)
    runs, min_defect, max_abs_f, witness = _COLLAPSED[text, alpha]
    assert (rep.min_defect.hex(), rep.max_abs_f.hex()) == (min_defect, max_abs_f)
    w = rep.witness
    assert (None if w is None else
            [v.hex() for v in (w.x, w.y, w.t, w.lhs, w.rhs, w.defect)]) == witness
    assert len(calls) == runs < 41
    assert rep.evaluations == grid**3 + (runs - 1) * 13**3
    assert rep.grid.refine_depth == 40


@pytest.mark.parametrize("c", [0.0, 1.0])
@pytest.mark.parametrize(("text", "eta", "status", "boxes"), [
    ("abs(x - 0.3)^(a)", "u - v", "Violated", 3),
    ("abs(x - 0.3)^(a)", "2^a*u + v", "NoViolationFound", 3),
    ("-x^(2a)", "2^a*u + v", "Violated", 0),  # a failed necessary condition
])
def test_every_defect_comes_from_one_kernel(monkeypatch, text, eta, status, boxes, c):
    """certify computes each defect in ``_defect_into``: one call per t-plane
    of the lattice, one per refinement box that ran (on the whole box), and
    one for the witness of a violation, on a single cell."""
    shapes = []

    def spy(d, *args, _kernel=convexity._defect_into):
        shapes.append(d.shape)
        return _kernel(d, *args)

    monkeypatch.setattr(convexity, "_defect_into", spy)
    rep = certify_gsc(_f(text), EtaSpec.from_text(eta), c, 0.0, 1.0,
                      AlphaContext(alpha=0.5), grid_n=12, refine_depth=3)
    assert rep.status == status
    assert rep.evaluations == 12**3 + boxes * 13**3
    witness = [(1, 1)] if status == "Violated" else []
    assert shapes == [(12, 12)] * 12 + [(13, 13, 13)] * boxes + witness


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
    zeros of both signs among them.  The box kernel, on unsorted xs, ys
    and ts here (its corner check needs ascending sides only where some
    |x - y| can overflow, and none can on [-1, 1]), returns the whole
    tensor's index, minimum and max |f| bit for bit."""
    f, eta = _f(text), EtaSpec.from_text(eta)
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
    f, eta = _f(text), EtaSpec.from_text(eta)
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
    f = _f("x^(2a)")
    eta = EtaSpec.from_text("u - v")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        certify_gsc(f, eta, 1.0, 0.0, 1.0, AlphaContext(alpha=0.5), grid_n=grid_n, refine_depth=3)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_certify_memory_is_bounded():
    """At grid 120 a whole-lattice tensor would peak near 53 MiB."""
    assert _certify_peak(120) < 8 * 2**20


def test_certify_memory_grows_with_grid_squared_past_one_plane_per_slab():
    """The lattice is walked one t-plane at a time, so at grid 300 the
    working set is a few grid**2 arrays (720 KB each): the table of f, eta,
    the distances and the two planes.  A whole-lattice tensor would take
    216 MB."""
    assert _certify_peak(300) < 8 * 2**20


def test_certify_working_set_is_six_grid_squared_arrays():
    """The mixtures are dropped once f's table is built, and max |f| is taken
    before the planes exist, so the plane loop runs with six grid**2 arrays
    live: the table, eta, the distances, the f(y) tile and the defect and
    scratch planes.  Keeping the mixtures, or taking |f| while the planes
    exist, adds a seventh."""
    assert _certify_peak(300) < 6.5 * 8 * 300**2


# ---------------------------------------------------- necessary-sign checks


def test_necessary_passes_for_difference():
    rep = check_eta_necessary(_f("x^(2a)"), EtaSpec.from_text("u - v"), 0.0, 1.0, _CTX1)
    assert rep.diag_ok and rep.upper_ok
    assert rep.diag_witness is None and rep.upper_witness is None


def test_necessary_fails_for_negative_constant():
    """eta = -1 breaks eta(w, w) >= 0 on the diagonal."""
    rep = check_eta_necessary(_f("x^(2a)"), EtaSpec.from_text("-1"), 0.0, 1.0, _CTX1)
    assert not rep.diag_ok
    assert rep.diag_min == -1.0
    assert rep.diag_witness is not None
    assert not rep.upper_ok


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_necessary_passes_for_additive_eta_on_nonnegative_f(alpha):
    """eta(u,v) = 2^al u + v dominates u - v whenever f >= 0."""
    ctx = AlphaContext(alpha=alpha)
    rep = check_eta_necessary(_f("x^(2a)"), EtaSpec.from_text("2^a*u + v"), 0.0, 1.0, ctx)
    assert rep.diag_ok and rep.upper_ok


# ----------------------------------------------------------- symmetry checks


_SYMMETRY_XS = np.linspace(0.0, 1.0, 1001)  # check_symmetry's samples of [0, 1]


def _asymmetries(w, ctx):
    """|w(x) - w(1 - x)| on check_symmetry's samples of [0, 1]."""
    return np.abs(w.evaluate_many(_SYMMETRY_XS, ctx) - w.evaluate_many(1.0 - _SYMMETRY_XS, ctx))


def test_symmetry_constant_weight():
    w = WeightSpec.from_text("1")
    assert check_symmetry(w, 0.0, 1.0, _CTX1) is None
    assert np.max(_asymmetries(w, _CTX1)) == 0.0


def test_symmetry_parabolic_weight():
    ctx = AlphaContext(alpha=0.5)
    w = WeightSpec.from_text("(x - lo)^(a)*(hi - x)^(a)", params={"lo": 0.0, "hi": 1.0})
    assert check_symmetry(w, 0.0, 1.0, ctx) is None
    assert np.max(_asymmetries(w, ctx)) <= 1e-12


def test_symmetry_detects_skew():
    """w(x) = x on [0,1]: w(0) = 0 vs w(1) = 1 gives asymmetry 1 at x=0."""
    w = WeightSpec.from_text("x^(a)")
    asym = _asymmetries(w, _CTX1)
    assert np.max(asym) == pytest.approx(1.0, abs=1e-12)
    assert _SYMMETRY_XS[np.argmax(asym)] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SymmetryError, match=re.escape(
            "weight is not symmetric about the midpoint: max asymmetry 1.000e+00 "
            "at x=0.0 (tol 2.000e-10)")):
        check_symmetry(w, 0.0, 1.0, _CTX1)


def test_symmetry_detects_negative_weight():
    """w = -1 is symmetric, so the negativity check is the one that fails."""
    w = WeightSpec.from_text("-1")
    assert np.min(w.evaluate_many(_SYMMETRY_XS, _CTX1)) == -1.0
    with pytest.raises(SymmetryError,
                       match=re.escape("weight takes negative values: min -1.000e+00 at x=0.0")):
        check_symmetry(w, 0.0, 1.0, _CTX1)


@contextlib.contextmanager
def _counting_samples():
    """Counts the calls of FunctionSpec.evaluate_many (a WeightSpec's too)."""
    calls = []
    original = FunctionSpec.evaluate_many

    def counting(self, xs, ctx):
        calls.append(self.text)
        return original(self, xs, ctx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FunctionSpec, "evaluate_many", counting)
        yield calls


def _monomial(k: int, j: int) -> str:
    factors = [f"(x - lo)^({k}a)"] * (k > 0) + [f"(hi - x)^({j}a)"] * (j > 0)
    return "*".join(factors) or "1"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(terms=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                                st.floats(0.0, 1e3, allow_subnormal=False)),
                      min_size=1, max_size=4),
       alpha=st.sampled_from([0.3, 0.5, 0.9, 1.0]))
def test_symmetric_nonnegative_form_is_not_sampled(terms, alpha):
    """A weight sum c (x-lo)**(k a) (hi-x)**(j a), each term written with
    its mirror image, has a normal form with c(k, j) == c(j, k) >= 0: the
    check returns without sampling w, and w's samples are within the
    sampled check's tolerances of symmetric and nonnegative."""
    text = " + ".join(f"{c!r}*{_monomial(k, j)} + {c!r}*{_monomial(j, k)}"
                      for k, j, c in terms)
    ctx = AlphaContext(alpha=alpha)
    w = WeightSpec.from_text(text, params={"lo": 0.0, "hi": 1.0})
    with _counting_samples() as calls:
        assert check_symmetry(w, 0.0, 1.0, ctx) is None
    assert calls == []
    wx = w.evaluate_many(_SYMMETRY_XS, ctx)
    scale = 1.0 + float(np.abs(wx).max())
    assert float(np.max(_asymmetries(w, ctx))) <= 1e-10 * scale
    assert float(wx.min()) >= -1e-12 * scale


# Outcomes frozen from the sampled check before weights with a form could
# skip it: weights with no form, with a form that is not symmetric
# term by term, with a negative and with a non-finite coefficient are
# still sampled, with the same result.
_SAMPLED_WEIGHTS = [
    ("abs(x - 0.3)", 0.5, SymmetryError, "weight is not symmetric about the midpoint: "
     "max asymmetry 4.000e-01 at x=-0.991 (tol 2.700e-10)"),
    ("abs(x - lo)^(a)*abs(hi - x)^(a)", 0.5, None, None),
    ("(x - lo)^(a)*(hi - x)^(2a)", 1.0, SymmetryError, "weight is not symmetric about the "
     "midpoint: max asymmetry 2.598e+00 at x=-0.367 (tol 5.000e-10)"),
    ("((x - lo)*(hi - x))^(2)", 1.0, None, None),
    ("-1", 0.5, SymmetryError, "weight takes negative values: min -1.000e+00 at x=-1.0"),
    ("2 - (x - lo)^(a)*(hi - x)^(a)", 0.5, None, None),
    ("2 - (x - lo)^(a)*(hi - x)^(a)", 1.0, SymmetryError,
     "weight takes negative values: min -2.500e-01 at x=0.5"),
    ("1e300*(x - lo)^(a)*(hi - x)^(a)*1e300", 0.5, EvalError,
     "non-finite value in evaluation"),
]


@pytest.mark.parametrize(("text", "alpha", "error", "message"), _SAMPLED_WEIGHTS,
                         ids=["no-form", "no-form-symmetric", "asymmetric-form",
                              "expanded-form", "negative", "negative-term",
                              "negative-term-fails", "non-finite"])
def test_weights_without_a_symmetric_form_are_sampled(text, alpha, error, message):
    """On [-1, 2]: each of these samples w once, and raises what the
    sampled check raised, word for word."""
    w = WeightSpec.from_text(text, params={"lo": -1.0, "hi": 2.0})
    ctx = AlphaContext(alpha=alpha)
    with _counting_samples() as calls, np.errstate(over="ignore"):
        if error is None:
            assert check_symmetry(w, -1.0, 2.0, ctx) is None
        else:
            with pytest.raises(error) as info:
                check_symmetry(w, -1.0, 2.0, ctx)
            assert type(info.value) is error and str(info.value) == message
    assert calls == [text]


def test_near_root_weight_has_no_form_and_is_sampled():
    """x - 1e-15 is not 0 at x = 0, so (x - 1e-15)**a (1 - x)**a has no
    two-endpoint form on [0, 1], and its asymmetry near 0 is sampled."""
    w = WeightSpec.from_text("(x - 1e-15)^(a)*(1 - x)^(a)")
    ctx = AlphaContext(alpha=0.3)
    with _counting_samples() as calls:
        with pytest.raises(SymmetryError) as info:
            check_symmetry(w, 0.0, 1.0, ctx)
    assert str(info.value) == ("weight is not symmetric about the midpoint: max asymmetry "
                               "3.162e-05 at x=0.0 (tol 1.660e-10)")
    assert calls == [w.text]


# ----------------------------------------------------------- eta sup estimate


def test_eta_sup_examples():
    fsq = _f("x^(2a)")

    def sup(eta):
        return estimate_eta_sup(fsq, EtaSpec.from_text(eta), 0.0, 1.0, _CTX1)

    assert sup("u - v") == pytest.approx(1.0, abs=1e-12)
    assert sup("0") == 0.0
    assert sup("3") == 3.0
    # The estimate is a signed max, not a max of absolute values.
    assert sup("-1") == -1.0


def test_eta_sup_interval_override():
    fsq = _f("x^(2a)")
    got = estimate_eta_sup(fsq, EtaSpec.from_text("u - v"), 0.0, 2.0, _CTX1)
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
            got = estimate_eta_sup(_Samples(fx), eta, 0.0, 1.0, ctx)
        except EvalError:
            got = None
    assert _bits(got) == _bits(want)


# ------------------------------------------------------- minimum-point check


def test_minimum_condition_square():
    """x^2 on [0,2], c=1: x* = 0 and no (antecedent, consequent) violation."""
    rep = minimum_condition(_f("x^(2a)"), EtaSpec.from_text("u - v"), 1.0, 0.0, 2.0, _CTX1)
    assert rep["x_star"] == 0.0
    assert rep["f_star"] == 0.0
    assert rep["derivative"] == 0.0
    assert rep["derivative_mode"] == "exact"
    assert rep["checked"] == 200
    assert rep["violations"] == ()


def test_minimum_condition_shifted():
    rep = minimum_condition(_f("x^(2a) + 1"), EtaSpec.from_text("u - v"), 1.0, 0.0, 2.0, _CTX1)
    assert rep["f_star"] == 1.0
    assert rep["violations"] == ()


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_minimum_condition_fractional_order(c):
    ctx = AlphaContext(alpha=0.5)
    rep = minimum_condition(_f("x^(2a)"), EtaSpec.from_text("u - v"), c, 0.0, 2.0, ctx)
    assert rep["x_star"] == 0.0
    assert rep["violations"] == ()
    assert rep["checked"] == 200


def test_sampling_checks_reject_tiny_grid():
    f = _f("x^(2a)")
    eta = EtaSpec.from_text("u - v")
    with pytest.raises(ValueError, match="grid_n"):
        check_eta_necessary(f, eta, 0.0, 1.0, _CTX1, grid_n=3)


def test_eta_necessary_rejects_a_grid_over_the_cap_before_sampling():
    """grid_n above certify_gsc's cap is refused with certify_gsc's error,
    before f is read: a reversed interval would raise about that first."""
    f = FunctionSpec.from_text("x^(2a)")
    eta = EtaSpec.from_text("u - v")
    with pytest.raises(ValueError, match=r"^grid_n must be <= 1000, got 1001$"):
        check_eta_necessary(f, eta, 1.0, 0.0, _CTX1, grid_n=1001)
    with pytest.raises(ValueError, match=r"^grid_n must be <= 1000, got 1001$"):
        certify_gsc(_f("x^(2a)"), eta, 0.0, 0.0, 1.0, _CTX1, grid_n=1001)
    assert check_eta_necessary(_f("x^(2a)"), eta, 0.0, 1.0, _CTX1, grid_n=1000).ok


# ------------------------------------------------------------- sampling grids


def _linspace_runs(lo, hi, n):
    """(dtype, shape, bytes, warnings) of np.linspace and of convexity._linspace."""
    runs = []
    for space in (np.linspace, convexity._linspace):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            y = space(lo, hi, n)
        runs.append((y.dtype, y.shape, y.tobytes(), [(w.category, str(w.message)) for w in caught]))
    return runs


_TINY = 5e-324
_ENDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, _TINY, -_TINY, 3 * _TINY, 1e-310, 2.2250738585072014e-308,
     1.0, -1e200, 1e200, -1e308, 1e308, -1.7976931348623157e308])
# 13 is a refinement box's side; 24, 50 and 150 grids' mixture tables hold
# (n - 1)**2 + 1 points, and grid 1000's 998,002.
_SIZES = st.sampled_from([2, 13, 24, 200, 512, 1001, 23**2 + 1, 49**2 + 1, 149**2 + 1, 999**2 + 1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lo=_ENDS, hi=_ENDS, n=_SIZES)
@example(lo=-0.0, hi=0.0, n=13)
@example(lo=0.0, hi=-0.0, n=2)
@example(lo=-0.0, hi=-0.0, n=24)
@example(lo=0.3, hi=0.3, n=13)  # lo == hi: a collapsed box side
@example(lo=0.0, hi=_TINY, n=1001)  # the step underflows to 0
@example(lo=-_TINY, hi=3 * _TINY, n=13)
@example(lo=1e-310, hi=1e-310 + 4 * _TINY, n=512)
@example(lo=-1e200, hi=1e200, n=24)
@example(lo=-1e308, hi=1e308, n=13)  # the span overflows to inf
@example(lo=1e308, hi=-1.7976931348623157e308, n=23**2 + 1)
@example(lo=0, hi=2**60 + 1, n=13)  # integer ends are subtracted as floats
def test_linspace_equals_numpy_bit_for_bit(lo, hi, n):
    """Same bits, dtype, shape and warnings as np.linspace, signed zeros,
    underflowing steps and overflowing spans included."""
    ref, got = _linspace_runs(lo, hi, n)
    assert got == ref


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid=st.sampled_from([8, 9, 24, 50]), center=st.floats(0.0, 1.0),
       level=st.integers(1, 40))
def test_linspace_equals_numpy_on_refinement_boxes(grid, center, level):
    """The sides of a refinement box on [0, 1], down to level 40, where
    they have collapsed to one or a few floats."""
    w = (1.0 / (grid - 1)) / 3 ** (level - 1)
    ref, got = _linspace_runs(max(0.0, center - w), min(1.0, center + w), 13)
    assert got == ref


@pytest.mark.parametrize(("text", "alpha"), sorted(_COLLAPSED))
def test_linspace_equals_numpy_on_the_collapsed_boxes(monkeypatch, text, alpha):
    """Every grid the collapsed-box certifications sample is np.linspace's."""
    calls = []
    space = convexity._linspace

    def recording(lo, hi, n):
        calls.append((lo, hi, n))
        return space(lo, hi, n)

    monkeypatch.setattr(convexity, "_linspace", recording)
    grid = 9 if "abs" in text else 8
    certify_gsc(_f(text), EtaSpec.from_text("u - v"), 0.0, 0.0, 1.0,
                AlphaContext(alpha=alpha), grid_n=grid, refine_depth=40)
    # xs, ts, eta's grid and the table, then the sides of the boxes that ran
    # and of the collapsed one that stopped the refinement
    assert len(calls) == 4 + 3 * _COLLAPSED[text, alpha][0]
    monkeypatch.undo()
    for lo, hi, n in calls:
        ref, got = _linspace_runs(lo, hi, n)
        assert got == ref


def test_linspace_overflow_raises_as_numpy_under_warnings_as_errors():
    """A span that overflows raises the same RuntimeWarning as np.linspace
    where warnings are errors, as they are in this suite."""
    for space in (np.linspace, convexity._linspace):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="^overflow encountered in subtract$"):
                space(-1e308, 1e308, 13)
