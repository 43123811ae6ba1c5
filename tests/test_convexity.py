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
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracon import (
    AlphaContext,
    Counterexample,
    EtaSpec,
    EvalError,
    FunctionSpec,
    WeightSpec,
    certify_gsc,
    check_eta_necessary,
    check_symmetry,
    convexity,
    defect,
    estimate_eta_sup,
    minimum_condition_check,
)

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
    assert rep.a == -1.0 and rep.b == 1.0
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
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_certify_report_dict_shape():
    rep = certify_gsc(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), 0.0, _CTX1,
                      grid_n=16, refine_depth=1)
    d = rep.to_dict()
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


def test_certify_rejects_tiny_grid():
    with pytest.raises(ValueError, match="grid_n"):
        certify_gsc(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("u - v"), 0.0, _CTX1, grid_n=7)


def test_certify_requires_domain():
    f = FunctionSpec.from_text("x^(2a)")
    with pytest.raises(ValueError):
        certify_gsc(f, EtaSpec.from_text("u - v"), 0.0, _CTX1, grid_n=16)


# ------------------------------------------------------ streamed lattice


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
    """Slabs of 1 or 3 x-rows (3 leaves a short last slab) change nothing."""
    f = _f(text, 0.0, 1.0)
    eta = EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    default = certify_gsc(f, eta, c, ctx, grid_n=20, refine_depth=3)
    assert default.status == status
    monkeypatch.setattr(convexity, "_SLAB_CELLS", rows * 20 * 20)
    assert certify_gsc(f, eta, c, ctx, grid_n=20, refine_depth=3).to_dict() == default.to_dict()


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


def _lattice_min_reference(f, eta, c, ctx, xs, ys, ts):
    """The whole-tensor lattice evaluation that the slabs replace."""
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
    """The slabbed kernel returns exactly the whole-tensor index, minimum
    and max |f|, on the main lattice and on an off-centre refinement box
    clipped at x = 0 (so xs differs from ys)."""
    f = _f(text, 0.0, 1.0)
    eta = EtaSpec.from_text(eta)
    ctx = AlphaContext(alpha=alpha)
    if box:
        w = 1.0 / 19
        xs = np.linspace(max(0.0, 0.02 - w), min(1.0, 0.02 + w), 13)
        ys = np.linspace(max(0.0, 0.61 - w), min(1.0, 0.61 + w), 13)
        ts = np.linspace(max(0.0, 0.97 - w), min(1.0, 0.97 + w), 13)
    else:
        xs = ys = np.linspace(0.0, 1.0, 20)
        ts = np.linspace(0.0, 1.0, 20)
    if rows is not None:
        monkeypatch.setattr(convexity, "_SLAB_CELLS", rows * len(ys) * len(ts))
    got = convexity._lattice_min(f, eta, c, ctx, xs, ys, ts)
    assert got == _lattice_min_reference(f, eta, c, ctx, xs, ys, ts)


def test_certify_memory_is_bounded():
    """At grid 120 a whole-lattice tensor would peak near 53 MiB."""
    f = _f("x^(2a)", 0.0, 1.0)
    eta = EtaSpec.from_text("u - v")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        certify_gsc(f, eta, 1.0, AlphaContext(alpha=0.5), grid_n=120, refine_depth=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 8 * 2**20


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


def test_symmetry_constant_weight():
    rep = check_symmetry(WeightSpec.from_text("1", domain=(0.0, 1.0)), 0.0, 1.0, _CTX1)
    assert rep.symmetric and rep.nonnegative
    assert rep.max_asymmetry == 0.0


def test_symmetry_parabolic_weight():
    ctx = AlphaContext(alpha=0.5)
    w = WeightSpec.from_text("(x - lo)^(a)*(hi - x)^(a)", domain=(0.0, 1.0),
                             params={"lo": 0.0, "hi": 1.0})
    rep = check_symmetry(w, 0.0, 1.0, ctx)
    assert rep.symmetric and rep.nonnegative
    assert rep.max_asymmetry <= 1e-12


def test_symmetry_detects_skew():
    """w(x) = x on [0,1]: w(0) = 0 vs w(1) = 1 gives asymmetry 1 at x=0."""
    w = WeightSpec.from_text("x^(a)", domain=(0.0, 1.0))
    rep = check_symmetry(w, 0.0, 1.0, _CTX1)
    assert not rep.symmetric
    assert rep.max_asymmetry == pytest.approx(1.0, abs=1e-12)
    assert rep.asym_witness == pytest.approx(0.0, abs=1e-12)
    assert rep.nonnegative


def test_symmetry_detects_negative_weight():
    w = WeightSpec.from_text("-1", domain=(0.0, 1.0))
    rep = check_symmetry(w, 0.0, 1.0, _CTX1)
    assert rep.symmetric
    assert not rep.nonnegative
    assert rep.min_value == -1.0
    assert rep.neg_witness is not None


# ----------------------------------------------------------- eta sup estimate


def test_eta_sup_examples():
    fsq = _f("x^(2a)", 0.0, 1.0)
    assert estimate_eta_sup(fsq, EtaSpec.from_text("u - v"), _CTX1) == pytest.approx(1.0, abs=1e-12)
    assert estimate_eta_sup(fsq, EtaSpec.from_text("0"), _CTX1) == 0.0
    assert estimate_eta_sup(fsq, EtaSpec.from_text("3"), _CTX1) == 3.0
    # The estimate is a signed max, not a max of absolute values.
    assert estimate_eta_sup(fsq, EtaSpec.from_text("-1"), _CTX1) == -1.0


def test_eta_sup_interval_override():
    fsq = _f("x^(2a)", 0.0, 1.0)
    got = estimate_eta_sup(fsq, EtaSpec.from_text("u - v"), _CTX1, a=0.0, b=2.0)
    assert got == pytest.approx(4.0, abs=1e-12)


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
        minimum_condition_check(f, eta, 0.0, _CTX1, grid_n=3)
    with pytest.raises(ValueError, match="grid_n"):
        check_eta_necessary(f, eta, _CTX1, grid_n=3)
    with pytest.raises(ValueError, match="grid_n"):
        check_symmetry(WeightSpec.from_text("1", domain=(0.0, 1.0)), 0.0, 1.0, _CTX1, grid_n=3)
