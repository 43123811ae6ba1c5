"""Tests for the midpoint/mean/endpoint chains and their weighted variants.

Display forms exercised here, with g1 = Gamma(1+al), span = b - a,
A = Gamma(1+2al)/Gamma(1+3al), B = g1/Gamma(1+2al), S = sampled eta sup:

    T1 = f(mid) - S/2^al
    T2 = g1/span^al * (I - c^al/4^al * span^(3al) * A)
    T3 = (f(a)+f(b))/2^al + g1 ((e_ab+e_ba)/2^al * B - c^al span^(2al)(B - A))
    T4 = same with S*B in place of (e_ab+e_ba)/2^al * B
    A1 = f(b) + e_ab g1 B - c^al span^(2al) g1 (B - A)   (A2 mirrored)

and the weighted chain F1 <= F2 <= F3 built from the moments m0..m3.
Each asserted value is recomputed inline from those forms or frozen from an
independent classical computation; the library is never its own oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from fracon import (
    EXACT,
    AlphaContext,
    EtaSpec,
    FunctionSpec,
    NotPolynomial,
    SymmetryError,
    WeightSpec,
    calculus,
    certify_gsc,
    cli,
    estimate_eta_sup,
    fejer_terms,
    gamma,
    hh_terms,
    inequalities,
    lf_integral,
)
from fracon.presets import ETA_PRESETS, F_PRESETS, W_PRESETS
from paper_checks import unit_weight_recomposition

_CTX1 = AlphaContext(alpha=1.0)
_ALPHAS = (0.3, 0.5, 0.9, 1.0)


def _f(text: str, **params: float) -> FunctionSpec:
    return FunctionSpec.from_text(text, params=params or None)


def _w(text: str, **params: float) -> WeightSpec:
    return WeightSpec.from_text(text, params=params or None)


_DIFF = EtaSpec.from_text("u - v")


# --------------------------------------------------------------- chain terms


def test_classical_square_chain():
    """x^2 on [0,1], c=0, eta=u-v, al=1: the textbook sandwich.

    f(1/2) - 1/2 = -1/4  <=  mean = 1/3  <=  (f(0)+f(1))/2 = 1/2  <=  1.
    """
    rep = hh_terms(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    assert rep.T1 == pytest.approx(-0.25, abs=1e-12)
    assert rep.T2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.T3 == pytest.approx(0.5, abs=1e-12)
    assert rep.T4 == pytest.approx(1.0, abs=1e-12)
    assert rep.A1 == pytest.approx(0.5, abs=1e-12)
    assert rep.A2 == pytest.approx(0.5, abs=1e-12)
    assert rep.m_eta == pytest.approx(1.0, abs=1e-12)
    assert rep.m_eta_source == "estimated"
    assert rep.eta_ab == pytest.approx(-1.0, abs=1e-12)
    assert rep.eta_ba == pytest.approx(1.0, abs=1e-12)
    assert rep.all_hold
    assert [l.name for l in rep.links] == ["T1<=T2", "T2<=T3", "T3<=T4"]


def test_classical_square_chain_with_strong_term():
    """Same setup with c=1: T2 = 1/3 - A/4 = 1/4, T3 = 1/2 - (B-A) = 1/3."""
    rep = hh_terms(_f("x^(2a)"), _DIFF, 1.0, 0.0, 1.0, _CTX1)
    assert rep.T1 == pytest.approx(-0.25, abs=1e-12)
    assert rep.T2 == pytest.approx(0.25, abs=1e-12)
    assert rep.T3 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.T4 == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert rep.all_hold


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_chain_constants_satisfy_gamma_identities(alpha):
    """A Gamma(1+3al) = Gamma(1+2al) and B Gamma(1+2al) = Gamma(1+al)."""
    ctx = AlphaContext(alpha=alpha)
    rep = hh_terms(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, ctx)
    assert abs(rep.A * gamma(1 + 3 * alpha) - gamma(1 + 2 * alpha)) <= 1e-12
    assert abs(rep.B * gamma(1 + 2 * alpha) - gamma(1 + alpha)) <= 1e-12


def test_constant_function_collapses_at_unit_order():
    """f = 2, eta = 0, c = 0, al = 1: every term equals 2."""
    rep = hh_terms(_f("2"), EtaSpec.from_text("0"), 0.0, 0.0, 1.0, _CTX1)
    for term in (rep.T1, rep.T2, rep.T3, rep.T4, rep.A1, rep.A2):
        assert term == pytest.approx(2.0, abs=1e-12)
    assert rep.all_hold
    for link in rep.links:
        assert abs(link.gap) <= 1e-12


def test_constant_function_fractional_order():
    """f = K, eta = 0, al < 1: T1 = T2 = K but T3 = T4 = 2^(1-al) K > K.

    The endpoint average carries the 1/2^al normalization, so the chain still
    holds (for K > 0) yet no longer collapses to equality — a measured fact
    about the fractional endpoint term, not an artifact.
    """
    ctx = AlphaContext(alpha=0.7)
    rep = hh_terms(_f("2"), EtaSpec.from_text("0"), 0.0, 0.0, 1.0, ctx)
    assert rep.T1 == pytest.approx(2.0, abs=1e-12)
    assert rep.T2 == pytest.approx(2.0, abs=1e-12)
    expected_ends = 2.0 * 2.0 ** (1.0 - 0.7)
    assert rep.T3 == pytest.approx(expected_ends, abs=1e-12)
    assert rep.T4 == pytest.approx(expected_ends, abs=1e-12)
    assert rep.all_hold


def test_vertical_shift_moves_every_term_at_unit_order():
    """al=1, c=0, eta=u-v: replacing f by f+3 shifts each term by exactly 3."""
    base = hh_terms(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    lift = hh_terms(_f("x^(2a) + 3"), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    for lo, hi in ((base.T1, lift.T1), (base.T2, lift.T2), (base.T3, lift.T3),
                   (base.T4, lift.T4), (base.A1, lift.A1), (base.A2, lift.A2)):
        assert hi - lo == pytest.approx(3.0, abs=1e-12)
    assert [l.holds for l in base.links] == [l.holds for l in lift.links]


def test_supplied_eta_bound_drives_top_term():
    """With m_eta supplied, T4 = ends + g1 (S B - 0) grows linearly in S."""
    rep = hh_terms(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, _CTX1, m_eta=10.0)
    assert rep.m_eta == 10.0
    assert rep.m_eta_source == "supplied"
    assert rep.T4 == pytest.approx(0.5 + 10.0 * 0.5, abs=1e-12)
    # S >= (e_ab + e_ba)/2^al makes the top link hold by construction.
    assert rep.links[-1].name == "T3<=T4"
    assert rep.links[-1].holds
    assert rep.links[-1].gap == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_one_sided_terms_average_to_endpoint_term(alpha):
    """c=0: (A1 + A2)/2^al equals T3 identically in al."""
    ctx = AlphaContext(alpha=alpha)
    rep = hh_terms(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, ctx)
    scale = max(abs(rep.A1), abs(rep.A2), abs(rep.T3), 1.0)
    assert abs((rep.A1 + rep.A2) / 2.0**alpha - rep.T3) <= 1e-12 * scale


def test_estimated_bound_matches_standalone_estimator():
    f = _f("x^(2a)")
    rep = hh_terms(f, _DIFF, 0.0, 0.0, 1.0, _CTX1)
    assert rep.m_eta == estimate_eta_sup(f, _DIFF, 0.0, 1.0, _CTX1)


def test_exact_backend_integral():
    rep = hh_terms(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, _CTX1, backend=EXACT)
    assert rep.backend == "exact"
    assert rep.integral == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_chain_validates_interval_and_modulus():
    f = _f("x^(2a)")
    with pytest.raises(ValueError, match="a < b"):
        hh_terms(f, _DIFF, 0.0, 1.0, 0.0, _CTX1)
    with pytest.raises(ValueError, match="c must be >= 0"):
        hh_terms(f, _DIFF, -1.0, 0.0, 1.0, _CTX1)


def test_report_dict_shape():
    rep = hh_terms(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    d = json.loads(cli._json_text(rep, "\n"))
    assert set(d) == {"alpha", "interval", "c", "backend", "m_eta", "m_eta_source",
                      "integral", "eta_ab", "eta_ba", "A", "B", "T1", "T2", "T3", "T4",
                      "A1", "A2", "link_tol", "links", "all_hold"}
    assert d["interval"] == [0.0, 1.0]
    assert [l["name"] for l in d["links"]] == ["T1<=T2", "T2<=T3", "T3<=T4"]


def test_chain_deterministic():
    f = _f("x^(2a)")
    r1 = hh_terms(f, _DIFF, 0.5, 0.0, 1.0, _CTX1)
    r2 = hh_terms(f, _DIFF, 0.5, 0.0, 1.0, _CTX1)
    assert cli._json_text(r1, "\n") == cli._json_text(r2, "\n")


# ----------------------------------------------------------- certified links


@pytest.mark.parametrize(
    ("text", "c"),
    [("x^(2a)", 0.0), ("x^(2a)", 1.0), ("1", 0.0)],
)
def test_certified_members_satisfy_the_chain_classically(text, c):
    """al=1: whenever certification is clean, every link holds."""
    f = _f(text)
    cert = certify_gsc(f, _DIFF, c, 0.0, 1.0, _CTX1, grid_n=16, refine_depth=2)
    assert cert.status == "NoViolationFound"
    rep = hh_terms(f, _DIFF, c, 0.0, 1.0, _CTX1)
    assert rep.all_hold


def test_non_member_is_caught_not_assumed():
    """A constant is not strongly convex (c=1): certification must say so."""
    cert = certify_gsc(_f("1"), _DIFF, 1.0, 0.0, 1.0, _CTX1, grid_n=16, refine_depth=2)
    assert cert.status == "Violated"


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
def test_member_minus_one_misses_t2_t3_by_its_closed_form(alpha):
    """f = -1, eta = u - v, c = 0 on [0, 1]: every defect is 0, so f is a
    member, and certify finds no violation.  But T2 = -1 while
    T3 = -2/2^al, so the T2<=T3 gap is -(2^(1-al) - 1)."""
    ctx = AlphaContext(alpha=alpha)
    rep = hh_terms(_f("-1"), _DIFF, 0.0, 0.0, 1.0, ctx)
    assert rep.links[1].name == "T2<=T3"
    assert rep.links[1].gap == pytest.approx(-(2.0 ** (1.0 - alpha) - 1.0), rel=1e-13, abs=0)
    assert certify_gsc(_f("-1"), _DIFF, 0.0, 0.0, 1.0, ctx).status == "NoViolationFound"


@pytest.mark.parametrize("alpha", (0.3, 0.5))
def test_t1_matches_its_closed_form(alpha):
    """f = x^(2a) increases on [0.2, 1.5] and the 512-point grid holds both
    ends, so the sampled sup of eta = u - v is M = f(1.5) - f(0.2), and
    T1 = f(0.85) - M / 2^al, with f(x) = x**(2 al) from the standard library."""
    ctx = AlphaContext(alpha=alpha)
    rep = hh_terms(_f("x^(2a)"), _DIFF, 1.0, 0.2, 1.5, ctx)
    m = 1.5 ** (2 * alpha) - 0.2 ** (2 * alpha)
    assert rep.T1 == pytest.approx(0.85 ** (2 * alpha) - m / 2**alpha, rel=1e-12, abs=0)


@pytest.mark.parametrize("c", (0.0, 1.0))
@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9))
def test_member_one_misses_t3_t4_by_its_closed_form(alpha, c):
    """f = 1, eta = 2u - v on [0, 1]: eta(f(a), f(b)) = eta(f(b), f(a)) =
    M = 1 and the strong terms cancel, so T4 - T3 = g1 B (M - 2/2^al)
    = -g1^2/Gamma(1+2al) (2^(1-al) - 1), with Gamma from the standard
    library; certify finds no violation."""
    ctx = AlphaContext(alpha=alpha)
    eta = EtaSpec.from_text("2*u - v")
    rep = hh_terms(_f("1"), eta, c, 0.0, 1.0, ctx)
    want = -math.gamma(1 + alpha) ** 2 / math.gamma(1 + 2 * alpha) * (2.0 ** (1.0 - alpha) - 1.0)
    assert rep.links[2].name == "T3<=T4"
    assert rep.links[2].gap == pytest.approx(want, rel=1e-13, abs=0)
    assert certify_gsc(_f("1"), eta, c, 0.0, 1.0, ctx).status == "NoViolationFound"


@pytest.mark.parametrize("lo", (1.0, -3.0, 2.5e6))
def test_link_holds_within_its_tolerance_and_fails_beyond(lo):
    """A link holds when lo <= hi + tol, tol = 1e-9 (1 + max |term|): a gap
    of -0.5 tol holds and one of -2 tol fails."""
    tol = 1e-9 * (1.0 + abs(lo))
    for factor, holds in ((0.5, True), (2.0, False)):
        got_tol, (link,) = inequalities._links([("lo<=hi", lo, lo - factor * tol)])
        assert got_tol == pytest.approx(tol, rel=1e-8)
        assert link.gap == pytest.approx(-factor * tol, rel=1e-6)
        assert link.holds is holds


# ------------------------------------------------------------ weighted chain


def test_weighted_chain_unit_weight_classical():
    """w = 1, al = 1 reduces to the plain chain: (1/4, 1/3, 1/2)."""
    f = _f("x^(2a)")
    rep = fejer_terms(f, _DIFF, 0.0, _w("1"), 0.0, 1.0, _CTX1)
    assert rep.F1 == pytest.approx(0.25, abs=1e-12)
    assert rep.F2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.F3 == pytest.approx(0.5, abs=1e-12)
    assert rep.m0 == pytest.approx(1.0, abs=1e-12)
    assert rep.m1 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(rep.L_eta) <= 1e-12
    assert rep.R_eta == pytest.approx(0.0, abs=1e-12)
    assert rep.all_hold
    assert [l.name for l in rep.links] == ["F1<=F2", "F2<=F3"]
    # Same table, same integrand: the mean term is bitwise the unweighted
    # integral on its exact route.
    assert rep.routes["F2"] == "exact"
    hh = hh_terms(f, _DIFF, 0.0, 0.0, 1.0, _CTX1, backend=EXACT)
    assert rep.F2 == hh.integral


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_unit_weight_moment_closed_forms(alpha):
    """m0 = span^al/g1 and m2 = span^(2al) g1/Gamma(1+2al) for w = 1."""
    ctx = AlphaContext(alpha=alpha)
    a, b = 0.5, 2.0
    span = b - a
    rep = fejer_terms(_f("x^(2a)"), _DIFF, 0.0, _w("1"), a, b, ctx)
    g1 = gamma(1 + alpha)
    assert rep.m0 == pytest.approx(span**alpha / g1, rel=1e-9)
    assert rep.m2 == pytest.approx(span ** (2 * alpha) * g1 / gamma(1 + 2 * alpha), rel=1e-9)


def test_unit_weight_cross_moment_frozen_value():
    """m3 at al = 1/2 on [0,1] equals the frozen product-integrand value."""
    rep = fejer_terms(_f("x^(2a)"), _DIFF, 0.0, _w("1"), 0.0, 1.0, AlphaContext(alpha=0.5))
    assert rep.m3 == pytest.approx(0.3761263890318375246321, rel=1e-8)


def test_kinked_weighted_terms_frozen_values():
    """f = |x - 0.3|^al, eta = 2^a u + v, w = 1 on [0, 1] at al = 0.3.

    References from mpmath at 40 digits, each integral split at its kinks:
    F2 at 0.3, L at 0.3 and its mirror 0.7, m1 at t = 0.5.  Each must be
    within the quadrature rtol (1e-9), which needs every split.
    """
    ctx = AlphaContext(alpha=0.3)
    rep = fejer_terms(_f("abs(x - 0.3)^(a)"), EtaSpec.from_text("2^a*u + v"),
                      0.0, _w("1"), 0.0, 1.0, ctx)
    for got, ref in ((rep.F2, 0.8705209376278973070186),
                     (rep.L_eta, 1.414778251852724863962),
                     (rep.m1, 0.8779364448827291835579)):
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))


def test_parabolic_weight_classical_values():
    """w = x(1-x) on [0,1], al=1: F2 = 1/4 - 1/5, F1 = f(1/2) m0 = 1/24."""
    f = _f("x^(2a)")
    w = _w("(x - lo)^(a)*(hi - x)^(a)", lo=0.0, hi=1.0)
    rep = fejer_terms(f, _DIFF, 0.0, w, 0.0, 1.0, _CTX1)
    assert rep.m0 == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rep.F1 == pytest.approx(0.25 / 6.0, abs=1e-12)
    assert rep.F2 == pytest.approx(0.05, abs=1e-12)
    assert rep.F3 == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert rep.all_hold


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("c", [0.0, 1.0])
def test_weighted_terms_recompose_from_moments(alpha, c):
    """F1 and F3 are exactly their display forms in the stored moments."""
    ctx = AlphaContext(alpha=alpha)
    f = _f("x^(2a)")
    rep = fejer_terms(f, _DIFF, c, _w("1"), 0.0, 1.0, ctx)
    fm, fa, fb = f.evaluate_many(np.array([0.5, 0.0, 1.0]), ctx).tolist()
    rec1 = fm * rep.m0 - rep.L_eta + c**alpha / 4.0**alpha * rep.m1
    rec3 = (fa + fb) / 2.0**alpha * rep.m0 + rep.R_eta - c**alpha * rep.m3
    scale = 1.0 + max(abs(rep.F1), abs(rep.F3))
    assert abs(rep.F1 - rec1) <= 1e-12 * scale
    assert abs(rep.F3 - rec3) <= 1e-12 * scale


_INTEGRALS = ("m0", "m1", "m2", "m3", "L_eta", "F2")


def _rl_integrals(f, eta, w, a, b, ctx) -> dict:
    """The six Fejer integrals from the integrands as first written, each
    evaluating w on its own nodes, through ``calculus._integral``."""
    al, span = ctx.alpha, b - a
    f_pts, w_pts = f.singular_points(), w.singular_points()
    t_pts = tuple((p - a) / span for p in w_pts)

    def integral(fn, lo=0.0, hi=1.0, points=t_pts):
        return calculus._integral("reference", fn, lo, hi, al, points)

    def wx(ts):
        return w.evaluate_many(a + ts * span, ctx)

    return dict(
        m0=span**al * integral(wx),
        m1=span ** (3 * al) * integral(lambda ts: wx(ts) * np.abs(1.0 - 2.0 * ts) ** (2 * al),
                                       points=t_pts + (0.5,)),
        m2=span ** (2 * al) * integral(lambda ts: wx(ts) * ts**al),
        m3=span ** (3 * al) * integral(lambda ts: wx(ts) * (ts**al * (1.0 - ts) ** al)),
        L_eta=integral(lambda xs: eta.evaluate_many(f.evaluate_many(a + b - xs, ctx),
                                                    f.evaluate_many(xs, ctx), ctx)
                       * w.evaluate_many(xs, ctx),
                       a, b, f_pts + tuple(a + b - p for p in f_pts) + w_pts) / 2**al,
        F2=integral(lambda xs: f.evaluate_many(xs, ctx) * w.evaluate_many(xs, ctx),
                    a, b, f_pts + w_pts),
    )


def _fejer_reference(f, eta, c, w, a, b, ctx, integrals) -> dict:
    """FejerReport's float fields built from the six ``integrals``."""
    al, span = ctx.alpha, b - a
    fa, fb, fm = f.evaluate_many(np.array([a, b, (a + b) / 2.0]), ctx).tolist()
    e_ab, e_ba = eta.evaluate_many(np.array([fa, fb]), np.array([fb, fa]), ctx).tolist()
    m0, m1, m2, m3, L, F2 = (integrals[name] for name in _INTEGRALS)
    R = (e_ab + e_ba) / (2**al * span**al) * m2
    F1 = fm * m0 - L + c**al / 4**al * m1
    F3 = (fa + fb) / 2**al * m0 + R - c**al * m3
    return dict(alpha=al, c=c, m0=m0, m1=m1, m2=m2, m3=m3, L_eta=L, R_eta=R, F1=F1,
                F2=F2, F3=F3, link_tol=1e-9 * (1.0 + max(abs(F1), abs(F2), abs(F3))),
                a=a, b=b, gap12=F2 - F1, gap23=F3 - F2)


def _fejer_case(f_text, eta_text, w_text, c, a, b, alpha):
    bound = {"lo": a, "hi": b}
    f = FunctionSpec.from_text(f_text, params=bound)
    eta = EtaSpec.from_text(eta_text, params=bound)
    w = WeightSpec.from_text(w_text, params=bound)
    ctx = AlphaContext(alpha=alpha)
    rep = fejer_terms(f, eta, c, w, a, b, ctx)
    try:
        w.form(a, b, ctx)
        m1_route = "exact"
    except NotPolynomial:
        m1_route = "rl"
    assert tuple(rep.routes) == _INTEGRALS and rep.routes["m1"] == m1_route
    assert set(rep.routes.values()) <= {"exact", "rl"}
    return (f, eta, w, ctx), rep, _rl_integrals(f, eta, w, a, b, ctx)


def _assert_fejer_matches_reference(f_text, eta_text, w_text, c, a, b, alpha):
    """Every integral on the rl route has the bits of the unshared
    integrand's, and every other float field has the bits of the display
    forms built from the report's integrals of either route."""
    (f, eta, w, ctx), rep, rl = _fejer_case(f_text, eta_text, w_text, c, a, b, alpha)
    floats = {fld.name: getattr(rep, fld.name) for fld in dataclasses.fields(rep)
              if isinstance(getattr(rep, fld.name), float)}
    got = {**floats, "a": rep.interval[0], "b": rep.interval[1],
           "gap12": rep.links[0].gap, "gap23": rep.links[1].gap}
    integrals = {name: rl[name] if route == "rl" else getattr(rep, name)
                 for name, route in rep.routes.items()}
    want = _fejer_reference(f, eta, c, w, a, b, ctx, integrals)
    assert set(floats) | {"a", "b", "gap12", "gap23"} == set(want)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def _times(p: dict, q: dict) -> dict:
    out: dict = {}
    for (k1, j1), c1 in p.items():
        for (k2, j2), c2 in q.items():
            out[k1 + k2, j1 + j2] = out.get((k1 + k2, j1 + j2), 0.0) + c1 * c2
    return out


def _beta(form: dict, span: float, al: float) -> tuple[float, float]:
    """a_I_b of sum c (x-a)**(k al) (b-x)**(j al) from the Beta integral
    B(p+1, q+al) / Gamma(al), with the sum of its terms' magnitudes."""
    terms = [c * span ** ((k + j + 1) * al) * math.gamma(k * al + 1.0)
             * math.gamma((j + 1) * al) / math.gamma((k + j + 1) * al + 1.0) / math.gamma(al)
             for (k, j), c in form.items()]
    return math.fsum(terms), math.fsum(map(abs, terms))


def _gauss_half(A: float, B: float, C: float) -> float:
    """2F1(A, B; C; 1/2) from its series as it stands, summed with fsum."""
    terms, term = [1.0], 1.0
    for n in range(400):
        term *= (A + n) * (B + n) / ((C + n) * (n + 1.0)) * 0.5
        terms.append(term)
    return math.fsum(terms)


def _m1(form: dict, span: float, al: float) -> tuple[float, float]:
    """m1 of sum c (x-a)**(k al) (b-x)**(j al), with the sum of its terms'
    magnitudes.  Over t < 1/2 and t > 1/2 a term's integral
    (1/Gamma(al)) int t**p (1-t)**(q+al-1) |1-2t|**(2 al) dt is, with
    t = s/2 and t = 1 - s/2, 2**-(p+1) B(p+1, 2al+1) 2F1(1-q-al, p+1;
    p+2al+2; 1/2) and 2**-(q+al) B(q+al, 2al+1) 2F1(-p, q+al; q+3al+1; 1/2),
    series whose terms change sign (no Euler transformation)."""
    def beta(x, y):
        return math.gamma(x) * math.gamma(y) / math.gamma(x + y)

    terms = []
    for (k, j), c in form.items():
        p, q = k * al, j * al
        left = 2.0 ** -(p + 1.0) * beta(p + 1.0, 2 * al + 1.0) * _gauss_half(
            1.0 - q - al, p + 1.0, p + 2 * al + 2.0)
        right = 2.0 ** -(q + al) * beta(q + al, 2 * al + 1.0) * _gauss_half(
            -p, q + al, q + 3 * al + 1.0)
        terms.append(c * span ** ((k + j + 3) * al) * (left + right) / math.gamma(al))
    return math.fsum(terms), math.fsum(map(abs, terms))


def _assert_exact_integrals_match_beta_and_rl(f_text, eta_text, w_text, c, a, b, alpha):
    """Each integral on the exact route is the Beta integral of its
    integrand's form, here summed term by term with math.gamma (m1 from
    its two halves' Gauss series), and lies within 1e-9 (1 + |v|) of the
    rl route's value v."""
    (f, eta, w, ctx), rep, rl = _fejer_case(f_text, eta_text, w_text, c, a, b, alpha)
    exact = [name for name, route in rep.routes.items() if route == "exact"]
    if not exact:
        return
    wf = w.form(a, b, ctx)
    forms = {"m0": wf, "m1": wf, "m2": _times({(1, 0): 1.0}, wf),
             "m3": _times({(1, 1): 1.0}, wf)}
    if {"L_eta", "F2"} & set(exact):
        ff = f.form(a, b, ctx)
        forms["F2"] = _times(ff, wf)
        if "L_eta" in exact:
            mirror = {(j, k): cf for (k, j), cf in ff.items()}
            forms["L_eta"] = _times(eta.form(mirror, ff, a, b, ctx), wf)
    for name in exact:
        value, size = (_m1 if name == "m1" else _beta)(forms[name], b - a, alpha)
        if name == "L_eta":
            value, size = value / 2**alpha, size / 2**alpha
        got = getattr(rep, name)
        assert abs(got - value) <= 1e-13 * size, (name, got, value)
        assert abs(got - rl[name]) <= 1e-9 * (1.0 + abs(rl[name])), (name, got, rl[name])


_PRESET_ROWS = list(itertools.product(F_PRESETS, ETA_PRESETS, W_PRESETS))
_PRESET_CASES = dict(
    argnames=("f_text", "eta_text", "w_text"),
    argvalues=[(F_PRESETS[fk], ETA_PRESETS[ek], W_PRESETS[wk]) for fk, ek, wk in _PRESET_ROWS],
    ids=["-".join(k) for k in _PRESET_ROWS],
)
_GRID = list(itertools.product(_ALPHAS, (0.0, 1.0), ((0.0, 1.0), (-1.0, 2.0))))


@pytest.mark.parametrize(**_PRESET_CASES)
def test_fejer_terms_match_the_unshared_integrands_bitwise(f_text, eta_text, w_text):
    """m0, m2 and m3 share one sample of w per node array, and the panel
    sums halve in place; every integral fejer_terms takes on the rl route
    still has the bits of its unshared integrand's, and every float it
    derives has the bits of its display form, at every alpha and c on
    [0, 1] and [-1, 2]."""
    for alpha, c, (a, b) in _GRID:
        _assert_fejer_matches_reference(f_text, eta_text, w_text, c, a, b, alpha)


@pytest.mark.parametrize(**_PRESET_CASES)
def test_fejer_exact_integrals_match_beta_and_rl(f_text, eta_text, w_text):
    """The integrals on the exact route, at every alpha and c on [0, 1]
    and [-1, 2]: every preset weight takes m0, m2 and m3 there."""
    for alpha, c, (a, b) in _GRID:
        _assert_exact_integrals_match_beta_and_rl(f_text, eta_text, w_text, c, a, b, alpha)


_KINKED = dict(
    argnames=("f_text", "w_text"),
    argvalues=[
        # Kinks at 0.3 and 0.7 that w reports none of: m0, m2 and m3 refine
        # for six or seven passes, each on a new node array.
        ("x^(2a)", "abs((x - 0.5)^2 - 0.04)"),
        # Three kinks of w: the moments' mesh is too large to cache, so each
        # of the three integrals gets a node array of its own.
        ("x^(2a)", "abs(x - 0.25) + abs(x - 0.5) + abs(x - 0.75)"),
        # Three kinks of f: L's and F2's meshes are built anew per call.
        ("abs(x - 0.2)^(a) + abs(x - 0.5)^(a) + abs(x - 0.9)^(a)", "(x - lo)^(a)*(hi - x)^(a)"),
    ],
    ids=["w-refines", "w-uncached", "f-uncached"],
)


@pytest.mark.parametrize(**_KINKED)
@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_fejer_terms_match_the_unshared_integrands_on_kinks_bitwise(f_text, w_text, alpha):
    """As above where the moments' node arrays change between or within
    integrals, so w's sample must be taken anew."""
    for c, (a, b) in itertools.product((0.0, 1.0), ((0.0, 1.0), (-1.0, 2.0))):
        _assert_fejer_matches_reference(f_text, "2^a*u + v", w_text, c, a, b, alpha)
        _assert_exact_integrals_match_beta_and_rl(f_text, "2^a*u + v", w_text, c, a, b, alpha)


@pytest.mark.parametrize(("w_text", "route"), [
    ("(x - 0.5)^2", "exact"),
    ("(x - 0.5)^20", "rl"),
    ("((x - lo)*(hi - x))^(20)", "rl"),
])
def test_cancelling_beta_terms_take_the_rl_route(w_text, route):
    """The normal form of an expanded power has terms of both signs.  Where
    they cancel past the rl route's 1e-9 relative tolerance (the sum came
    out -1.1e-12 for the ((x - lo)*(hi - x))^(20) weight, whose integral is
    20!**2/41! = 1.8e-13), the moments take rl, and each moment matches
    its classical integral either way."""
    w = _w(w_text, lo=0.0, hi=1.0)
    rep = fejer_terms(_f("1"), _DIFF, 0.0, w, 0.0, 1.0, _CTX1)
    assert [rep.routes[m] for m in ("m0", "m2", "m3")] == [route] * 3
    xs = np.linspace(0.0, 1.0, 200_001)
    for moment, factor in ((rep.m0, 1.0), (rep.m2, xs), (rep.m3, xs * (1.0 - xs))):
        ys = w.evaluate_many(xs, _CTX1) * factor
        want = float(np.sum((ys[1:] + ys[:-1]) * 0.5) / 200_000)  # trapezoid
        assert moment == pytest.approx(want, rel=1e-8)


def test_each_fejer_integral_takes_its_own_route():
    """At alpha 0.5 the weight (x - lo)^(170a)*(hi - x)^(170a) is the
    monomial (x-a)^85 (b-x)^85: m0's table reads Gamma(171.5) and m1's
    closed form no Gamma past Gamma(88), but m2's and m3's tables read
    Gamma(172) and Gamma(172.5), which overflow, so those two take rl while
    m0 and m1 stay exact, m0 at mpmath's Gamma(86) Gamma(85.5) /
    (Gamma(1/2) Gamma(171.5))."""
    w = _w("(x - lo)^(170a)*(hi - x)^(170a)", lo=0.0, hi=1.0)
    rep = fejer_terms(_f("x^(2a)"), _DIFF, 0.0, w, 0.0, 1.0, AlphaContext(alpha=0.5))
    assert rep.routes == {"m0": "exact", "m1": "exact", "m2": "rl", "m3": "rl",
                          "L_eta": "rl", "F2": "rl"}
    assert rep.m0 == pytest.approx(5.11352222888737012564108937595e-53, rel=1e-14)


def test_exact_integral_and_fejer_f2_read_one_table():
    """lf_integral's exact route and fejer's F2 with w = 1 sum the same
    Beta table over the same two-endpoint form of f: where one takes the
    exact route, so does the other, with the same bits."""
    exact = 0
    for f_text, eta_text, alpha, (a, b) in itertools.product(
            [*F_PRESETS.values(), "x^(2a) + 1", "3*x^(4a) - x^(a)/2", "(x - lo)^(3a)"],
            ETA_PRESETS.values(), _ALPHAS, ((0.0, 1.0), (0.2, 1.5), (-1.0, 2.0))):
        f = _f(f_text, lo=a, hi=b)
        ctx = AlphaContext(alpha=alpha)
        rep = fejer_terms(f, EtaSpec.from_text(eta_text), 0.0, _w("1"), a, b, ctx)
        try:
            value = lf_integral(f, a, b, ctx, EXACT)
        except NotPolynomial:
            assert rep.routes["F2"] == "rl", (f_text, alpha, a, b)
            continue
        assert rep.routes["F2"] == "exact", (f_text, alpha, a, b)
        assert rep.F2.hex() == value.hex(), (f_text, alpha, a, b)
        exact += 1
    assert exact == 96


def test_weighted_chain_rejects_asymmetric_weight():
    f = _f("x^(2a)")
    with pytest.raises(SymmetryError, match="not symmetric"):
        fejer_terms(f, _DIFF, 0.0, _w("x^(a)"), 0.0, 1.0, _CTX1)
    with pytest.raises(SymmetryError, match="negative"):
        fejer_terms(f, _DIFF, 0.0, _w("-1"), 0.0, 1.0, _CTX1)


def test_weighted_report_dict_shape():
    rep = fejer_terms(_f("x^(2a)"), _DIFF, 0.0, _w("1"), 0.0, 1.0, _CTX1)
    d = json.loads(cli._json_text(rep, "\n"))
    assert set(d) == {"alpha", "interval", "c", "m0", "m1", "m2", "m3",
                      "L_eta", "R_eta", "F1", "F2", "F3", "routes", "link_tol", "links",
                      "all_hold"}
    # L is 0 by symmetry here, so its Beta terms cancel and it takes rl.
    assert d["routes"] == {"m0": "exact", "m1": "exact", "m2": "exact", "m3": "exact",
                           "L_eta": "rl", "F2": "exact"}


# --------------------------------------------------------------- consistency


@pytest.mark.parametrize(
    ("text", "lo", "hi", "alpha"),
    [
        ("x^(2a)", 0.0, 1.0, 1.0),
        ("x^(2a)", -1.0, 1.0, 1.0),
        ("x^(4a)", 0.0, 1.0, 1.0),
        ("x^(2a)", 0.5, 2.0, 0.5),
    ],
)
def test_unit_weight_consistency(text, lo, hi, alpha):
    """With w = 1 the weighted terms must recompose the plain ones."""
    ctx = AlphaContext(alpha=alpha)
    unit_weight_recomposition(_f(text), _DIFF, 0.0, lo, hi, ctx)


def test_consistency_degenerate_eta():
    """eta = 0 zeroes L, R, and the sup bound; all checks stay exact."""
    _, _, (_, eq2, le3) = unit_weight_recomposition(_f("x^(2a)"), EtaSpec.from_text("0"),
                                                    0.0, 0.0, 1.0, _CTX1)
    assert eq2 == (0.0, 0.0)
    assert le3 == (0.0, 0.0)


def test_consistency_carries_both_reports():
    """F2 of x^(2a) with w = 1 comes from the Beta table's j = 0 terms,
    which are the exact route's monomial table bit for bit."""
    hh, fejer, _ = unit_weight_recomposition(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    assert fejer.routes["F2"] == "exact"
    exact = hh_terms(_f("x^(2a)"), _DIFF, 0.0, 0.0, 1.0, _CTX1, backend=EXACT)
    assert hh.backend == "rl"
    assert fejer.F2 == exact.integral
