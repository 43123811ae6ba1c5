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

import json
import math

import pytest

from fracon import (
    EXACT,
    AlphaContext,
    EtaSpec,
    FunctionSpec,
    SymmetryError,
    WeightSpec,
    certify_gsc,
    cli,
    estimate_eta_sup,
    fejer_terms,
    gamma,
    hh_fejer_consistency,
    hh_terms,
)

_CTX1 = AlphaContext(alpha=1.0)
_ALPHAS = (0.3, 0.5, 0.9, 1.0)


def _f(text: str, a_: float, b_: float, **params: float) -> FunctionSpec:
    return FunctionSpec.from_text(text, domain=(a_, b_), params=params or None)


def _w(text: str, a_: float, b_: float, **params: float) -> WeightSpec:
    return WeightSpec.from_text(text, domain=(a_, b_), params=params or None)


_DIFF = EtaSpec.from_text("u - v")


# --------------------------------------------------------------- chain terms


def test_classical_square_chain():
    """x^2 on [0,1], c=0, eta=u-v, al=1: the textbook sandwich.

    f(1/2) - 1/2 = -1/4  <=  mean = 1/3  <=  (f(0)+f(1))/2 = 1/2  <=  1.
    """
    rep = hh_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, _CTX1)
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
    rep = hh_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 1.0, 0.0, 1.0, _CTX1)
    assert rep.T1 == pytest.approx(-0.25, abs=1e-12)
    assert rep.T2 == pytest.approx(0.25, abs=1e-12)
    assert rep.T3 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.T4 == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert rep.all_hold


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_chain_constants_satisfy_gamma_identities(alpha):
    """A Gamma(1+3al) = Gamma(1+2al) and B Gamma(1+2al) = Gamma(1+al)."""
    ctx = AlphaContext(alpha=alpha)
    rep = hh_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, ctx)
    assert abs(rep.A * gamma(1 + 3 * alpha) - gamma(1 + 2 * alpha)) <= 1e-12
    assert abs(rep.B * gamma(1 + 2 * alpha) - gamma(1 + alpha)) <= 1e-12


def test_constant_function_collapses_at_unit_order():
    """f = 2, eta = 0, c = 0, al = 1: every term equals 2."""
    rep = hh_terms(_f("2", 0.0, 1.0), EtaSpec.from_text("0"), 0.0, 0.0, 1.0, _CTX1)
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
    rep = hh_terms(_f("2", 0.0, 1.0), EtaSpec.from_text("0"), 0.0, 0.0, 1.0, ctx)
    assert rep.T1 == pytest.approx(2.0, abs=1e-12)
    assert rep.T2 == pytest.approx(2.0, abs=1e-12)
    expected_ends = 2.0 * 2.0 ** (1.0 - 0.7)
    assert rep.T3 == pytest.approx(expected_ends, abs=1e-12)
    assert rep.T4 == pytest.approx(expected_ends, abs=1e-12)
    assert rep.all_hold


def test_vertical_shift_moves_every_term_at_unit_order():
    """al=1, c=0, eta=u-v: replacing f by f+3 shifts each term by exactly 3."""
    base = hh_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    lift = hh_terms(_f("x^(2a) + 3", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    for lo, hi in ((base.T1, lift.T1), (base.T2, lift.T2), (base.T3, lift.T3),
                   (base.T4, lift.T4), (base.A1, lift.A1), (base.A2, lift.A2)):
        assert hi - lo == pytest.approx(3.0, abs=1e-12)
    assert [l.holds for l in base.links] == [l.holds for l in lift.links]


def test_supplied_eta_bound_drives_top_term():
    """With m_eta supplied, T4 = ends + g1 (S B - 0) grows linearly in S."""
    rep = hh_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, _CTX1, m_eta=10.0)
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
    rep = hh_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, ctx)
    scale = max(abs(rep.A1), abs(rep.A2), abs(rep.T3), 1.0)
    assert abs((rep.A1 + rep.A2) / 2.0**alpha - rep.T3) <= 1e-12 * scale


def test_estimated_bound_matches_standalone_estimator():
    f = _f("x^(2a)", 0.0, 1.0)
    rep = hh_terms(f, _DIFF, 0.0, 0.0, 1.0, _CTX1)
    assert rep.m_eta == estimate_eta_sup(f, _DIFF, _CTX1, a=0.0, b=1.0)


def test_exact_backend_integral():
    rep = hh_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, _CTX1, backend=EXACT)
    assert rep.backend == "exact"
    assert rep.integral == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_chain_validates_interval_and_modulus():
    f = _f("x^(2a)", 0.0, 1.0)
    with pytest.raises(ValueError, match="a < b"):
        hh_terms(f, _DIFF, 0.0, 1.0, 0.0, _CTX1)
    with pytest.raises(ValueError, match="c must be >= 0"):
        hh_terms(f, _DIFF, -1.0, 0.0, 1.0, _CTX1)


def test_report_dict_shape():
    rep = hh_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    d = json.loads(cli._json_text(rep, "\n"))
    assert set(d) == {"alpha", "interval", "c", "backend", "m_eta", "m_eta_source",
                      "integral", "eta_ab", "eta_ba", "A", "B", "T1", "T2", "T3", "T4",
                      "A1", "A2", "link_tol", "links", "all_hold"}
    assert d["interval"] == [0.0, 1.0]
    assert [l["name"] for l in d["links"]] == ["T1<=T2", "T2<=T3", "T3<=T4"]


def test_chain_deterministic():
    f = _f("x^(2a)", 0.0, 1.0)
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
    f = _f(text, 0.0, 1.0)
    cert = certify_gsc(f, _DIFF, c, _CTX1, grid_n=16, refine_depth=2)
    assert cert.status == "NoViolationFound"
    rep = hh_terms(f, _DIFF, c, 0.0, 1.0, _CTX1)
    assert rep.all_hold


def test_non_member_is_caught_not_assumed():
    """A constant is not strongly convex (c=1): certification must say so."""
    cert = certify_gsc(_f("1", 0.0, 1.0), _DIFF, 1.0, _CTX1, grid_n=16, refine_depth=2)
    assert cert.status == "Violated"


# ------------------------------------------------------------ weighted chain


def test_weighted_chain_unit_weight_classical():
    """w = 1, al = 1 reduces to the plain chain: (1/4, 1/3, 1/2)."""
    f = _f("x^(2a)", 0.0, 1.0)
    rep = fejer_terms(f, _DIFF, 0.0, _w("1", 0.0, 1.0), 0.0, 1.0, _CTX1)
    assert rep.F1 == pytest.approx(0.25, abs=1e-12)
    assert rep.F2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.F3 == pytest.approx(0.5, abs=1e-12)
    assert rep.m0 == pytest.approx(1.0, abs=1e-12)
    assert rep.m1 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(rep.L_eta) <= 1e-12
    assert rep.R_eta == pytest.approx(0.0, abs=1e-12)
    assert rep.all_hold
    assert [l.name for l in rep.links] == ["F1<=F2", "F2<=F3"]
    # Same quadrature, same integrand: the mean term is bitwise the
    # unweighted integral.
    hh = hh_terms(f, _DIFF, 0.0, 0.0, 1.0, _CTX1)
    assert rep.F2 == hh.integral


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_unit_weight_moment_closed_forms(alpha):
    """m0 = span^al/g1 and m2 = span^(2al) g1/Gamma(1+2al) for w = 1."""
    ctx = AlphaContext(alpha=alpha)
    a, b = 0.5, 2.0
    span = b - a
    rep = fejer_terms(_f("x^(2a)", a, b), _DIFF, 0.0, _w("1", a, b), a, b, ctx)
    g1 = gamma(1 + alpha)
    assert rep.m0 == pytest.approx(span**alpha / g1, rel=1e-9)
    assert rep.m2 == pytest.approx(span ** (2 * alpha) * g1 / gamma(1 + 2 * alpha), rel=1e-9)


def test_unit_weight_cross_moment_frozen_value():
    """m3 at al = 1/2 on [0,1] equals the frozen product-integrand value."""
    rep = fejer_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, _w("1", 0.0, 1.0),
                      0.0, 1.0, AlphaContext(alpha=0.5))
    assert rep.m3 == pytest.approx(0.3761263890318375246321, rel=1e-8)


def test_kinked_weighted_terms_frozen_values():
    """f = |x - 0.3|^al, eta = 2^a u + v, w = 1 on [0, 1] at al = 0.3.

    References from mpmath at 40 digits, each integral split at its kinks:
    F2 at 0.3, L at 0.3 and its mirror 0.7, m1 at t = 0.5.  Each must be
    within the quadrature rtol (1e-9), which needs every split.
    """
    ctx = AlphaContext(alpha=0.3)
    rep = fejer_terms(_f("abs(x - 0.3)^(a)", 0.0, 1.0), EtaSpec.from_text("2^a*u + v"),
                      0.0, _w("1", 0.0, 1.0), 0.0, 1.0, ctx)
    for got, ref in ((rep.F2, 0.8705209376278973070186),
                     (rep.L_eta, 1.414778251852724863962),
                     (rep.m1, 0.8779364448827291835579)):
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))


def test_parabolic_weight_classical_values():
    """w = x(1-x) on [0,1], al=1: F2 = 1/4 - 1/5, F1 = f(1/2) m0 = 1/24."""
    f = _f("x^(2a)", 0.0, 1.0)
    w = _w("(x - lo)^(a)*(hi - x)^(a)", 0.0, 1.0, lo=0.0, hi=1.0)
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
    f = _f("x^(2a)", 0.0, 1.0)
    rep = fejer_terms(f, _DIFF, c, _w("1", 0.0, 1.0), 0.0, 1.0, ctx)
    fm = f.evaluate(0.5, ctx)
    fa, fb = f.evaluate(0.0, ctx), f.evaluate(1.0, ctx)
    rec1 = fm * rep.m0 - rep.L_eta + c**alpha / 4.0**alpha * rep.m1
    rec3 = (fa + fb) / 2.0**alpha * rep.m0 + rep.R_eta - c**alpha * rep.m3
    scale = 1.0 + max(abs(rep.F1), abs(rep.F3))
    assert abs(rep.F1 - rec1) <= 1e-12 * scale
    assert abs(rep.F3 - rec3) <= 1e-12 * scale


def test_weighted_chain_rejects_asymmetric_weight():
    f = _f("x^(2a)", 0.0, 1.0)
    with pytest.raises(SymmetryError, match="not symmetric"):
        fejer_terms(f, _DIFF, 0.0, _w("x^(a)", 0.0, 1.0), 0.0, 1.0, _CTX1)
    with pytest.raises(SymmetryError, match="negative"):
        fejer_terms(f, _DIFF, 0.0, _w("-1", 0.0, 1.0), 0.0, 1.0, _CTX1)


def test_weighted_report_dict_shape():
    rep = fejer_terms(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, _w("1", 0.0, 1.0),
                      0.0, 1.0, _CTX1)
    d = json.loads(cli._json_text(rep, "\n"))
    assert set(d) == {"alpha", "interval", "c", "m0", "m1", "m2", "m3",
                      "L_eta", "R_eta", "F1", "F2", "F3", "link_tol", "links",
                      "all_hold"}


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
    rep = hh_fejer_consistency(_f(text, lo, hi), _DIFF, 0.0, lo, hi, ctx)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert names == [
        "F2 recomposes the mean integral",
        "R recomposes the eta-average term",
        "L bounded by the eta sup",
    ]
    eq1, eq2, le3 = rep.checks
    assert eq1.kind == "eq" and eq2.kind == "eq" and le3.kind == "le"
    assert abs(eq1.lhs - eq1.rhs) <= eq1.tol
    assert abs(eq2.lhs - eq2.rhs) <= eq2.tol
    assert le3.lhs <= le3.rhs + le3.tol


def test_consistency_degenerate_eta():
    """eta = 0 zeroes L, R, and the sup bound; all checks stay exact."""
    rep = hh_fejer_consistency(_f("x^(2a)", 0.0, 1.0), EtaSpec.from_text("0"),
                               0.0, 0.0, 1.0, _CTX1)
    assert rep.ok
    _, eq2, le3 = rep.checks
    assert eq2.lhs == 0.0 and eq2.rhs == 0.0
    assert le3.lhs == 0.0 and le3.rhs == 0.0


def test_consistency_carries_both_reports():
    rep = hh_fejer_consistency(_f("x^(2a)", 0.0, 1.0), _DIFF, 0.0, 0.0, 1.0, _CTX1)
    assert rep.hh.alpha == 1.0
    assert rep.fejer.alpha == 1.0
    assert rep.fejer.F2 == rep.hh.integral
