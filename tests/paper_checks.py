"""Checks of two statements of the paper that only the tests run: the w = 1
Fejer chain recomposes the plain chain, and the fractional minimum-point
property holds at a sampled minimizer."""

from __future__ import annotations

import numpy as np

from fracon import (
    DerivativeMode,
    NotPolynomial,
    WeightSpec,
    fejer_terms,
    gamma,
    hh_terms,
    inequalities,
    lf_derivative,
)


def unit_weight_recomposition(f, eta, c, a, b, ctx):
    """Assert the three w = 1 recomposition identities on [a, b].

    With k = Gamma(1+al)/span**al:

    (i)   F2 * k equals T2's integral part, k * (a_I_b f);
    (ii)  R * k equals T3's eta-average term;
    (iii) L * k <= M / 2**al: the weighted midpoint correction never
          exceeds the sampled eta bound.

    (i) and (ii) hold within ``inequalities._link_tol`` of their right
    side, (iii) within ``inequalities._LINK_RTOL``; both are read from the
    library at call time.  The plain chain runs on the numeric route, and
    F2 on the Beta table wherever f has a normal form, so (i) compares the
    two routes.  Returns the plain and the weighted report and the three
    (lhs, rhs) pairs.
    """
    al = ctx.alpha
    g1 = gamma(1.0 + al)
    hh = hh_terms(f, eta, c, a, b, ctx)
    fj = fejer_terms(f, eta, c, WeightSpec.from_text("1"), a, b, ctx)
    k = g1 / (b - a) ** al
    sides = (
        (fj.F2 * k, k * hh.integral),
        (fj.R_eta * k, g1 * (hh.eta_ab + hh.eta_ba) / 2**al * hh.B),
        (fj.L_eta * k, hh.m_eta / 2**al),
    )
    (lhs1, rhs1), (lhs2, rhs2), (lhs3, rhs3) = sides
    assert abs(lhs1 - rhs1) <= inequalities._link_tol(rhs1), "F2 recomposes the mean integral"
    assert abs(lhs2 - rhs2) <= inequalities._link_tol(rhs2), "R recomposes the eta-average term"
    assert lhs3 <= rhs3 + inequalities._LINK_RTOL, "L bounded by the eta sup"
    return hh, fj, sides


def minimum_condition(f, eta, c, a, b, ctx):
    """Locate the sampled minimizer x* of f on [a, b] and test the minimum property.

    At x*, for every grid point y with f^(al)(x*) (y - x*)**al / Gamma(1 + al)
    >= -1e-12 scale (the stationarity antecedent), membership requires
    eta(f(y), f(x*)) >= c**al |y - x*|**(2 al); a consequent below -1e-9
    is a violation.  The minimizer search is the 1-D analogue of the
    certification lattice: argmin over 200 grid points, then three 13-point
    refinement rounds shrinking 3x.  The derivative at x* uses the exact
    rule when f normalizes about a, and finite differences otherwise.

    Returns a dict of x_star, f_star, derivative, derivative_mode ("exact"
    or "fd"), antecedent_count, checked and violations ((y, margin) pairs).
    """
    al = ctx.alpha
    n = 200
    xs = np.linspace(a, b, n)
    fx = f.evaluate_many(xs, ctx)
    i = int(np.argmin(fx))
    x_star, f_star = float(xs[i]), float(fx[i])
    w = (b - a) / (n - 1)
    for _ in range(3):
        lx = np.linspace(max(a, x_star - w), min(b, x_star + w), 13)
        lf = f.evaluate_many(lx, ctx)
        j = int(np.argmin(lf))
        if float(lf[j]) < f_star:
            x_star, f_star = float(lx[j]), float(lf[j])
        w /= 3.0
    try:
        deriv = lf_derivative(f, x_star, ctx, DerivativeMode.EXACT_MONOMIAL, s=a)
        mode = "exact"
    except NotPolynomial:
        deriv = lf_derivative(f, x_star, ctx, DerivativeMode.FINITE_DIFFERENCE, s=a)
        mode = "fd"

    dy = xs - x_star
    ante = deriv * (np.sign(dy) * np.abs(dy) ** al) / gamma(1.0 + al)
    active = ante >= -1e-12 * (1.0 + float(np.max(np.abs(ante))))
    cons = eta.evaluate_many(fx, np.full_like(fx, f_star), ctx) - c**al * np.abs(dy) ** (2.0 * al)
    bad = active & (cons < -1e-9)
    return {
        "x_star": x_star,
        "f_star": f_star,
        "derivative": deriv,
        "derivative_mode": mode,
        "antecedent_count": int(np.count_nonzero(active)),
        "checked": n,
        "violations": tuple((float(xs[k]), float(cons[k])) for k in np.nonzero(bad)[0]),
    }
