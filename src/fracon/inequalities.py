"""Hermite--Hadamard and Fejer chains for generalized strong eta-convexity.

Every chain link is measured independently and reported with a signed gap;
nothing is derived from "the theorem says so".  At alpha = 1 with
eta(u, v) = u - v and c = 0 the chains collapse to the classical convexity
sandwich.  For alpha < 1 some links may genuinely fail on magnitude-valued
functions (several steps of the formal derivation use the additive
embedding identity, which magnitude semantics does not satisfy); the job
here is to measure, not to assume.

Chain terms, with al = alpha, g1 = Gamma(1+al),
A = Gamma(1+2 al)/Gamma(1+3 al), B = g1/Gamma(1+2 al), span = b - a,
and M the sampled (or supplied) bound on eta values:

    T1 = f((a+b)/2) - M / 2**al
    T2 = g1/span**al * (a_I_b f  -  c**al/4**al * span**(3 al) * A)
    T3 = (f(a)+f(b))/2**al
         + g1 * ( (eta(f(a),f(b)) + eta(f(b),f(a)))/2**al * B
                  - c**al * span**(2 al) * (B - A) )
    T4 = same as T3 with M * B in place of the eta-average term.

The proof-side midpoint quantities A1, A2 (whose min bounds the midpoint
average) are reported for diagnosis.  The Fejer terms use a symmetric
nonnegative weight w; its moments are evaluated in the t-space pullback
x(t) = a + t*span (for symmetric w this is pointwise the same integrand
the chain's derivation integrates, and it keeps the constants exact under
the kernel realization):

    m0 = span**al       * 0_I_1 w(x(t))
    m1 = span**(3 al)   * 0_I_1 |1-2t|**(2 al) * w(x(t))
    m2 = span**(2 al)   * 0_I_1 t**al * w(x(t))
    m3 = span**(3 al)   * 0_I_1 t**al (1-t)**al * w(x(t))
    L  = 1/2**al * a_I_b eta(f(a+b-x), f(x)) w(x)
    F1 = f((a+b)/2) m0 - L + c**al/4**al * m1
    F2 = a_I_b f w
    F3 = (f(a)+f(b))/2**al * m0 + R - c**al * m3,
    R  = (eta(f(a),f(b)) + eta(f(b),f(a))) / (2**al span**al) * m2.

With w = 1 the Fejer chain recomposes the Hermite--Hadamard one; the
consistency checker asserts those identities numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import IntegralBackend, NUMERIC, lf_integral, rl_integrate
from .convexity import check_symmetry, estimate_eta_sup
from .expr import EtaSpec, FunctionSpec, WeightSpec
from .fractal_scalar import AlphaContext, gamma

__all__ = [
    "LinkStatus",
    "HHReport",
    "FejerReport",
    "ConsistencyCheck",
    "ConsistencyReport",
    "hh_terms",
    "fejer_terms",
    "hh_fejer_consistency",
]

_LINK_RTOL = 1e-9


@dataclass(frozen=True)
class LinkStatus:
    """One inequality link: holds iff lo <= hi + tol; gap = hi - lo."""

    name: str
    holds: bool
    gap: float


def _link_tol(*terms: float) -> float:
    """The link tolerance: _LINK_RTOL relative to the largest |term|."""
    return _LINK_RTOL * (1.0 + max(abs(t) for t in terms))


def _links(names_values: list[tuple[str, float, float]]) -> tuple[float, tuple[LinkStatus, ...]]:
    """Verdicts on ``(name, lo, hi)`` links, and the tolerance they share."""
    tol = _link_tol(*(v for _, lo, hi in names_values for v in (lo, hi)))
    return tol, tuple(LinkStatus(name, lo <= hi + tol, hi - lo) for name, lo, hi in names_values)


def _check_chain_inputs(a: float, b: float, c: float) -> tuple[float, float]:
    """[a, b] as floats; a >= b or c < 0 (or NaN) is a ValueError."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    if not c >= 0.0:
        raise ValueError(f"c must be >= 0, got {c!r}")
    return a, b


def _endpoint_values(
    f: FunctionSpec, eta: EtaSpec, a: float, b: float, ctx: AlphaContext
) -> tuple[float, float, float, float, float]:
    """f(a), f(b), f((a+b)/2), eta(f(a), f(b)) and eta(f(b), f(a))."""
    fa = f.evaluate(a, ctx)
    fb = f.evaluate(b, ctx)
    fm = f.evaluate((a + b) / 2.0, ctx)
    return fa, fb, fm, eta.evaluate(fa, fb, ctx), eta.evaluate(fb, fa, ctx)


@dataclass(frozen=True)
class HHReport:
    """Hermite--Hadamard chain terms with per-link verdicts; ``all_hold`` is
    true iff every link holds."""

    alpha: float
    interval: tuple[float, float]
    c: float
    backend: str
    m_eta: float
    m_eta_source: str  # "estimated" | "supplied"
    integral: float
    eta_ab: float
    eta_ba: float
    A: float
    B: float
    T1: float
    T2: float
    T3: float
    T4: float
    A1: float
    A2: float
    link_tol: float
    links: tuple[LinkStatus, ...]
    all_hold: bool


def hh_terms(
    f: FunctionSpec,
    eta: EtaSpec,
    c: float,
    a: float,
    b: float,
    ctx: AlphaContext,
    backend: IntegralBackend = NUMERIC,
    m_eta: Optional[float] = None,
) -> HHReport:
    """Evaluate the four Hermite--Hadamard chain terms and their links.

    ``m_eta`` is the bound on eta values (magnitude semantics); when not
    supplied it is the sup of eta over f-image pairs on a 512-point grid of
    [a, b].  Links hold up to 1e-9 relative to the term scale.
    """
    a, b = _check_chain_inputs(a, b, c)
    al = ctx.alpha
    g1 = gamma(1.0 + al)
    A = gamma(1.0 + 2.0 * al) / gamma(1.0 + 3.0 * al)
    B = g1 / gamma(1.0 + 2.0 * al)
    span = b - a
    ca = c**al

    fa, fb, fm, e_ab, e_ba = _endpoint_values(f, eta, a, b, ctx)
    if m_eta is None:
        M = estimate_eta_sup(f, eta, ctx, a=a, b=b)
        source = "estimated"
    else:
        M = float(m_eta)
        source = "supplied"

    integral = lf_integral(f, a, b, ctx, backend)

    T1 = fm - M / 2**al
    T2 = g1 / span**al * (integral - ca / 4**al * span ** (3 * al) * A)
    T3 = (fa + fb) / 2**al + g1 * (
        (e_ab + e_ba) / 2**al * B - ca * span ** (2 * al) * (B - A)
    )
    T4 = (fa + fb) / 2**al + g1 * (M * B - ca * span ** (2 * al) * (B - A))
    A1 = fb + e_ab * g1 * B - ca * span ** (2 * al) * g1 * (B - A)
    A2 = fa + e_ba * g1 * B - ca * span ** (2 * al) * g1 * (B - A)

    tol, links = _links([("T1<=T2", T1, T2), ("T2<=T3", T2, T3), ("T3<=T4", T3, T4)])
    return HHReport(
        alpha=al,
        interval=(a, b),
        c=c,
        backend=backend.kind.value,
        m_eta=M,
        m_eta_source=source,
        integral=integral,
        eta_ab=e_ab,
        eta_ba=e_ba,
        A=A,
        B=B,
        T1=T1,
        T2=T2,
        T3=T3,
        T4=T4,
        A1=A1,
        A2=A2,
        link_tol=tol,
        links=links,
        all_hold=all(link.holds for link in links),
    )


@dataclass(frozen=True)
class FejerReport:
    """Weighted (Fejer) chain terms with per-link verdicts; ``all_hold`` is
    true iff every link holds."""

    alpha: float
    interval: tuple[float, float]
    c: float
    m0: float
    m1: float
    m2: float
    m3: float
    L_eta: float
    R_eta: float
    F1: float
    F2: float
    F3: float
    link_tol: float
    links: tuple[LinkStatus, ...]
    all_hold: bool


def fejer_terms(
    f: FunctionSpec,
    eta: EtaSpec,
    c: float,
    w: WeightSpec,
    a: float,
    b: float,
    ctx: AlphaContext,
) -> FejerReport:
    """Evaluate the three Fejer chain terms for a symmetric weight.

    Preconditions: w symmetric about (a+b)/2 and nonnegative (sampled at
    1001 points by ``check_symmetry``); violations raise
    :class:`~fracon.convexity.SymmetryError`.  All integrals run on the
    numeric route (weights make the exact table inapplicable in general).
    """
    a, b = _check_chain_inputs(a, b, c)
    check_symmetry(w, a, b, ctx)

    al = ctx.alpha
    span = b - a
    ca = c**al
    fa, fb, fm, e_ab, e_ba = _endpoint_values(f, eta, a, b, ctx)

    # Kinks of each integrand, as breakpoints for the quadrature.
    f_pts, w_pts = f.singular_points(), w.singular_points()
    t_pts = tuple((p - a) / span for p in w_pts)

    def wx(ts: np.ndarray) -> np.ndarray:
        return w.evaluate_many(a + ts * span, ctx)

    def q01(fn, points=t_pts) -> float:
        return rl_integrate(fn, 0.0, 1.0, al, points=points).value

    m0 = span**al * q01(wx)
    m1 = span ** (3 * al) * q01(
        lambda ts: np.abs(1.0 - 2.0 * ts) ** (2 * al) * wx(ts), t_pts + (0.5,)
    )
    m2 = span ** (2 * al) * q01(lambda ts: ts**al * wx(ts))
    m3 = span ** (3 * al) * q01(lambda ts: ts**al * (1.0 - ts) ** al * wx(ts))

    def eta_integrand(xs: np.ndarray) -> np.ndarray:
        fxs = f.evaluate_many(xs, ctx)
        frev = f.evaluate_many(a + b - xs, ctx)
        return eta.evaluate_many(frev, fxs, ctx) * w.evaluate_many(xs, ctx)

    mirrored = tuple(a + b - p for p in f_pts)
    L = rl_integrate(eta_integrand, a, b, al, points=f_pts + mirrored + w_pts).value / 2**al
    F2 = rl_integrate(
        lambda xs: f.evaluate_many(xs, ctx) * w.evaluate_many(xs, ctx), a, b, al,
        points=f_pts + w_pts,
    ).value
    R = (e_ab + e_ba) / (2**al * span**al) * m2

    F1 = fm * m0 - L + ca / 4**al * m1
    F3 = (fa + fb) / 2**al * m0 + R - ca * m3

    tol, links = _links([("F1<=F2", F1, F2), ("F2<=F3", F2, F3)])
    return FejerReport(
        alpha=al,
        interval=(a, b),
        c=c,
        m0=m0,
        m1=m1,
        m2=m2,
        m3=m3,
        L_eta=L,
        R_eta=R,
        F1=F1,
        F2=F2,
        F3=F3,
        link_tol=tol,
        links=links,
        all_hold=all(link.holds for link in links),
    )


@dataclass(frozen=True)
class ConsistencyCheck:
    """One recomposition identity: lhs == rhs (eq) or lhs <= rhs (le)."""

    name: str
    kind: str  # "eq" | "le"
    lhs: float
    rhs: float
    tol: float
    ok: bool


@dataclass(frozen=True)
class ConsistencyReport:
    """w = 1 recomposition of the Fejer chain into the plain chain."""

    checks: tuple[ConsistencyCheck, ...]
    hh: HHReport
    fejer: FejerReport

    @property
    def ok(self) -> bool:
        return all(ch.ok for ch in self.checks)


def hh_fejer_consistency(
    f: FunctionSpec,
    eta: EtaSpec,
    c: float,
    a: float,
    b: float,
    ctx: AlphaContext,
) -> ConsistencyReport:
    """Check that the w = 1 Fejer chain recomposes the plain chain.

    (i)  F2 * Gamma(1+al)/span**al equals T2's integral part,
    (ii) R * Gamma(1+al)/span**al equals the eta-average term of T3,
    (iii) L * Gamma(1+al)/span**al <= M / 2**al (+_LINK_RTOL): the
          weighted midpoint correction never exceeds the sampled eta bound.

    Both sides run on the numeric route so (i) compares identical
    quadrature paths.
    """
    a, b = float(a), float(b)
    al = ctx.alpha
    g1 = gamma(1.0 + al)
    span = b - a
    w1 = WeightSpec.from_text("1", domain=(a, b))
    hh = hh_terms(f, eta, c, a, b, ctx)
    fj = fejer_terms(f, eta, c, w1, a, b, ctx)
    k = g1 / span**al

    lhs1, rhs1 = fj.F2 * k, k * hh.integral
    tol1 = _link_tol(rhs1)
    lhs2 = fj.R_eta * k
    rhs2 = g1 * (hh.eta_ab + hh.eta_ba) / 2**al * hh.B
    tol2 = _link_tol(rhs2)
    lhs3, rhs3 = fj.L_eta * k, hh.m_eta / 2**al
    tol3 = _LINK_RTOL

    checks = (
        ConsistencyCheck("F2 recomposes the mean integral", "eq", lhs1, rhs1, tol1, abs(lhs1 - rhs1) <= tol1),
        ConsistencyCheck("R recomposes the eta-average term", "eq", lhs2, rhs2, tol2, abs(lhs2 - rhs2) <= tol2),
        ConsistencyCheck("L bounded by the eta sup", "le", lhs3, rhs3, tol3, lhs3 <= rhs3 + tol3),
    )
    return ConsistencyReport(checks=checks, hh=hh, fejer=fj)
