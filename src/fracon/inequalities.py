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

With w = 1 the Fejer chain recomposes the Hermite--Hadamard one; the test
suite asserts those identities numerically (``tests/paper_checks.py``).

m0, m2 and m3 integrate over the same t-interval with the same kinks, so
their first passes run on one cached node array, and w(x(t)) is sampled
on it once instead of three times: with the parabolic weight, w's
evaluation was most of the difference between a Fejer call and one with
w = 1.  Holding that sample through the three integrals costs nothing at
the peak (a smooth-f call's traced peak fell from 89,970 to 89,530 B,
since m0 no longer samples w into a fresh array).  Nothing else is
shared.  Keeping t**al per node array for m2 and m3 as well raised that
peak to 98,370 B, for a power that costs less than the array it would
hold.  L and F2 also run on one mesh, but sharing f and w between them
would hold one more mesh-sized array through L's phase, which sets the
traced peak of a call on a kinked f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import IntegralBackend, NUMERIC, _integral, lf_integral
from .convexity import _check_interval, check_symmetry, estimate_eta_sup
from .expr import EtaSpec, FunctionSpec, WeightSpec
from .fractal_scalar import AlphaContext, gamma

__all__ = [
    "LinkStatus",
    "HHReport",
    "FejerReport",
    "hh_terms",
    "fejer_terms",
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


def _endpoint_values(
    f: FunctionSpec, eta: EtaSpec, a: float, b: float, ctx: AlphaContext
) -> tuple[float, float, float, float, float]:
    """f(a), f(b), f((a+b)/2), eta(f(a), f(b)) and eta(f(b), f(a)), from one
    call of f and one of eta, in the arithmetic of the integrals."""
    fa, fb, fm = f.evaluate_many(np.array([a, b, (a + b) / 2.0]), ctx).tolist()
    e_ab, e_ba = eta.evaluate_many(np.array([fa, fb]), np.array([fb, fa]), ctx).tolist()
    return fa, fb, fm, e_ab, e_ba


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
    a, b = _check_interval(a, b, c)
    al = ctx.alpha
    g1 = gamma(1.0 + al)
    A = gamma(1.0 + 2.0 * al) / gamma(1.0 + 3.0 * al)
    B = g1 / gamma(1.0 + 2.0 * al)
    span = b - a
    ca = c**al

    fa, fb, fm, e_ab, e_ba = _endpoint_values(f, eta, a, b, ctx)
    if m_eta is None:
        M = estimate_eta_sup(f, eta, a, b, ctx)
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


def _shared_w_moments(w: WeightSpec, a: float, span: float, ctx: AlphaContext,
                      integral) -> tuple[float, float, float]:
    """m0, m2 and m3, whose three integrals sample w once per node array.

    ``integral(name, fn)`` integrates fn over t in [0, 1] with w's kinks
    as breakpoints, so the three integrals share one mesh key, and their
    first passes receive the one node array that ``_mesh`` caches.  w is
    sampled once on it; any other array (a refinement pass, or a mesh too
    large to cache, which is built anew per call) is sampled anew, and the
    sample is dropped when the helper returns, also on an error.  The
    t-factors are formed per integral and w's sample multiplied into them
    (a product rounds the same in either operand order), m3's as
    (t**al * (1 - t)**al) * w.
    """
    al = ctx.alpha
    seen: list = []  # the last node array and w sampled on it

    def w_at(ts: np.ndarray) -> np.ndarray:
        if not (seen and seen[0] is ts):
            seen.clear()
            seen.extend((ts, w.evaluate_many(a + ts * span, ctx)))
        return seen[1]

    def m2_integrand(ts: np.ndarray) -> np.ndarray:
        tf = ts**al
        tf *= w_at(ts)
        return tf

    def m3_integrand(ts: np.ndarray) -> np.ndarray:
        tf = 1.0 - ts
        tf **= al
        np.multiply(ts**al, tf, out=tf)
        tf *= w_at(ts)
        return tf

    try:
        m0 = span**al * integral("m0", w_at)
        m2 = span ** (2 * al) * integral("m2", m2_integrand)
        m3 = span ** (3 * al) * integral("m3", m3_integrand)
    finally:
        seen.clear()
    return m0, m2, m3


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
    numeric route (weights make the exact table inapplicable in general);
    one that does not converge raises
    :class:`~fracon.calculus.IntegrationError` naming its term.
    """
    a, b = _check_interval(a, b, c)
    check_symmetry(w, a, b, ctx)

    al = ctx.alpha
    span = b - a
    ca = c**al
    fa, fb, fm, e_ab, e_ba = _endpoint_values(f, eta, a, b, ctx)

    # Kinks of each integrand, as breakpoints for the quadrature.
    f_pts, w_pts = f.singular_points(), w.singular_points()
    t_pts = tuple((p - a) / span for p in w_pts)

    def integral(name, fn, lo=0.0, hi=1.0, points=t_pts) -> float:
        return _integral(f"Fejer term {name}'s integral", fn, lo, hi, al, points)

    def m1_integrand(ts: np.ndarray) -> np.ndarray:
        """|1 - 2t|**(2 al) * w, the power built in one array and multiplied
        into w's, which w's evaluation made."""
        wt = w.evaluate_many(a + ts * span, ctx)
        s = 2.0 * ts
        np.subtract(1.0, s, out=s)
        np.abs(s, out=s)
        s **= 2 * al
        wt *= s
        return wt

    m0, m2, m3 = _shared_w_moments(w, a, span, ctx, integral)
    m1 = span ** (3 * al) * integral("m1", m1_integrand, points=t_pts + (0.5,))

    def eta_integrand(xs: np.ndarray) -> np.ndarray:
        """eta(f(a+b-x), f(x)) * w(x).  The f samples are freed when eta
        returns, and w is multiplied into eta's array, which it owns."""
        values = eta.evaluate_many(f.evaluate_many(a + b - xs, ctx), f.evaluate_many(xs, ctx), ctx)
        values *= w.evaluate_many(xs, ctx)
        return values

    mirrored = tuple(a + b - p for p in f_pts)
    L = integral("L_eta", eta_integrand, a, b, f_pts + mirrored + w_pts) / 2**al

    def f2_integrand(xs: np.ndarray) -> np.ndarray:
        values = f.evaluate_many(xs, ctx)
        values *= w.evaluate_many(xs, ctx)
        return values

    F2 = integral("F2", f2_integrand, a, b, f_pts + w_pts)
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
