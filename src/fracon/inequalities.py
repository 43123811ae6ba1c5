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

Pulled back to x, m0 = a_I_b w, m2 = a_I_b (x-a)**al w and
m3 = a_I_b (x-a)**al (b-x)**al w.  So when w has a two-endpoint normal form
(``expr.normal_form``), these three, and F2 and L when f and eta's
composition have forms too, are sums of Beta integrals
(``calculus._beta_integral``).  m1 is hypergeometric, and for such a w it
has a closed form too (``calculus._m1_integral``): with p = k al,
q = j al and N = p + q + 3 al + 1, a term c (x-a)**p (b-x)**q of w adds
c * span**(p+q+3 al) times

    2**-N / Gamma(al) * (B(p+1, 2 al+1) S(N, 2 al+1; p+2 al+2)
                         + B(q+al, 2 al+1) S(N, 2 al+1; q+3 al+1)),

S(A, B; C) = sum_n (A)_n (B)_n / ((C)_n n!) 2**-n, a Gauss series of
positive terms.  Each of the six integrals takes its route by
``calculus._exact_first`` under "auto", one integral at a time: the
closed form (route "exact") wherever it gives a value, else
``rl_integrate`` (route "rl"); the report names each integral's route.
Over the preset rows the two routes agree within 1.4e-10 * (1 + |v|),
and the quadrature values were up to 6.4e-10 relative off the closed
forms.

w must be symmetric about the midpoint and nonnegative.  When its normal
form has only finite coefficients c(k, j) >= 0 with c(k, j) == c(j, k),
it is both, and ``convexity.check_symmetry`` does not sample it; every
other w is sampled (see ``check_symmetry``).

On the rl route, each integral samples its own functions.  Sharing w's
sample between m0, m2 and m3 would pay only for a weight with no normal
form (both preset weights take the three from the Beta table).  L and F2
run on one mesh too, but sharing f and w between them would hold one more
mesh-sized array through L's phase, which sets the traced peak of a call
on a kinked f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import (IntegralBackend, NUMERIC, _beta_integral, _exact_first, _integral,
                       _m1_integral, lf_integral)
from .convexity import _check_interval, check_symmetry, estimate_eta_sup
from .expr import EtaSpec, Form, FunctionSpec, NotPolynomial, WeightSpec, _pmul
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
    routes: dict[str, str]  # integral name -> "exact" | "rl"
    link_tol: float
    links: tuple[LinkStatus, ...]
    all_hold: bool


def _walked(form: Callable[..., Form], *args) -> Callable[[], Form]:
    """A thunk for ``form(*args)``, walked now: it returns the form, or
    raises a new NotPolynomial with the walk's message each call."""
    try:
        value = form(*args)
    except NotPolynomial as exc:
        message = str(exc)

        def fail() -> Form:
            raise NotPolynomial(message)

        return fail
    return lambda: value


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

    Preconditions: w symmetric about (a+b)/2 and nonnegative, checked by
    ``check_symmetry``: from w's normal form when its coefficients are
    finite, >= 0 and c(k, j) == c(j, k), else by sampling 1001 points;
    violations raise :class:`~fracon.convexity.SymmetryError`.

    Each integral takes its route by ``calculus._exact_first`` under
    "auto" (see the module docstring): m0, m1, m2 and m3 have closed forms
    when w has a normal form on [a, b], F2 when f has one too, and L when
    eta's composition with f has one as well; both preset weights and eta
    maps do, and so does f wherever it is a generalized polynomial on
    [a, b] (``x^(2a)`` on [0, 1] at every alpha, for instance).  An rl
    integral that does not converge raises
    :class:`~fracon.calculus.IntegrationError` naming its term.
    ``routes`` names each integral's route.
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

    w_form, f_form = _walked(w.form, a, b, ctx), _walked(f.form, a, b, ctx)
    routes: dict[str, str] = {}

    def route(name: str, form: Callable[[], Form], scale: float,
              fn: Callable[[np.ndarray], np.ndarray], lo=0.0, hi=1.0, points=t_pts,
              rule=_beta_integral) -> float:
        """Integral ``name`` by the route rule: ``rule`` on ``form()``, or
        ``scale`` times the rl integral of ``fn`` over [lo, hi]."""
        value, routes[name] = _exact_first("auto", lambda: rule(form(), span, al), lambda: (
            scale * _integral(f"Fejer term {name}'s integral", fn, lo, hi, al, points)))
        return value

    def w_times(dk: int, dj: int) -> Callable[[], Form]:
        """The form of (x-a)**(dk al) * (b-x)**(dj al) * w."""
        return lambda: {(k + dk, j + dj): cw for (k, j), cw in w_form().items()}

    def eta_form() -> Form:
        """The form of eta(f(a+b-x), f(x)): f(a+b-x)'s is f's with k and j swapped."""
        return eta.form({(j, k): cf for (k, j), cf in f_form().items()}, f_form(), a, b, ctx)

    def w_t(ts: np.ndarray) -> np.ndarray:
        return w.evaluate_many(a + ts * span, ctx)

    def m1_integrand(ts: np.ndarray) -> np.ndarray:
        """|1 - 2t|**(2 al) * w, the power built in one array and
        multiplied into w's, which w's evaluation made."""
        wt = w_t(ts)
        s = 2.0 * ts
        np.subtract(1.0, s, out=s)
        np.abs(s, out=s)
        s **= 2 * al
        wt *= s
        return wt

    def eta_integrand(xs: np.ndarray) -> np.ndarray:
        """eta(f(a+b-x), f(x)) * w(x).  The f samples are freed when eta
        returns, and w is multiplied into eta's array, which it owns."""
        values = eta.evaluate_many(f.evaluate_many(a + b - xs, ctx), f.evaluate_many(xs, ctx), ctx)
        values *= w.evaluate_many(xs, ctx)
        return values

    def f2_integrand(xs: np.ndarray) -> np.ndarray:
        values = f.evaluate_many(xs, ctx)
        values *= w.evaluate_many(xs, ctx)
        return values

    m0 = route("m0", w_form, span**al, w_t)
    m1 = route("m1", w_form, span ** (3 * al), m1_integrand, points=t_pts + (0.5,),
               rule=_m1_integral)
    m2 = route("m2", w_times(1, 0), span ** (2 * al), lambda ts: ts**al * w_t(ts))
    m3 = route("m3", w_times(1, 1), span ** (3 * al),
               lambda ts: (ts**al * (1 - ts)**al) * w_t(ts))
    L = route("L_eta", lambda: _pmul(eta_form(), w_form()), 1.0, eta_integrand, a, b,
              f_pts + tuple(a + b - p for p in f_pts) + w_pts) / 2**al
    F2 = route("F2", lambda: _pmul(f_form(), w_form()), 1.0, f2_integrand, a, b, f_pts + w_pts)
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
        routes=routes,
        link_tol=tol,
        links=links,
        all_hold=all(link.holds for link in links),
    )
