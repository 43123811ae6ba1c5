"""Local fractional integral and derivative of order alpha in (0, 1].

Realization
-----------
The integral of order alpha over [a, b] is realized as the Riemann--
Liouville form

    a_I_b f = (1/Gamma(alpha)) * integral_a^b (b - x)**(alpha - 1) f(x) dx,

normalized so that the generalized monomial table holds exactly:

    a_I_b |x - a|**(k*alpha)
        = Gamma(1 + k*alpha) / Gamma(1 + (k+1)*alpha) * (b - a)**((k+1)*alpha).

At alpha = 1 this is the ordinary integral.  The substitution
v = (b - x)**alpha removes the kernel singularity,

    a_I_b f = (1/Gamma(1 + alpha)) * integral_0^V f(b - v**(1/alpha)) dv,
    V = (b - a)**alpha,

and the numeric backend integrates that regular form with Gauss--Legendre
panels.  The transformed integrand still has weak algebraic behavior at
both ends (e.g. (V - v)**(k*alpha) factors), so the two end panels of the
uniform starting grid are subdivided geometrically toward their endpoints.
Kinks of the integrand (zeros of |x - s| and of alpha- or fractional-power
arguments) are mapped to v and inserted as breakpoints, so each one sits on
a panel edge rather than inside a panel.  Refinement is then local: each
panel's error is estimated as the difference between its Gauss--Legendre
value and the sum over its two halves, and only the panels whose estimate
exceeds their width-share of the tolerance are bisected (the QUADPACK QAGP
scheme of Piessens, de Doncker et al., 1983, with a Gauss--Legendre pair).

Derivatives use the conjugate rule

    D^alpha |x - s|**(k*alpha)
        = Gamma(1 + k*alpha) / Gamma(1 + (k-1)*alpha) * |x - s|**((k-1)*alpha)

exactly on generalized polynomials, and a finite-difference mode for
everything else.  At alpha = 1 the finite difference is the plain forward
quotient.  For alpha < 1 the two-point alpha-quotient degenerates on smooth
magnitude-valued functions (it tends to 0 with the step), so the mode
instead differentiates the order-(1-alpha) Riemann--Liouville integral
G(x) = I^(1-alpha)[f - f(s)](x) centrally: for generalized monomials
G'(x) reproduces the conjugate rule identically, which keeps the two modes
consistent wherever both apply.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .expr import FunctionSpec, GPoly
from .fractal_scalar import AlphaContext, gamma

__all__ = [
    "BackendKind",
    "IntegralBackend",
    "DerivativeMode",
    "IntegrationError",
    "QuadResult",
    "EXACT",
    "NUMERIC",
    "rl_integrate",
    "lf_integral",
    "lf_derivative",
    "backend_crosscheck",
    "CrosscheckReport",
]


class BackendKind(enum.Enum):
    EXACT_MONOMIAL = "exact"
    NUMERIC_RL = "rl"


class DerivativeMode(enum.Enum):
    EXACT_MONOMIAL = "exact"
    FINITE_DIFFERENCE = "fd"


class IntegrationError(RuntimeError):
    """Numeric integration failure (non-finite integrand sample)."""


_ALLOWED_POINTS = (4, 8, 16)


@dataclass(frozen=True)
class IntegralBackend:
    """Integration route and quadrature settings.

    ``panels`` base panels (plus the graded end panels and any kink
    breakpoints) with ``points``-point Gauss--Legendre each.  Panels whose
    local error estimate exceeds their width-share of ``rtol`` relative are
    bisected until the summed estimates meet ``rtol`` or the next pass
    would take the cumulative evaluation count past ``max_evals``.
    """

    kind: BackendKind
    panels: int = 32
    points: int = 8
    rtol: float = 1e-9
    max_evals: int = 2**20

    def __post_init__(self) -> None:
        if not isinstance(self.kind, BackendKind):
            raise ValueError(f"invalid backend kind {self.kind!r}")
        if self.panels < 1:
            raise ValueError(f"panels must be >= 1, got {self.panels!r}")
        if self.points not in _ALLOWED_POINTS:
            raise ValueError(f"points must be one of {_ALLOWED_POINTS}, got {self.points!r}")
        if not 0.0 < self.rtol < 1.0:
            raise ValueError(f"rtol must be in (0, 1), got {self.rtol!r}")
        if self.max_evals < self.panels * self.points:
            raise ValueError("max_evals too small for even one pass")


EXACT = IntegralBackend(kind=BackendKind.EXACT_MONOMIAL)
NUMERIC = IntegralBackend(kind=BackendKind.NUMERIC_RL)

# Depth of the geometric subdivision of the two end panels.  2**-46 of a
# panel is comfortably below any tolerance in play while staying far from
# denormal territory.
_END_DEPTH = 46

_gl = functools.cache(leggauss)


def _graded_breakpoints(V: float, panels: int) -> np.ndarray:
    """Uniform breakpoints on [0, V] with dyadically graded end panels."""
    base = np.linspace(0.0, V, panels + 1)
    w = base[1] - base[0]
    left = base[0] + w * 0.5 ** np.arange(_END_DEPTH, 0, -1)
    right = base[-1] - w * 0.5 ** np.arange(1, _END_DEPTH + 1)
    pts = np.concatenate((base[:1], left, base[1:-1], np.sort(right), base[-1:]))
    return np.unique(pts)


def _panel_values(
    fn: Callable[[np.ndarray], np.ndarray], left: np.ndarray, right: np.ndarray, points: int
) -> np.ndarray:
    """Gauss--Legendre value of fn over each panel [left[i], right[i]]."""
    nodes, wts = _gl(points)
    half = 0.5 * (right - left)
    mid = 0.5 * (left + right)
    xs = mid[:, None] + nodes[None, :] * half[:, None]
    vals = np.asarray(fn(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.broadcast_to(vals, xs.shape)
    if not np.all(np.isfinite(vals)):
        raise IntegrationError("non-finite integrand sample")
    return np.sum(vals * wts[None, :], axis=1) * half


@dataclass(frozen=True)
class QuadResult:
    """Adaptive quadrature outcome with its effort diagnostics."""

    value: float
    evals: int
    levels: int
    converged: bool


def rl_integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    order: float,
    quad: IntegralBackend = NUMERIC,
    points: Iterable[float] = (),
) -> QuadResult:
    """Order-``order`` integral of a vectorized callable over [a, b].

    Evaluates (1/Gamma(1+order)) * integral_0^V fn(b - v**(1/order)) dv
    with V = (b - a)**order on the graded panel grid, with every abscissa
    of ``points`` inside (a, b) (kinks of fn; others are ignored) added as
    a breakpoint.  Each pass evaluates fn once, on the halves of the live
    panels; a panel's error estimate is |its value - the sum of its
    halves|.  The result has converged when the accepted plus the live
    estimates are within ``quad.rtol * (1 + |value|)``.  Otherwise the
    panels whose estimate exceeds their width-share of that tolerance are
    bisected, and the others are accepted.  The loop stops unconverged when
    the next pass would exceed ``quad.max_evals`` cumulative samples, or
    when rounding leaves the total over the tolerance with no panel over
    its share.  Requires a < b (callers handle orientation and the empty
    interval).
    """
    a, b = float(a), float(b)
    if not b > a:
        raise ValueError("rl_integrate requires a < b")
    V = (b - a) ** order
    inv = 1.0 / order
    lo, hi = a, b

    def g(v: np.ndarray) -> np.ndarray:
        return fn(np.clip(b - v**inv, lo, hi))

    kinks = [(b - p) ** order for p in map(float, points) if a < p < b]
    bpts = _graded_breakpoints(V, quad.panels)
    if kinks:
        bpts = np.union1d(bpts, kinks)
    left, right = bpts[:-1], bpts[1:]
    if 3 * left.size * quad.points > quad.max_evals:
        raise ValueError(
            f"max_evals={quad.max_evals} is below the first pass's "
            f"{3 * left.size * quad.points} evaluations"
        )
    coarse = _panel_values(g, left, right, quad.points)
    evals, levels = left.size * quad.points, 0
    done_value = done_err = 0.0  # sums over the accepted panels
    converged = False
    while True:
        mid = 0.5 * (left + right)
        # Halves interleaved (left_0, right_0, left_1, ...): on the first
        # pass this is the sorted halved grid, summed in grid order.
        hl = np.column_stack((left, mid)).ravel()
        hr = np.column_stack((mid, right)).ravel()
        vals = _panel_values(g, hl, hr, quad.points)
        evals += hl.size * quad.points
        levels += 1
        fine = vals[0::2] + vals[1::2]
        err = np.abs(coarse - fine)
        value = done_value + float(np.sum(vals))
        tol = quad.rtol * (1.0 + abs(value))
        if done_err + float(np.sum(err)) <= tol:
            converged = True
            break
        fail = err > tol * (right - left) / V
        if not fail.any():  # over the total with every panel in its share
            break
        done_value += float(np.sum(fine[~fail]))
        done_err += float(np.sum(err[~fail]))
        live = np.repeat(fail, 2)
        left, right, coarse = hl[live], hr[live], vals[live]
        if evals + 2 * left.size * quad.points > quad.max_evals:
            break
    return QuadResult(value / gamma(1.0 + order), evals, levels, converged)


def _table_integral(gp: GPoly, span: float, alpha: float) -> float:
    """Exact integral of a GPoly about the left endpoint over span > 0."""
    total = 0.0
    for k, c in gp.terms:
        total += c * gamma(1.0 + k * alpha) / gamma(1.0 + (k + 1) * alpha) * span ** ((k + 1) * alpha)
    return total


def _finite(value: float) -> float:
    """``value`` as a float; a non-finite result (an overflow) is a ValueError."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite scalar value {value!r}")
    return float(value)


def lf_integral(
    f: Union[FunctionSpec, Callable[[np.ndarray], np.ndarray]],
    a: float,
    b: float,
    ctx: AlphaContext,
    backend: IntegralBackend = NUMERIC,
) -> float:
    """Local fractional integral a_I_b f of order ctx.alpha.

    Orientation: a_I_b f = -(b_I_a f), and the value is 0 when a == b.
    The exact route needs f in generalized-polynomial form about the lower
    endpoint (raises :class:`~fracon.expr.NotPolynomial` otherwise); the
    numeric route accepts any vectorized integrand, and splits a
    FunctionSpec's integral at its singular points.  A non-finite result
    (an overflow) raises ValueError.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    if backend.kind is BackendKind.EXACT_MONOMIAL:
        if not isinstance(f, FunctionSpec):
            raise TypeError("exact backend requires a FunctionSpec")
        gp = f.gpoly(a, ctx)
        return _finite(sign * _table_integral(gp, b - a, ctx.alpha))
    if isinstance(f, FunctionSpec):
        fn, kinks = (lambda xs: f.evaluate_many(xs, ctx)), f.singular_points()
    else:
        fn, kinks = f, ()
    res = rl_integrate(fn, a, b, ctx.alpha, backend, points=kinks)
    return _finite(sign * res.value)


def _term_rule(gp: GPoly, x0: float, alpha: float) -> float:
    """Exact derivative of a GPoly about s at x0 >= s via the table rule."""
    d = x0 - gp.s
    total = 0.0
    for k, c in gp.terms:
        if k == 0:
            continue
        total += c * gamma(1.0 + k * alpha) / gamma(1.0 + (k - 1) * alpha) * d ** ((k - 1) * alpha)
    return total


def lf_derivative(
    f: FunctionSpec,
    x0: float,
    ctx: AlphaContext,
    mode: DerivativeMode = DerivativeMode.EXACT_MONOMIAL,
    s: Optional[float] = None,
    quad: IntegralBackend = NUMERIC,
) -> float:
    """Local fractional derivative of order ctx.alpha at x0, from point s.

    ``s`` is the expansion/base point (defaults to the lower domain
    endpoint, else 0) and x0 must satisfy x0 >= s.  The exact mode applies
    the conjugate monomial rule to the generalized-polynomial form; the
    finite-difference mode is described in the module docstring.  A
    non-finite result (an overflow) raises ValueError.
    """
    alpha = ctx.alpha
    x0 = float(x0)
    if s is None:
        s = f.domain[0] if f.domain is not None else 0.0
    s = float(s)
    if x0 < s:
        raise ValueError(f"x0 must be >= base point s, got x0={x0!r} < s={s!r}")

    if mode is DerivativeMode.EXACT_MONOMIAL:
        gp = f.gpoly(s, ctx)
        return _finite(_term_rule(gp, x0, alpha))

    if alpha == 1.0:
        h = 1e-6
        return _finite(gamma(2.0) * (f.evaluate(x0 + h, ctx) - f.evaluate(x0, ctx)) / h)

    if x0 == s:
        # At the base point the plain alpha-quotient is the definition and
        # is exact for the leading generalized-monomial term.
        h = min(max((1e-6) ** (1.0 / alpha), 1e-12), 1e-3)
        value = gamma(1.0 + alpha) * (f.evaluate(s + h, ctx) - f.evaluate(s, ctx)) / h**alpha
        return _finite(value)

    beta = 1.0 - alpha
    f_s = f.evaluate(s, ctx)
    gquad = dataclasses.replace(quad, kind=BackendKind.NUMERIC_RL, rtol=min(quad.rtol, 1e-11))
    kinks = f.singular_points()

    def G(x: float) -> float:
        res = rl_integrate(
            lambda us: f.evaluate_many(us, ctx) - f_s, s, x, beta, gquad, points=kinks
        )
        return res.value

    delta = 1e-3 * (x0 - s)
    return _finite((G(x0 + delta) - G(x0 - delta)) / (2.0 * delta))


@dataclass(frozen=True)
class CrosscheckReport:
    """Agreement between the exact and numeric integration routes."""

    exact: float
    numeric: float
    rel_deviation: float
    flagged: bool
    threshold: float = 1e-6


def backend_crosscheck(
    f: FunctionSpec,
    a: float,
    b: float,
    ctx: AlphaContext,
    quad: IntegralBackend = NUMERIC,
) -> CrosscheckReport:
    """Run both integration routes and flag relative deviation > 1e-6."""
    exact = lf_integral(f, a, b, ctx, EXACT)
    numeric = lf_integral(f, a, b, ctx, quad)
    denom = max(abs(exact), abs(numeric))
    dev = 0.0 if denom == 0.0 else abs(exact - numeric) / denom
    return CrosscheckReport(exact, numeric, dev, dev > 1e-6)
