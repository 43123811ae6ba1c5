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
panels, on settings that are module constants (only the tolerance can be
set per call).  The transformed integrand still has weak algebraic behavior at
both ends (e.g. (V - v)**(k*alpha) factors), so the two end panels of the
uniform starting grid are subdivided geometrically toward their endpoints.
Kinks of the integrand (zeros of |x - s| and of alpha- or fractional-power
arguments) are mapped to v and inserted as breakpoints, so each one sits on
a panel edge rather than inside a panel.  The integrand is weakly singular
on both sides of a kink, as at the ends, so each kink v_k also brings a
geometric ladder of breakpoints v_k +- (V/32) * 4**-j, j = 1..10, clipped
to (0, V): the panels shrink toward the kink, and kinked integrals converge
on the first pass instead of bisecting toward the kink one level per pass.
Refinement is then local: each panel's error is estimated as the
difference between its Gauss--Legendre value and the sum over its two
halves, and only the panels whose estimate exceeds their width-share of
the tolerance are bisected (the QUADPACK QAGP scheme of Piessens,
de Doncker et al., 1983, with a Gauss--Legendre pair).

Everything the first pass computes before it samples the integrand
depends only on (a, b, order, kinks): the graded breakpoints merged with
the kink ladders, the panels and their halves, the nodes mapped to x and
clipped to [a, b], and the half-widths.  That mesh is built once per key
and kept, read-only, in a bounded LRU cache keyed on the bits of the
doubles (so -0.0 and +0.0 are different keys), and a cached call costs
only the integrand, its finiteness check and the weighted sums.

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

import enum
import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

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
]


class BackendKind(enum.Enum):
    EXACT_MONOMIAL = "exact"
    NUMERIC_RL = "rl"


class DerivativeMode(enum.Enum):
    EXACT_MONOMIAL = "exact"
    FINITE_DIFFERENCE = "fd"


class IntegrationError(RuntimeError):
    """Numeric integration failure (non-finite integrand sample)."""


@dataclass(frozen=True)
class IntegralBackend:
    """Integration route: the exact monomial table or ``rl_integrate``."""

    kind: BackendKind

    def __post_init__(self) -> None:
        if not isinstance(self.kind, BackendKind):
            raise ValueError(f"invalid backend kind {self.kind!r}")


EXACT = IntegralBackend(kind=BackendKind.EXACT_MONOMIAL)
NUMERIC = IntegralBackend(kind=BackendKind.NUMERIC_RL)

# rl_integrate's settings: _PANELS base panels of _POINTS-point
# Gauss--Legendre, refined to _RTOL relative (a call may pass another
# rtol) within _MAX_EVALS cumulative integrand samples.
_PANELS = 32
_POINTS = 8
_RTOL = 1e-9
_MAX_EVALS = 2**20

# Depth of the geometric subdivision of the two end panels.  2**-46 of a
# panel is comfortably below any tolerance in play while staying far from
# denormal territory.
_END_DEPTH = 46

# Depth of the ratio-1/4 ladder on each side of an interior kink: the
# breakpoints v_k +- (V/_PANELS) * 4**-j, j = 1.._KINK_DEPTH.  On the
# abs(x - s)**alpha test set the worst relative error is 3.4e-12 at depth
# 8 and 1.4e-13 at 10, each converged on the first pass.
_KINK_DEPTH = 10

# The first-pass mesh cache holds at most _MESH_CACHE meshes of at most
# _MESH_SAMPLES first-pass samples each: the graded grid with two kinks
# (3,984 samples) fits, with three (4,488) it does not.  A mesh of n panels
# holds 32n + 1 floats, 32/3 bytes per sample, so the cache stays under
# 3.5 MiB whatever the inputs.  Each pass of the quadrature benchmark's
# case list integrates on 64 distinct meshes.
_MESH_CACHE = 80
_MESH_SAMPLES = 4096

# The _POINTS-point Gauss--Legendre rule on [-1, 1].
_NODES, _WEIGHTS = leggauss(_POINTS)


def _graded_breakpoints(V: float) -> np.ndarray:
    """Uniform breakpoints on [0, V] with dyadically graded end panels."""
    base = np.linspace(0.0, V, _PANELS + 1)
    w = base[1] - base[0]
    left = base[0] + w * 0.5 ** np.arange(_END_DEPTH, 0, -1)
    right = base[-1] - w * 0.5 ** np.arange(1, _END_DEPTH + 1)
    pts = np.concatenate((base[:1], left, base[1:-1], np.sort(right), base[-1:]))
    return np.unique(pts)


def _kink_ladders(kinks: list[float], V: float) -> np.ndarray:
    """The kinks (in v) and their ladders, clipped to the open interval (0, V)."""
    steps = (V / _PANELS) * 0.25 ** np.arange(1, _KINK_DEPTH + 1)
    k = np.asarray(kinks)[:, None]
    pts = np.concatenate((k, k - steps, k + steps), axis=None)
    return pts[(pts > 0.0) & (pts < V)]


def _check_first_pass(panels: int) -> None:
    """A first pass over ``panels`` panels must fit within ``_MAX_EVALS``."""
    if 3 * panels * _POINTS > _MAX_EVALS:
        raise ValueError(
            f"max_evals={_MAX_EVALS} is below the first pass's "
            f"{3 * panels * _POINTS} evaluations"
        )


def _halves(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The halves of the panels [left, right], interleaved (left_0, right_0, left_1, ...)."""
    mid = 0.5 * (left + right)
    hl = np.empty(2 * left.size)
    hl[0::2], hl[1::2] = left, mid
    hr = np.empty(2 * left.size)
    hr[0::2], hr[1::2] = mid, right
    return hl, hr


def _abscissae(
    left: np.ndarray, right: np.ndarray, a: float, b: float, order: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss--Legendre nodes of the v-panels [left, right], mapped to x, and
    the panels' half-widths: one row of ``_POINTS`` nodes per panel."""
    half = 0.5 * (right - left)
    mid = 0.5 * (left + right)
    v = mid[:, None] + _NODES[None, :] * half[:, None]
    # np.clip(x, a, b) bit for bit: on a tie (+0.0 against -0.0)
    # np.maximum and np.minimum return their second operand, x.
    return np.minimum(b, np.maximum(a, b - v ** (1.0 / order))), half


class _Mesh(NamedTuple):
    """rl_integrate's first pass before it calls fn; every array is read-only."""

    V: float  # (b - a)**order
    left: np.ndarray  # the panels [left, right] in v: graded breakpoints
    right: np.ndarray  # merged with the kink ladders
    hl: np.ndarray  # their halves, interleaved
    hr: np.ndarray
    xs: np.ndarray  # nodes in x, the panels' rows and then the halves'
    half: np.ndarray  # the half-width of each row of xs


@functools.lru_cache(maxsize=_MESH_CACHE)
def _mesh(key: bytes) -> _Mesh:
    """The first-pass mesh of ``key``, the packed doubles (a, b, order,
    *kinks), with the kinks (abscissae) sorted, distinct and inside (a, b).

    Cached on the key's bytes, so -0.0 and +0.0 are distinct keys: a node
    that maps onto b is b itself, and one that rounds below a is clipped to
    a itself, so the sign of a zero endpoint reaches fn.  Callers pass
    only keys whose mesh fits ``_MESH_SAMPLES``; larger ones are built by
    ``_mesh.__wrapped__`` on every call.
    """
    a, b, order, *points = struct.unpack(f"{len(key) // 8}d", key)
    V = (b - a) ** order
    bpts = _graded_breakpoints(V)
    if points:
        bpts = np.union1d(bpts, _kink_ladders([(b - p) ** order for p in points], V))
    _check_first_pass(bpts.size - 1)  # before the node arrays, 24 floats a panel
    left, right = bpts[:-1], bpts[1:]
    hl, hr = _halves(left, right)
    xs, half = _abscissae(np.concatenate((left, hl)), np.concatenate((right, hr)), a, b, order)
    for arr in (bpts, left, right, hl, hr, xs, half):
        arr.flags.writeable = False
    return _Mesh(V, left, right, hl, hr, xs, half)


def _panel_values(
    fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, half: np.ndarray
) -> np.ndarray:
    """Gauss--Legendre value of fn over each panel, from its row of nodes
    ``xs`` in x and its half-width in v."""
    vals = np.asarray(fn(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.broadcast_to(vals, xs.shape)
    if not np.isfinite(vals).all():
        raise IntegrationError("non-finite integrand sample")
    return (vals * _WEIGHTS).sum(axis=1) * half


@dataclass(frozen=True)
class QuadResult:
    """Adaptive quadrature outcome with its effort diagnostics.

    ``error`` is the sum of the accepted and the live panel error
    estimates, in the units of ``value``.
    """

    value: float
    evals: int
    levels: int
    converged: bool
    error: float


def rl_integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    order: float,
    points: Iterable[float] = (),
    rtol: float = _RTOL,
) -> QuadResult:
    """Order-``order`` integral of a vectorized callable over [a, b].

    Evaluates (1/Gamma(1+order)) * integral_0^V fn(b - v**(1/order)) dv
    with V = (b - a)**order on the graded grid of ``_PANELS`` base panels
    with ``_POINTS``-point Gauss--Legendre each, with every abscissa
    of ``points`` inside (a, b) (kinks of fn; others are ignored) added as
    a breakpoint together with its ladder of ``_KINK_DEPTH`` breakpoints on
    each side, clipped to (0, V).  A kink thus adds up to 21 first-pass
    panels, so the first pass alone exceeds ``_MAX_EVALS`` (a ValueError)
    at about 2,000 kinks, where one breakpoint per kink allowed about
    43,500.  Each pass evaluates fn once: the first on the panels and
    their halves together, each later one on the halves of the live
    panels.  A panel's error estimate is |its value - the sum of its
    halves|.  The result has converged when the accepted plus the live
    estimates are within ``rtol * (1 + |value|)``.  Otherwise the
    panels whose estimate exceeds their width-share of that tolerance are
    bisected, and the others are accepted.  The loop stops unconverged when
    the next pass would exceed ``_MAX_EVALS`` cumulative samples, or
    when rounding leaves the total over the tolerance with no panel over
    its share.  Requires a < b (callers handle orientation and the empty
    interval).

    The first pass's mesh comes from ``_mesh``, an LRU cache keyed on the
    bytes of (a, b, order, the sorted distinct kinks inside (a, b)), so the
    signed zeros of a and b are kept apart.  Its arrays are shared and
    read-only: on the first pass fn receives one, and writing into it
    raises ValueError.  The cache holds at most ``_MESH_CACHE`` meshes of
    at most ``_MESH_SAMPLES`` samples (under 3.5 MiB); a larger first pass
    (three distinct kinks or more) is built on every call.  ``_MAX_EVALS``
    is checked on every call, cached or not.
    """
    a, b, order = float(a), float(b), float(order)
    if not b > a:
        raise ValueError("rl_integrate requires a < b")
    # Sorted and distinct, -0.0 as 0.0: the mesh merges the kinks' ladders
    # into one sorted set anyway, so each kink set gets one key, and a
    # repeated kink counts once against the panel bound.
    kinks = sorted({p + 0.0 for p in map(float, points) if a < p < b})
    key = struct.pack(f"{3 + len(kinks)}d", a, b, order, *kinks)
    # An upper bound: merging the ladders may drop duplicate breakpoints.
    panels = _PANELS + 2 * _END_DEPTH + (2 * _KINK_DEPTH + 1) * len(kinks)
    build = _mesh if 3 * panels * _POINTS <= _MESH_SAMPLES else _mesh.__wrapped__
    V, left, right, hl, hr, xs, half = build(key)
    n = left.size
    _check_first_pass(n)  # again: a cached mesh may predate a lower _MAX_EVALS
    # fn is elementwise, and each panel is its own row: the first pass
    # evaluates the panels and their halves in one call.
    vals = _panel_values(fn, xs, half)
    coarse, vals = vals[:n], vals[n:]
    evals, levels = 3 * n * _POINTS, 1
    done_value = done_err = 0.0  # sums over the accepted panels
    converged = False
    while True:
        # The halves are interleaved: on the first pass they are the
        # sorted halved grid, summed in grid order.
        fine = vals[0::2] + vals[1::2]
        err = np.abs(coarse - fine)
        value = done_value + float(vals.sum())
        tol = rtol * (1.0 + abs(value))
        error = done_err + float(err.sum())
        if error <= tol:
            converged = True
            break
        fail = err > tol * (right - left) / V
        if not fail.any():  # over the total with every panel in its share
            break
        done_value += float(fine[~fail].sum())
        done_err += float(err[~fail].sum())
        live = np.repeat(fail, 2)
        left, right, coarse = hl[live], hr[live], vals[live]
        if evals + 2 * left.size * _POINTS > _MAX_EVALS:
            break
        hl, hr = _halves(left, right)
        vals = _panel_values(fn, *_abscissae(hl, hr, a, b, order))
        evals += 2 * left.size * _POINTS
        levels += 1
    scale = gamma(1.0 + order)
    return QuadResult(value / scale, evals, levels, converged, error / scale)


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
    f: FunctionSpec,
    a: float,
    b: float,
    ctx: AlphaContext,
    backend: IntegralBackend = NUMERIC,
) -> float:
    """Local fractional integral a_I_b f of order ctx.alpha.

    Orientation: a_I_b f = -(b_I_a f), and the value is 0 when a == b.
    The exact route needs f in generalized-polynomial form about the lower
    endpoint (raises :class:`~fracon.expr.NotPolynomial` otherwise); the
    numeric route splits the integral at f's singular points.  A
    non-finite result (an overflow) raises ValueError.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    if backend.kind is BackendKind.EXACT_MONOMIAL:
        gp = f.gpoly(a, ctx)
        return _finite(sign * _table_integral(gp, b - a, ctx.alpha))
    res = rl_integrate(
        lambda xs: f.evaluate_many(xs, ctx), a, b, ctx.alpha, points=f.singular_points()
    )
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
    *,
    s: float,
) -> float:
    """Local fractional derivative of order ctx.alpha at x0, from point s.

    ``s`` is the expansion/base point and x0 must satisfy x0 >= s.  The
    exact mode applies the conjugate monomial rule to the generalized-
    polynomial form; the finite-difference mode is described in the module
    docstring.  A non-finite result (an overflow) raises ValueError.
    """
    alpha = ctx.alpha
    x0 = float(x0)
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
    kinks = f.singular_points()

    def G(x: float) -> float:
        return rl_integrate(
            lambda us: f.evaluate_many(us, ctx) - f_s, s, x, beta, points=kinks, rtol=1e-11
        ).value

    delta = 1e-3 * (x0 - s)
    return _finite((G(x0 + delta) - G(x0 - delta)) / (2.0 * delta))
