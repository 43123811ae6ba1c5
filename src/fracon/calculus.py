"""Local fractional integral and derivative of order alpha in (0, 1].

Realization
-----------
The integral of order alpha over [a, b] is realized as the Riemann--
Liouville form

    a_I_b f = (1/Gamma(alpha)) * integral_a^b (b - x)**(alpha - 1) f(x) dx,

normalized so that the two-endpoint Beta table holds exactly:

    a_I_b (x - a)**p * (b - x)**q
        = span**(p+q+alpha) * Gamma(p+1) * Gamma(q+alpha)
          / (Gamma(alpha) * Gamma(p+q+alpha+1)),       span = b - a,

whose q = 0 row is the generalized monomial table,

    a_I_b |x - a|**(k*alpha)
        = Gamma(1 + k*alpha) / Gamma(1 + (k+1)*alpha) * (b - a)**((k+1)*alpha).

``_table_integral`` sums the table over a two-endpoint normal form
(``expr.normal_form``, p = k*alpha and q = j*alpha): the exact backend of
``lf_integral`` feeds it f's form on [a, b], and
``inequalities.fejer_terms`` the forms of its Fejer integrands.  A table
sum whose terms cancel past the numeric route's tolerance is not used
(``_earned``).  At alpha = 1 this is the ordinary integral.

The Fejer moment m1 of a weight with a normal form has a table of its own,
``_m1_integral``: with N = p + q + 3*alpha + 1 and the Gauss series
S(A, B; C) = sum_n (A)_n (B)_n / ((C)_n n!) 2**-n, whose terms are all
positive,

    (1/Gamma(alpha)) int_0^1 t**p (1-t)**(q+alpha-1) |1-2t|**(2*alpha) dt
        = 2**-N / Gamma(alpha)
          * (B(p+1, 2*alpha+1) * S(N, 2*alpha+1; p+2*alpha+2)
             + B(q+alpha, 2*alpha+1) * S(N, 2*alpha+1; q+3*alpha+1)),

the halves t < 1/2 and t > 1/2 as 2F1 values at z = 1/2 after Euler's
transformation (DLMF 15.8.1), and m1 sums c * span**(p+q+3*alpha) times
that over the form's terms.  Each Beta function's denominator Gamma is
its series' C.

The numeric route integrates everything else.  The substitution
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

One rule, ``_exact_first``, picks the route of ``integrate``, ``diff``
and each of the six Fejer integrals: the exact route first under "auto",
and the numeric one where the exact route gives no value.

Derivatives use the conjugate rule

    D^alpha |x - s|**(k*alpha)
        = Gamma(1 + k*alpha) / Gamma(1 + (k-1)*alpha) * |x - s|**((k-1)*alpha)

exactly on half-line normal forms about s, and a finite-difference mode for
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
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .expr import Form, FunctionSpec, NotPolynomial
from .fractal_scalar import AlphaContext, GammaDomainError, gamma

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
    """Numeric integration failure: a non-finite integrand sample, or an
    integral that did not converge."""


@dataclass(frozen=True)
class IntegralBackend:
    """Integration route: the exact Beta table or ``rl_integrate``."""

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

# The reported error is at least _ROUND_FLOOR times the sum of the panels'
# |values|, the rounding that summing them may carry (QUADPACK's
# max(50 eps resabs, abserr)).
_ROUND_FLOOR = 50.0 * math.ulp(1.0)

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

# The _POINTS-point Gauss--Legendre rule on [-1, 1]: the nodes and weights
# of numpy's ``leggauss(8)``, bit for bit (a test compares them), written
# out so that importing fracon does not import ``numpy.polynomial``.
_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])


def _local_refs() -> int:
    """``sys.getrefcount`` of an array that one local name alone holds."""
    arr = np.empty(0)
    return sys.getrefcount(arr)


# 2 on CPython up to 3.13; an interpreter that counts fewer references
# counts fewer here too, so a kept array never reads as unshared.
_SOLE_REFS = _local_refs()


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
    # mid + nodes * half, raised and mapped to x, all in one array.
    v = _NODES * half[:, None]
    v += mid[:, None]
    v **= 1.0 / order
    np.subtract(b, v, out=v)
    # np.clip(x, a, b) bit for bit: on a tie (+0.0 against -0.0)
    # np.maximum and np.minimum return their second operand, x.
    np.maximum(a, v, out=v)
    np.minimum(b, v, out=v)
    return v, half


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
    ``xs`` in x and its half-width in v.

    The samples are weighted in fn's own array when nothing else holds it
    (the test numpy uses to elide a temporary), and in a copy otherwise.
    That saves one panel-sized copy per call: without the test, the largest
    traced peak of an hh case (quadrature workload, seed 1) rose from 64.8
    to 92.8 KB, and a capped singular integral no longer fits its 11 MiB
    bound.

    Each row is then summed by ``np.add.reduce``, in numpy's pairwise
    order started from +0.0 (a row of -0.0 sums to +0.0), over a C-ordered
    copy if fn's array is not C-ordered: numpy reduces the rows of a
    Fortran-ordered array in another order.
    """
    vals = np.asarray(fn(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.broadcast_to(vals, xs.shape)
    if not np.isfinite(vals).all():
        raise IntegrationError("non-finite integrand sample")
    if vals.flags.writeable and vals.base is None and sys.getrefcount(vals) <= _SOLE_REFS:
        vals *= _WEIGHTS
    else:
        vals = vals * _WEIGHTS
    sums = np.add.reduce(np.ascontiguousarray(vals), axis=1)
    sums *= half
    return sums


@dataclass(frozen=True)
class QuadResult:
    """Adaptive quadrature outcome with its effort diagnostics.

    ``error`` is the sum of the accepted and the live panel error
    estimates, in the units of ``value``, and at least 50 eps times the
    sum of the panels' |values|: below that, rounding the sum alone can
    make the error.
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
    panels.  A panel's value is numpy's row sum of its weighted samples
    (see ``_panel_values``), and its error estimate is |its value - the
    sum of its halves|.  The result has converged when the accepted plus
    the live estimates are within ``rtol * (1 + |value|)``.  Otherwise the
    panels whose estimate exceeds their width-share of that tolerance are
    bisected, and the others are accepted.  The loop stops unconverged when
    the next pass would exceed ``_MAX_EVALS`` cumulative samples, or
    when rounding leaves the total over the tolerance with no panel over
    its share; it is returned as it is, ``converged`` False.  The returned
    ``error`` is floored at 50 eps times the sum of the |values| of the
    panels summed into ``value`` (divided by Gamma(1+order) as ``value``
    is), after the convergence test, which reads the estimates alone.
    Requires a < b (callers handle orientation and the empty interval).

    The first pass's mesh comes from ``_mesh``, an LRU cache keyed on the
    bytes of (a, b, order, the sorted distinct kinks inside (a, b)), so the
    signed zeros of a and b are kept apart.  Its arrays are shared and
    read-only: on the first pass fn receives one, and writing into it
    raises ValueError.  The cache holds at most ``_MESH_CACHE`` meshes of
    at most ``_MESH_SAMPLES`` samples (under 3.5 MiB); a larger first pass
    (three distinct kinks or more) is built on every call.  ``_MAX_EVALS``
    is checked on every call, cached or not.

    When rl_integrate holds the only reference to the array fn returns,
    it weights the samples in that array; an array that fn or its caller
    keeps, and a view, are never written.
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
    done_value = done_err = done_abs = 0.0  # sums over the accepted panels
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
        # Only past the break: there vals still holds these halves, and the
        # floor below sums all of vals.
        done_abs += float(np.abs(vals[~live]).sum())
        hl, hr = _halves(left, right)
        vals = _panel_values(fn, *_abscissae(hl, hr, a, b, order))
        evals += 2 * left.size * _POINTS
        levels += 1
    scale = gamma(1.0 + order)
    # Floored only now: the convergence test reads the estimates alone.
    error = max(error, _ROUND_FLOOR * (done_abs + float(np.abs(vals).sum())))
    return QuadResult(value / scale, evals, levels, converged, error / scale)


def _integral(name: str, fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              order: float, points: Iterable[float] = (), rtol: float = _RTOL) -> float:
    """The value of ``rl_integrate(fn, a, b, order, points, rtol)``; one
    that did not converge raises IntegrationError naming the integral
    (``name``), its interval, its order and its error estimate."""
    res = rl_integrate(fn, a, b, order, points=points, rtol=rtol)
    if not res.converged:
        raise IntegrationError(
            f"{name} over [{a!r}, {b!r}] at order {order!r} did not converge "
            f"(error estimate {res.error:.3e})"
        )
    return res.value


def _table_integral(form: Form, span: float, alpha: float) -> tuple[float, float]:
    """Exact a_I_b of a two-endpoint normal form over span = b - a > 0, and
    the sum of its terms' magnitudes.  A term is c times the Beta table's

        a_I_b (x-a)**p (b-x)**q
            = span**(p+q+alpha) * Gamma(p+1) * Gamma(q+alpha)
              / (Gamma(alpha) * Gamma(p+q+alpha+1)),

    p = k*alpha and q = j*alpha, summed over the form's {(k, j): c} in order.
    A j = 0 term is the monomial table, Gamma(1+k*alpha) /
    Gamma(1+(k+1)*alpha) * span**((k+1)*alpha), in the order of operations
    ``lf_integral``'s exact values have always had.  A pole or an overflow
    of Gamma raises GammaDomainError, a ValueError, and an overflow of a
    power of span raises OverflowError."""
    total = size = 0.0
    for (k, j), c in form.items():
        if j == 0:
            term = c * gamma(1.0 + k * alpha) / gamma(1.0 + (k + 1) * alpha) * span ** ((k + 1) * alpha)
        else:
            p, q = k * alpha, j * alpha
            term = (c * gamma(p + 1.0) * gamma(q + alpha)
                    / (gamma(alpha) * gamma(p + q + alpha + 1.0)) * span ** (p + q + alpha))
        total += term
        size += abs(term)
    return total, size


def _earned(value: float, size: float, text: str) -> float:
    """``value``, a table sum over the terms of ``text`` whose magnitudes
    sum to ``size``, if it earned the digits ``rl_integrate`` promises: the
    terms' rounding, ``_ROUND_FLOOR`` times ``size`` (as rl_integrate floors
    its own error), must be within ``_RTOL`` of |value|.  Else NotPolynomial:
    ((x - a)*(b - x))**20 at alpha 1 sums to -1.1e-12 where it is 1.8e-13."""
    if _ROUND_FLOOR * size <= _RTOL * abs(value):
        return value
    raise NotPolynomial(f"the exact table's terms of {text} cancel: they sum to {value:.6e} "
                        f"from terms of magnitude {size:.6e}, past the rl route's "
                        f"relative tolerance {_RTOL:g}")


def _beta_integral(form: Form, span: float, alpha: float, text: str = "the integrand") -> float:
    """The Beta table's a_I_b of ``form``, checked by ``_earned``; it raises
    as ``_table_integral`` does."""
    return _earned(*_table_integral(form, span, alpha), text)


# m1's Gauss series are summed until a term falls below _SERIES_EPS of the
# running sum, within _SERIES_TERMS terms (no series of the k, j <= 20
# terms at alpha in [0.01, 1] needed more than 150).
_SERIES_EPS = 2.0**-54
_SERIES_TERMS = 400


def _half_series(A: float, B: float, C: float) -> float:
    """S(A, B; C) = sum_n (A)_n (B)_n / ((C)_n n!) 2**-n, the Gauss series
    2F1(A, B; C; 1/2), for A, B, C > 0, so that every term is positive; a
    series not converged within ``_SERIES_TERMS`` terms is NotPolynomial."""
    term = total = 1.0
    for n in range(_SERIES_TERMS):
        term *= (A + n) * (B + n) / ((C + n) * (n + 1.0)) * 0.5
        total += term
        if term < _SERIES_EPS * total:
            return total
    raise NotPolynomial(f"the series S({A!r}, {B!r}; {C!r}) did not converge "
                        f"within {_SERIES_TERMS} terms")


def _m1_integral(form: Form, span: float, alpha: float) -> float:
    """The Fejer moment m1 = span**(3 alpha) * 0_I_1 |1-2t|**(2 alpha) w(x(t))
    of a weight w with the two-endpoint normal form ``form``, summed term
    by term from the closed form in the module docstring.  It raises as
    ``_beta_integral`` and ``_half_series`` do, or OverflowError."""
    total = size = 0.0
    b2 = 2.0 * alpha + 1.0
    g = gamma(b2) / gamma(alpha)
    for (k, j), c in form.items():
        p, q = k * alpha, j * alpha
        n = p + q + 3.0 * alpha + 1.0
        cl, cr = p + 2.0 * alpha + 2.0, q + 3.0 * alpha + 1.0
        left, right = _half_series(n, b2, cl), _half_series(n, b2, cr)
        halves = gamma(p + 1.0) / gamma(cl) * left + gamma(q + alpha) / gamma(cr) * right
        term = c * span ** (p + q) * (2.0**-n * g * halves)
        total += term
        size += abs(term)
    scale = span ** (3.0 * alpha)
    value = scale * total
    if not math.isfinite(value):
        raise OverflowError(f"m1's table sum overflows to {value!r}")
    return _earned(value, scale * size, "m1")


def _exact_first(choice: str, exact: Callable[[], float], numeric: Callable[[], float],
                 numeric_route: str = "rl") -> tuple[float, str]:
    """The route rule: ``(exact(), "exact")`` for choice "exact" or "auto",
    else ``(numeric(), numeric_route)``.  Where the exact route has no value
    (NotPolynomial, GammaDomainError, OverflowError), "auto" falls back on
    the numeric route and a forced "exact" raises."""
    if choice in ("exact", "auto"):
        try:
            return exact(), "exact"
        except (NotPolynomial, GammaDomainError, OverflowError):
            if choice == "exact":
                raise
    return numeric(), numeric_route


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
    The exact route is ``_beta_integral`` of f's two-endpoint normal form
    on the interval (:class:`~fracon.expr.NotPolynomial` where f has none).
    The numeric route splits the integral at f's singular points, and an
    integral that does not converge raises IntegrationError.  A non-finite
    result (an overflow) raises ValueError.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    if backend.kind is BackendKind.EXACT_MONOMIAL:
        value = _beta_integral(f.form(a, b, ctx), b - a, ctx.alpha, f.text)
    else:
        value = _integral(f"the integral of {f.text}", lambda xs: f.evaluate_many(xs, ctx),
                          a, b, ctx.alpha, f.singular_points())
    return _finite(sign * value)


def _term_rule(form: Form, d: float, alpha: float) -> float:
    """Exact derivative of a half-line normal form about s at the point
    d = x0 - s >= 0 past s, by the table rule."""
    total = 0.0
    for (k, _), c in form.items():
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
    exact mode applies the conjugate monomial rule to f's half-line normal
    form about s; the finite-difference mode is described in the module
    docstring; an integral of G that does not converge raises
    IntegrationError.  A non-finite result (an overflow) raises ValueError.
    """
    alpha = ctx.alpha
    x0 = float(x0)
    s = float(s)
    if x0 < s:
        raise ValueError(f"x0 must be >= base point s, got x0={x0!r} < s={s!r}")

    if mode is DerivativeMode.EXACT_MONOMIAL:
        return _finite(_term_rule(f.form(s, None, ctx), x0 - s, alpha))

    if alpha == 1.0:
        h = 1e-6
        f_h, f_0 = f.evaluate_many(np.array([x0 + h, x0]), ctx).tolist()
        return _finite(gamma(2.0) * (f_h - f_0) / h)

    if x0 == s:
        # At the base point the plain alpha-quotient is the definition and
        # is exact for the leading generalized-monomial term.
        h = min(max((1e-6) ** (1.0 / alpha), 1e-12), 1e-3)
        f_h, f_0 = f.evaluate_many(np.array([s + h, s]), ctx).tolist()
        return _finite(gamma(1.0 + alpha) * (f_h - f_0) / h**alpha)

    beta = 1.0 - alpha
    (f_s,) = f.evaluate_many(np.array([s]), ctx).tolist()
    kinks = f.singular_points()

    def G(x: float) -> float:
        return _integral(f"the fd derivative's integral of {f.text} - f(s)",
                         lambda us: f.evaluate_many(us, ctx) - f_s, s, x, beta, kinks, rtol=1e-11)

    delta = 1e-3 * (x0 - s)
    return _finite((G(x0 + delta) - G(x0 - delta)) / (2.0 * delta))
