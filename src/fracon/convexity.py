"""Membership checks for generalized strongly eta-convex functions.

A function f on [a, b] belongs to the class (for order alpha, modulus
c >= 0 and bifunction eta) when for all x, y in [a, b] and t in [0, 1]

    f(t*x + (1-t)*y)
        <= f(y) + t**al * eta(f(x), f(y))
           - c**al * t**al * (1-t)**al * |x - y|**(2*al),

with al = alpha.  The *defect* is (right side) - (left side); membership
is defect >= 0 everywhere.  Certification searches a deterministic
(x, y, t) lattice, whose mixtures all lie on one fine grid of [a, b] (so f
is evaluated once per distinct mixture), locally refines around the worst
point, and reports either ``NoViolationFound`` or a self-validating
counterexample whose defect can be re-evaluated from its coordinates alone.

The search can only ever certify "no violation found on this grid" -- a
clean negative is a counterexample, a clean positive is evidence, and the
report says which one it is.  Two necessary conditions on eta (both
implied by membership at t = 1) are checked alongside and reported:
eta(f(x), f(x)) >= 0 and f(x) - f(y) <= eta(f(x), f(y)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import DerivativeMode, lf_derivative
from .expr import (
    EtaSpec,
    EvalError,
    FunctionSpec,
    NotPolynomial,
    WeightSpec,
    _monotone_dirs,
)
from .fractal_scalar import AlphaContext, gamma

__all__ = [
    "Counterexample",
    "ConvexityReport",
    "LatticeGrid",
    "NecessaryReport",
    "SymmetryError",
    "MinimumConditionReport",
    "defect",
    "certify_gsc",
    "check_eta_necessary",
    "check_symmetry",
    "estimate_eta_sup",
    "minimum_condition_check",
]


class SymmetryError(ValueError):
    """Weight precondition violated (asymmetric or negative)."""


def _domain_of(f: FunctionSpec) -> tuple[float, float]:
    if f.domain is None:
        raise ValueError("function has no domain interval attached")
    a, b = f.domain
    if not a < b:
        raise ValueError(f"degenerate domain [{a!r}, {b!r}]")
    return a, b


def defect(
    f: FunctionSpec,
    eta: EtaSpec,
    c: float,
    ctx: AlphaContext,
    x: float,
    y: float,
    t: float,
) -> float:
    """Pointwise membership defect (rhs - lhs); >= 0 means no violation."""
    lhs, rhs = _defect_parts(f, eta, c, ctx, x, y, t)
    return rhs - lhs


def _defect_parts(f, eta, c, ctx, x, y, t) -> tuple[float, float]:
    al = ctx.alpha
    fx = f.evaluate(x, ctx)
    fy = f.evaluate(y, ctx)
    e = eta.evaluate(fx, fy, ctx)
    lhs = f.evaluate(t * x + (1.0 - t) * y, ctx)
    rhs = (
        fy
        + t**al * e
        - c**al * t**al * (1.0 - t) ** al * abs(x - y) ** (2.0 * al)
    )
    return lhs, rhs


# Lattice cells per slab in _lattice_min.  A slab is as many whole t-planes
# (grid**2 cells each) as fit, and at least one, so its two float64 buffers
# (defects, scratch) hold at most this many cells (256 KiB each) unless one
# plane alone is larger; then they grow with grid**2, like the other four
# arrays live in the slab loop: the table of f, eta, the distances and the
# f(y) tile.
_SLAB_CELLS = 1 << 15

# Largest accepted grid_n: 1e9 lattice cells.  The lattice is streamed, but
# its six grid**2 arrays (the (grid - 1)**2 + 1 table of f, eta, the
# distances, the f(y) tile and the two slab buffers) are not.
_MAX_GRID = 1000

# Deepest accepted refine_depth.  Each level shrinks the box 3x, so at
# level 40 it spans 3**-39 (about 2.5e-19) of a grid step, far below the
# defect's float resolution; on [0, 1] at grid 8 its x and y sides hold
# a single point from level 34 on (certify_gsc stops at the first level
# where all three sides do).  From level 648 on, 3**(level - 1) no longer
# converts to a float at all.
_MAX_REFINE = 40


def _right_side(eta, c, ctx, fx, fy, xs, ys, ts):
    """The factors of the defect's right side: eta(f(x), f(y)) and
    |x - y|**(2 al) over (x, y), t**al and c**al t**al (1 - t)**al over t."""
    al = ctx.alpha
    e = eta.evaluate_many(fx[:, None], fy[None, :], ctx)
    ta = ts**al
    corr = c**al * ta * (1.0 - ts) ** al
    dist = np.abs(xs[:, None] - ys[None, :]) ** (2.0 * al)
    return e, ta, corr, dist


def _finite_min(low: float, x, y, t) -> float:
    """``low``, the minimum defect at (x, y, t), unless it is NaN or infinite."""
    if not math.isfinite(low):
        x, y, t = float(x), float(y), float(t)
        raise EvalError(f"non-finite defect {low!r} at x={x!r}, y={y!r}, t={t!r}")
    return low


def _lattice_min(f, eta, c, ctx, xs, ts) -> tuple[tuple[int, int, int], float, float]:
    """Minimum defect over the main lattice, x and y on xs, t on ts.

    xs and ts are the ``linspace``s of n points over [a, b] and [0, 1], so
    the mixture t_k x_i + (1 - t_k) x_j is a + (b - a) m / (n - 1)**2 with
    m = k i + (n - 1 - k) j.  f is evaluated once, on the table
    X = linspace(a, b, (n - 1)**2 + 1) with X[::n - 1] = xs, so the t = 0
    and t = 1 planes see f at the lattice points themselves, and plane k
    reads f(mixture) as a view of the table with strides k and n - 1 - k.
    Returns ``((i, j, k), min defect, max |f| over the table)``, where
    (i, j, k) is the first lattice index (C order) holding the minimum;
    every table point is a mixture (plane k = 1 alone covers every m).
    The lattice is walked in slabs of ``max(1, _SLAB_CELLS // n**2)``
    whole t-planes laid out (t, x, y); the right side keeps the operation
    order of a whole-lattice evaluation, so only f(mixture) differs from
    f at the float mixture fl(t x) + fl((1 - t) y).  Each plane's first
    minimum (or NaN) comes from one argmin, and the planes' minima are
    ranked NaN first, then by value, (x, y) index and t, so ties keep the
    first index whatever the slab size.  A non-finite f on the table, a
    NaN anywhere or a -inf defect raises EvalError.  A +inf defect (an
    overflowed right side) is no violation; the t = 0 plane is exactly 0,
    so no main lattice is +inf throughout.  Floating-point warnings are
    silenced here; non-finite values are errors instead.
    """
    n = len(xs)
    with np.errstate(all="ignore"):
        mixtures = np.linspace(xs[0], xs[-1], (n - 1) ** 2 + 1)
        mixtures[:: n - 1] = xs
        table = f.evaluate_many(mixtures, ctx)
        # Free the mixtures and |table| before the slab buffers exist, so
        # the slab loop holds six grid**2 arrays.
        del mixtures
        max_abs_f = float(np.abs(table).max())
        fx = table[:: n - 1]
        e, ta, corr, dist = _right_side(eta, c, ctx, fx, fx, xs, xs, ts)
        # A strong term of +0.0 everywhere changes no bit when subtracted,
        # so it is skipped; an infinite distance keeps it, as 0 * inf is NaN.
        strong = corr.any() or np.signbit(corr).any() or not np.isfinite(dist).all()
        planes = min(n, max(1, _SLAB_CELLS // (n * n)))
        d_buf, tmp_buf = np.empty((2, planes, n, n))
        # f(y) as whole (x, y) rows: a ufunc that broadcasts an operand along
        # the innermost axis runs slower than one over contiguous rows.
        fy = fx[None, :].repeat(n, axis=0)
        step = table.itemsize
        best = (True, math.inf, n * n, n)  # (not NaN, defect, i n + j, k)
        for k0 in range(0, n, planes):
            k1 = min(n, k0 + planes)
            d, tmp = d_buf[: k1 - k0], tmp_buf[: k1 - k0]
            np.multiply(ta[k0:k1, None, None], e, out=d)
            np.add(fy, d, out=d)
            if strong:
                np.multiply(corr[k0:k1, None, None], dist, out=tmp)
                np.subtract(d, tmp, out=d)
            for plane, k in zip(d, range(k0, k1)):
                strides = (k * step, (n - 1 - k) * step)
                np.subtract(plane, np.ndarray((n, n), table.dtype, table, 0, strides), out=plane)
            rows = d.reshape(k1 - k0, n * n)
            at = rows.argmin(axis=1)
            lows = rows[np.arange(k1 - k0), at]
            for k, flat, low in zip(range(k0, k1), at.tolist(), lows.tolist()):
                key = (low == low, low if low == low else 0.0, flat, k)
                if key < best:
                    best = key
    ok, low, flat, k = best
    i, j = divmod(flat, n)
    return (i, j, k), _finite_min(low if ok else math.nan, xs[i], xs[j], ts[k]), max_abs_f


def _box_min(f, eta, c, ctx, xs, ys, ts) -> tuple[tuple[int, int, int], float, float]:
    """Minimum defect over a refinement box, evaluated as one (x, y, t) tensor.

    The box's mixtures lie on no 1-D grid, so f is evaluated at the float
    mixtures fl(t x) + fl((1 - t) y), in one call together with xs and ys.
    The defect is built in place in the operation order of
    ``fy + t**al eta - strong - f(mixture)``.  Returns as ``_lattice_min``
    does, with max |f| over the mixtures; ties keep the first index.  A
    non-finite f at a box point, a NaN or -inf defect, or a box whose every
    defect is +inf raises EvalError.
    """
    nx, ny, nt = len(xs), len(ys), len(ts)
    with np.errstate(all="ignore"):
        mix = ts * xs[:, None, None] + (1.0 - ts) * ys[:, None]
        values = f.evaluate_many(np.concatenate((xs, ys, mix.ravel())), ctx)
        fx, fy = values[:nx], values[nx : nx + ny]
        fmix = values[nx + ny :].reshape(mix.shape)
        e, ta, corr, dist = _right_side(eta, c, ctx, fx, fy, xs, ys, ts)
        d = np.multiply(ta, e[:, :, None])
        np.add(fy[:, None], d, out=d)
        np.multiply(corr, dist[:, :, None], out=mix)
        np.subtract(d, mix, out=d)
        np.subtract(d, fmix, out=d)
    i, jk = divmod(int(np.argmin(d)), ny * nt)
    j, k = divmod(jk, nt)
    low = _finite_min(float(d[i, j, k]), xs[i], ys[j], ts[k])
    return (i, j, k), low, float(np.abs(fmix).max())


@dataclass(frozen=True)
class Counterexample:
    """A lattice point whose re-evaluated defect is negative."""

    x: float
    y: float
    t: float
    lhs: float
    rhs: float
    defect: float


@dataclass(frozen=True)
class NecessaryReport:
    """The two necessary conditions on eta over the sampled f-image."""

    diag_ok: bool
    diag_min: float
    diag_witness: Optional[float]
    upper_ok: bool
    upper_min_margin: float
    upper_witness: Optional[tuple[float, float]]
    tol: float

    @property
    def ok(self) -> bool:
        return self.diag_ok and self.upper_ok


@dataclass(frozen=True)
class LatticeGrid:
    """The lattice a certification searched: points per axis, refinement
    levels and the interval [a, b] of x and y."""

    grid_n: int
    refine_depth: int
    interval: tuple[float, float]


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of the lattice search; statuses are grid-qualified claims."""

    status: str  # "NoViolationFound" | "Violated"
    witness: Optional[Counterexample]
    min_defect: float
    tol_violation: float
    max_abs_f: float
    grid: LatticeGrid
    evaluations: int
    necessary: NecessaryReport


def certify_gsc(
    f: FunctionSpec,
    eta: EtaSpec,
    c: float,
    ctx: AlphaContext,
    grid_n: int = 50,
    refine_depth: int = 3,
) -> ConvexityReport:
    """Search the (x, y, t) lattice for membership violations.

    Evaluates the defect on a ``grid_n``**3 lattice over
    [a, b] x [a, b] x [0, 1], then refines ``refine_depth`` times around
    the current minimizer with a 13-point-per-axis box that shrinks 3x per
    level (clipped to bounds); ``grid_n`` must lie in [8, 1000] and
    ``refine_depth`` in [0, 40].  The lattice's mixtures t*x + (1-t)*y are
    the (grid_n - 1)**2 + 1 evenly spaced points of [a, b], so f is
    evaluated once on that table and read back plane by plane.  The lattice
    is walked in slabs of whole t-planes (about 32k cells, or one plane when
    a plane is larger) with a running minimum, so memory is bounded: the
    slab loop holds six arrays of about ``grid_n``**2 floats (the table,
    eta, the distances, the f(y) tile and two slab buffers), never a
    ``grid_n``**3 tensor.  A refinement box, whose mixtures lie on no such
    grid, is one 13**3 tensor at float mixtures, with f evaluated once per
    box.  The violation threshold scales with the sampled magnitude of f
    over the mixtures: tol = 1e-9 * (1 + max |f|).  Reductions run through
    the same lattice: endpoints of the t-grid cover the necessary
    conditions' t = 1 instances, so an eta failing them is also caught as a
    plain counterexample.  Deterministic: ties resolve to the first lattice
    index in (x, y, t) order whatever the slab boundaries, and refinement
    accepts strict improvements only.  Refinement stops before a level whose box
    holds a single value on every axis: that box is the best cell alone,
    as is every later one, so no level from there on can improve on it,
    and ``evaluations`` counts only the levels that ran.  A +inf defect (an
    overflowed right side) is no violation.  A NaN defect (e.g. 0 * inf
    where |x - y|**(2*al) overflows on a very wide interval), a -inf
    defect, a box whose every defect is +inf, or a non-finite f at a
    mixture raises EvalError.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n!r}")
    if grid_n > _MAX_GRID:
        raise ValueError(f"grid_n must be <= {_MAX_GRID}, got {grid_n!r}")
    if refine_depth < 0:
        raise ValueError(f"refine_depth must be >= 0, got {refine_depth!r}")
    if refine_depth > _MAX_REFINE:
        raise ValueError(f"refine_depth must be <= {_MAX_REFINE}, got {refine_depth!r}")
    if not c >= 0.0:
        raise ValueError(f"c must be >= 0, got {c!r}")
    a, b = _domain_of(f)
    xs = np.linspace(a, b, grid_n)
    ts = np.linspace(0.0, 1.0, grid_n)

    necessary = check_eta_necessary(f, eta, ctx, grid_n)

    (i, j, k), min_defect, max_abs_f = _lattice_min(f, eta, c, ctx, xs, ts)
    evaluations = grid_n**3
    best = (float(xs[i]), float(xs[j]), float(ts[k]))

    tol = 1e-9 * (1.0 + max_abs_f)
    # When a necessary condition already fails decisively, skip the local
    # refinement: the lattice minimum is a witness already.
    refine = refine_depth if not (not necessary.ok and min_defect < -tol) else 0

    dx = (b - a) / (grid_n - 1)
    dt = 1.0 / (grid_n - 1)
    for level in range(1, refine + 1):
        wx = dx / 3 ** (level - 1)
        wt = dt / 3 ** (level - 1)
        cx, cy, ct = best
        lx = np.linspace(max(a, cx - wx), min(b, cx + wx), 13)
        ly = np.linspace(max(a, cy - wx), min(b, cy + wx), 13)
        lt = np.linspace(max(0.0, ct - wt), min(1.0, ct + wt), 13)
        if lx[0] == lx[-1] and ly[0] == ly[-1] and lt[0] == lt[-1]:
            break  # the box is the best cell alone, here and at every later level
        (i, j, k), box_min, mf = _box_min(f, eta, c, ctx, lx, ly, lt)
        evaluations += 13**3
        max_abs_f = max(max_abs_f, mf)
        if box_min < min_defect:
            min_defect = box_min
            best = (float(lx[i]), float(ly[j]), float(lt[k]))

    tol = 1e-9 * (1.0 + max_abs_f)
    witness = None
    status = "NoViolationFound"
    if min_defect < -tol:
        lhs, rhs = _defect_parts(f, eta, c, ctx, *best)
        witness = Counterexample(
            x=best[0],
            y=best[1],
            t=best[2],
            lhs=lhs,
            rhs=rhs,
            defect=rhs - lhs,
        )
        min_defect = min(min_defect, witness.defect)
        status = "Violated"
    return ConvexityReport(
        status=status,
        witness=witness,
        min_defect=min_defect,
        tol_violation=tol,
        max_abs_f=max_abs_f,
        grid=LatticeGrid(grid_n, refine_depth, (a, b)),
        evaluations=evaluations,
        necessary=necessary,
    )


def check_eta_necessary(
    f: FunctionSpec, eta: EtaSpec, ctx: AlphaContext, grid_n: int = 200
) -> NecessaryReport:
    """Check 0 <= eta(p, p) and p - q <= eta(p, q) over the sampled image.

    Both are necessary for membership (take x = y, and t = 1), so a failure
    here short-circuits certification into a counterexample.  Margins are
    reported with their witnesses; the tolerance is 1e-12 on the sampled
    magnitude scale.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n!r}")
    a, b = _domain_of(f)
    xs = np.linspace(a, b, grid_n)
    fx = f.evaluate_many(xs, ctx)

    diag = eta.evaluate_many(fx, fx, ctx)
    scale = 1.0 + float(np.max(np.abs(diag)))
    tol = 1e-12 * scale
    i = int(np.argmin(diag))
    diag_min = float(diag[i])
    diag_ok = diag_min >= -tol
    diag_witness = None if diag_ok else float(xs[i])

    pair = eta.evaluate_many(fx[:, None], fx[None, :], ctx)
    diff = fx[:, None] - fx[None, :]
    margins = pair - diff
    scale2 = 1.0 + max(float(np.max(np.abs(pair))), float(np.max(np.abs(diff))))
    tol2 = 1e-12 * scale2
    flat = int(np.argmin(margins))
    i, j = np.unravel_index(flat, margins.shape)
    upper_min = float(margins[i, j])
    upper_ok = upper_min >= -tol2
    upper_witness = None if upper_ok else (float(xs[i]), float(xs[j]))

    return NecessaryReport(
        diag_ok=diag_ok,
        diag_min=diag_min,
        diag_witness=diag_witness,
        upper_ok=upper_ok,
        upper_min_margin=upper_min,
        upper_witness=upper_witness,
        tol=max(tol, tol2),
    )


def check_symmetry(w: WeightSpec, a: float, b: float, ctx: AlphaContext) -> None:
    """Raise SymmetryError unless w is symmetric about (a+b)/2 and nonnegative.

    w is sampled at 1001 evenly spaced points of [a, b].  It is symmetric
    when the worst sampled |w(x) - w(a + b - x)| is <= 1e-10 * (1 + max |w|),
    and nonnegative when its sampled minimum is >= -1e-12 * (1 + max |w|),
    since Fejer weights must be both.  Symmetry is checked first; a NaN
    sample fails both checks.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    xs = np.linspace(a, b, 1001)
    wx = w.evaluate_many(xs, ctx)
    asym = np.abs(wx - w.evaluate_many(a + b - xs, ctx))
    i = int(np.argmax(asym))
    scale = 1.0 + float(np.max(np.abs(wx)))
    tol = 1e-10 * scale
    if not float(asym[i]) <= tol:
        raise SymmetryError(
            f"weight is not symmetric about the midpoint: max asymmetry "
            f"{float(asym[i]):.3e} at x={float(xs[i])!r} (tol {tol:.3e})"
        )
    j = int(np.argmin(wx))
    if not float(wx[j]) >= -1e-12 * scale:
        raise SymmetryError(
            f"weight takes negative values: min {float(wx[j]):.3e} at x={float(xs[j])!r}"
        )


def estimate_eta_sup(f: FunctionSpec, eta: EtaSpec, ctx: AlphaContext, a: float, b: float) -> float:
    """Max of eta over sampled pairs of the f-image on [a, b].

    This is the sampled bound M on eta values (an alpha-type magnitude);
    the chain terms use it directly as M / 2**al and M * B.  A sampled sup
    is a lower estimate of the true sup, and a low M is not safe: it makes
    T1 larger and T4 smaller, which pushes both links toward FAILS, so it
    can report a failure that the true M would not.  The grid misses kinks
    between its points: for abs(x - 0.3)^(a) at alpha 0.3 on [0, 1] the
    sampled M is 0.79122 against a true 0.7**0.3 = 0.89852.  Callers that
    know a bound should pass it instead (``m_eta`` in ``hh_terms``).

    When eta is separately monotone (``expr._monotone_dirs``: sums,
    differences and nonzero constant multiples of u and v, as both presets
    are), only the 2 x 2 corners {min fx, max fx}**2 are evaluated, and the
    result is bit for bit the max over all 512**2 pairs:

    * IEEE round-to-nearest +, - and scaling by a nonzero constant are
      non-decreasing in each operand (non-increasing for a negative
      constant), through overflow and underflow, with -0.0 ordered below
      +0.0.  So every pair value is at most the corner taken at the
      extremes of fx (in that order) in eta's directions, and that corner
      is itself a pair.
    * A non-finite pair implies a non-finite corner, so the same
      ``EvalError`` is raised.
    * Only zero has two bit patterns.  If the max is 0 and every zero
      corner is -0.0, every zero pair is -0.0 too.  If some corner is
      +0.0, the pairs may mix the two signs and ``np.max`` picks one by
      its reduction order, so the full matrix is evaluated as before;
      unless all samples of f are bitwise equal, which makes every pair
      bitwise equal.
    """
    xs = np.linspace(float(a), float(b), 512)
    fx = f.evaluate_many(xs, ctx)
    if _monotone_dirs(eta.ast, dict(eta.params), ctx.alpha) is not None:
        lo, hi = _signed_extremes(fx)
        ends = np.array([lo, hi])
        corners = eta.evaluate_many(ends[:, None], ends[None, :], ctx)
        top = float(np.max(corners))
        same = lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi)
        if top != 0.0 or same or np.signbit(corners[corners == 0.0]).all():
            return top
    pair = eta.evaluate_many(fx[:, None], fx[None, :], ctx)
    return float(np.max(pair))


def _signed_extremes(fx: np.ndarray) -> tuple[float, float]:
    """Min and max of fx in the order that puts -0.0 below +0.0."""
    lo, hi = float(np.min(fx)), float(np.max(fx))
    if lo == 0.0 or hi == 0.0:
        signs = np.signbit(fx[fx == 0.0])
        if lo == 0.0:
            lo = -0.0 if signs.any() else 0.0
        if hi == 0.0:
            hi = 0.0 if not signs.all() else -0.0
    return lo, hi


@dataclass(frozen=True)
class MinimumConditionReport:
    """Sampled check of the fractional minimum-point property.

    At a sampled minimizer x* of f, for every grid y with
    f^(al)(x*) * (y - x*)**al / Gamma(1 + al) >= 0 (the stationarity
    antecedent), membership requires
    eta(f(y), f(x*)) >= c**al * |y - x*|**(2 al).
    """

    x_star: float
    f_star: float
    derivative: float
    derivative_mode: str
    antecedent_count: int
    checked: int
    violations: tuple[tuple[float, float], ...]  # (y, consequent margin)
    tol_antecedent: float
    tol_consequent: float


def minimum_condition_check(
    f: FunctionSpec, eta: EtaSpec, c: float, ctx: AlphaContext
) -> MinimumConditionReport:
    """Locate the sampled minimizer of f and test the minimum property.

    The minimizer search is the 1-D analogue of the certification lattice
    (argmin over 200 grid points plus three 13-point refinement rounds shrinking 3x).  The
    derivative at x* uses the exact rule when f normalizes about the left
    endpoint and the finite-difference mode otherwise.  The consequent is
    allowed to fail by at most 1e-9 before a violation is recorded.
    """
    al = ctx.alpha
    a, b = _domain_of(f)
    n = 200
    xs = np.linspace(a, b, n)
    fx = f.evaluate_many(xs, ctx)
    i = int(np.argmin(fx))
    x_star, f_star = float(xs[i]), float(fx[i])
    w = (b - a) / (n - 1)
    for level in range(3):
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
    emb = np.sign(dy) * np.abs(dy) ** al
    ante = deriv * emb / gamma(1.0 + al)
    tol_a = 1e-12 * (1.0 + float(np.max(np.abs(ante))))
    active = ante >= -tol_a

    fy = fx
    cons = eta.evaluate_many(fy, np.full_like(fy, f_star), ctx) - c**al * np.abs(dy) ** (2.0 * al)
    tol_c = 1e-9
    bad = active & (cons < -tol_c)
    violations = tuple((float(xs[k]), float(cons[k])) for k in np.nonzero(bad)[0])
    return MinimumConditionReport(
        x_star=x_star,
        f_star=f_star,
        derivative=deriv,
        derivative_mode=mode,
        antecedent_count=int(np.count_nonzero(active)),
        checked=n,
        violations=violations,
        tol_antecedent=tol_a,
        tol_consequent=tol_c,
    )
