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

from .expr import EtaSpec, EvalError, FunctionSpec, NotPolynomial, WeightSpec, _monotone_dirs
from .fractal_scalar import AlphaContext

__all__ = [
    "Counterexample",
    "ConvexityReport",
    "LatticeGrid",
    "NecessaryReport",
    "SymmetryError",
    "defect",
    "certify_gsc",
    "check_eta_necessary",
    "check_symmetry",
    "estimate_eta_sup",
]


class SymmetryError(ValueError):
    """Weight precondition violated (asymmetric or negative)."""


def _check_interval(a: float, b: float, c: float = 0.0) -> tuple[float, float]:
    """[a, b] as floats; a >= b (or a NaN end), then c < 0 (or NaN), is a
    ValueError."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    _check_range("c", c, 0, math.inf)
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
    """The defect's two sides at (x, y, t) in the arithmetic of a refinement
    box: f from one call on [x, y, t x + (1 - t) y], and the right side from
    ``_defect_into`` on the one cell with f(mixture) = 0.0, so ``rhs - lhs``
    is the defect of the one-cell box (x, y, t) bit for bit."""
    points = np.array([x, y, t * x + (1.0 - t) * y])
    values = f.evaluate_many(points, ctx)
    e, ta, corr, dist = _right_side(eta, c, ctx, values[:1], values[1:2], points[:1],
                                    points[1:2], np.array([t]))
    _defect_into(e, e, ta, values[1:2], corr, dist, 0.0, dist)
    return float(values[2]), float(e[0, 0])


# Largest accepted grid_n: 1e9 lattice cells, walked one t-plane at a time
# in four or six grid**2 arrays (see ``_defect_into``).
_MAX_GRID = 1000

# Deepest accepted refine_depth.  Each level shrinks the box 3x, so at
# level 40 it spans 3**-39 (about 2.5e-19) of a grid step, far below the
# defect's float resolution; on [0, 1] at grid 8 its x and y sides hold
# a single point from level 34 on (certify_gsc stops at the first level
# where all three sides do).  From level 648 on, 3**(level - 1) no longer
# converts to a float at all.
_MAX_REFINE = 40

# The accepted (lowest, highest) grid_n and refine_depth; the points per
# axis of a refinement box; and certify's violation threshold: a defect
# below -_VIOLATION_RTOL * (1 + max |f|) is a violation.
_GRID_RANGE = (8, _MAX_GRID)
_REFINE_RANGE = (0, _MAX_REFINE)
_BOX = 13
_VIOLATION_RTOL = 1e-9


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    """A ValueError naming ``name`` unless lo <= value <= hi (NaN is not)."""
    if not value >= lo:
        raise ValueError(f"{name} must be >= {lo}, got {value!r}")
    if not value <= hi:
        raise ValueError(f"{name} must be <= {hi}, got {value!r}")


def _linspace(lo, hi, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)`` for n >= 2, bit for bit, without its helpers.

    The same float64 steps in the same order: delta = hi - lo, then y = 0,
    1, ..., n - 1 times delta / (n - 1), or, where that step underflows to
    0, divided by n - 1 and then times delta; then lo is added and the last
    point set to hi.  delta is a float64 ufunc subtract, so an overflowing
    span warns as linspace's does.  ``np.linspace`` spends most of a small
    grid's time in Python (argument conversion, dtype and shape handling),
    and certify and the eta checks sample several small grids per call.
    Measured against ``np.linspace`` (``tools/cases_ab.py``, seeds 1,2, 20
    rounds): sweep mean B/A 0.932, this faster in 20 of 20 rounds.
    """
    delta = np.subtract(hi, lo, dtype=float)
    y = np.arange(n, dtype=float)
    step = delta / (n - 1)
    if step == 0:
        y /= n - 1
        y *= delta
    else:
        y *= step
    y += lo
    y[-1] = hi
    return y


def _sample(f, a: float, b: float, ctx: AlphaContext, n: int):
    """(a, b) as floats (a < b, else a ValueError), n evenly spaced points xs
    of [a, b], and f's values there."""
    a, b = _check_interval(a, b)
    xs = _linspace(a, b, n)
    return a, b, xs, f.evaluate_many(xs, ctx)


def _right_side(eta, c, ctx, fx, fy, xs, ys, ts):
    """The factors of the defect's right side: eta(f(x), f(y)) over (x, y)
    and t**al over t, then the strong term's c**al t**al (1 - t)**al over t
    and |x - y|**(2 al) over (x, y), or None and None where that term is
    skipped.

    A strong term of +0.0 everywhere changes no bit when subtracted, so it
    is skipped and the (x, y) distances are never built.  It runs when
    ``corr`` holds anything but +0.0 (a -0.0 turns a -0.0 defect into
    +0.0), or when some distance is not finite, as 0 * inf is NaN.
    xs and ys must be ascending (every caller passes ``_linspace`` axes,
    or one point each): rounding is monotone, so the largest |x - y| is
    then at a corner of the grid, |xs[-1] - ys[0]| or |ys[-1] - xs[0]|,
    read from the ends without a reduction.  On unsorted sides an
    overflowing distance can be missed.
    """
    al = ctx.alpha
    e = eta.evaluate_many(fx[:, None], fy[None, :], ctx)
    ta = ts**al
    corr = c**al * ta * (1.0 - ts) ** al
    if not np.count_nonzero(corr.view(np.int64)):  # +0.0 alone has no bit set
        far = np.abs(np.array([xs[-1] - ys[0], ys[-1] - xs[0]])) ** (2.0 * al)
        if math.isfinite(far.max()):
            return e, ta, None, None
    return e, ta, corr, np.abs(xs[:, None] - ys[None, :]) ** (2.0 * al)


def _defect_into(d, e, ta, fy, corr, dist, fmix, tmp) -> None:
    """Write the defect e ta + fy - dist corr - fmix into d, in that order.

    The defect's one home: the lattice calls it per t-plane, a refinement
    box on its whole block, and the witness on one cell with fmix = 0.0,
    where d ends as the right side (x - 0.0 is x, -0.0 and NaN included).
    The same IEEE operations in the same order give the same bits in any
    layout.  Operands broadcast against d; e may be d and tmp may be dist.
    dist is None where ``_right_side`` skips the strong term; else tmp
    takes dist corr, then a copy of fmix, subtracted from there: a ufunc
    reading a strided operand (the lattice's f(mixture) view) takes one of
    numpy's ufunc buffers, a copy takes none.

    Memory.  With the term skipped (c = 0) the lattice holds four grid**2
    arrays, the (grid - 1)**2 + 1 table of f, eta, the f(y) tile and the
    defect plane, and at most one plane of ufunc buffer for the view; with
    it run, six (the distances and tmp too) and no buffer.  A 13**3 box
    holds two box-sized arrays, the points (whose mixture block is d) and
    f's values, and one ufunc buffer for a broadcast small operand; with
    the term run, a third holds the spread distances and is tmp.
    """
    np.multiply(e, ta, out=d)
    np.add(d, fy, out=d)
    if dist is not None:
        np.multiply(dist, corr, out=tmp)
        np.subtract(d, tmp, out=d)
        np.copyto(tmp, fmix)
        fmix = tmp
    np.subtract(d, fmix, out=d)


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
    The lattice is walked one t-plane at a time, in one (x, y) defect plane
    that every plane reuses and ``_defect_into`` fills (its docstring counts
    the memory this holds), so the defect is a whole-lattice evaluation's
    but for f(mixture), read off the table instead of at the float mixture
    fl(t x) + fl((1 - t) y).  Each plane's first minimum (or NaN) comes
    from one argmin, and the planes' minima are ranked NaN first, then by
    value, (x, y) index and t, so ties keep the first index.  Every operand
    but the strided f(mixture) view is a scalar or a contiguous plane,
    which numpy's ufuncs read in place.  A non-finite f on the table, a NaN
    anywhere or a -inf defect raises EvalError.  A +inf defect (an
    overflowed right side) is no violation; the t = 0 plane is exactly 0,
    so no main lattice is +inf throughout.  Floating-point warnings are
    silenced here; non-finite values are errors instead.
    """
    n = len(xs)
    with np.errstate(all="ignore"):
        mixtures = _linspace(xs[0], xs[-1], (n - 1) ** 2 + 1)
        mixtures[:: n - 1] = xs
        table = f.evaluate_many(mixtures, ctx)
        # Free the mixtures and |table| before the planes exist, so the
        # loop holds no grid**2 array beyond ``_defect_into``'s four or six.
        del mixtures
        max_abs_f = float(np.abs(table).max())
        fx = table[:: n - 1]
        e, ta, corr, dist = _right_side(eta, c, ctx, fx, fx, xs, xs, ts)
        # One block; the scratch plane only when the strong term runs
        # (otherwise tmp is d, and unused).
        planes = np.empty((1 if dist is None else 2, n, n))
        d, tmp = planes[0], planes[-1]
        flat_d = d.reshape(n * n)
        # f(y) as whole (x, y) rows: a ufunc that broadcasts an operand along
        # the innermost axis runs slower than one over contiguous rows.  The
        # tile trades one plane for time: broadcasting fx instead read
        # lattice mean B/A 0.870 (20 of 20 rounds, ``tools/cases_ab.py``
        # seeds 1,2) and a seed-1 peak of 977,832 B against 1,093,088 B.
        fy = fx[None, :].repeat(n, axis=0)
        step = table.itemsize
        best = (True, math.inf, n * n, n)  # (not NaN, defect, i n + j, k)
        for k in range(n):
            strides = (k * step, (n - 1 - k) * step)
            fmix = np.ndarray((n, n), table.dtype, table, 0, strides)
            _defect_into(d, e, ta[k], fy, corr if corr is None else corr[k], dist, fmix, tmp)
            flat = int(flat_d.argmin())
            low = float(flat_d[flat])
            if low > best[1]:
                continue  # loses to the best, which a tie would not
            key = (low == low, low if low == low else 0.0, flat, k)
            if key < best:
                best = key
    ok, low, flat, k = best
    i, j = divmod(flat, n)
    return (i, j, k), _finite_min(low if ok else math.nan, xs[i], xs[j], ts[k]), max_abs_f


def _box_min(f, eta, c, ctx, xs, ys, ts) -> tuple[tuple[int, int, int], float, float]:
    """Minimum defect over a refinement box, evaluated as one (x, y, t) tensor.

    The box's mixtures lie on no 1-D grid, so f is evaluated at the float
    mixtures fl(t x) + fl((1 - t) y), in one call together with xs and ys:
    all three are written into the one array f is evaluated on.
    ``_defect_into`` then builds the defect in that array's mixture block,
    in one call (its docstring counts the memory this holds).  numpy copies
    a ufunc's broadcast operand through a box-sized buffer, so
    ``np.copyto``, which takes none, spreads x, eta and the distances along
    t, and each in-place op broadcasts one small operand.  Returns as
    ``_lattice_min`` does, with max |f| over the mixtures; ties keep the
    first index.  A non-finite f at a box point, a NaN or -inf defect, or a
    box whose every defect is +inf raises EvalError.
    """
    nx, ny, nt = len(xs), len(ys), len(ts)
    with np.errstate(all="ignore"):
        points = np.empty(nx + ny + nx * ny * nt)
        points[:nx] = xs
        points[nx : nx + ny] = ys
        mix = points[nx + ny :].reshape(nx, ny, nt)
        np.copyto(mix, xs[:, None, None])
        np.multiply(mix, ts, out=mix)
        np.add(mix, (1.0 - ts) * ys[:, None], out=mix)
        values = f.evaluate_many(points, ctx)
        fy = values[nx : nx + ny]
        fmix = values[nx + ny :].reshape(mix.shape)
        e, ta, corr, dist = _right_side(eta, c, ctx, values[:nx], fy, xs, ys, ts)
        # f is read from ``values`` from here on, so the mixture block
        # becomes the defect.
        d = mix
        np.copyto(d, e[:, :, None])
        strong = dist
        if dist is not None:
            strong = np.empty_like(d)
            np.copyto(strong, dist[:, :, None])
        _defect_into(d, d, ta, fy[:, None], corr, strong, fmix, strong)
        del strong  # before |f(mixture)| below takes a box-sized array
    i, jk = divmod(int(d.argmin()), ny * nt)
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
    a: float,
    b: float,
    ctx: AlphaContext,
    grid_n: int = 50,
    refine_depth: int = 3,
) -> ConvexityReport:
    """Search the (x, y, t) lattice over [a, b] for membership violations.

    Evaluates the defect on a ``grid_n``**3 lattice over
    [a, b] x [a, b] x [0, 1], then refines ``refine_depth`` times around
    the current minimizer with a 13-point-per-axis box that shrinks 3x per
    level (clipped to bounds); ``grid_n`` must lie in [8, 1000],
    ``refine_depth`` in [0, 40], a below b and c >= 0, checked in that
    order.  The lattice's mixtures t*x + (1-t)*y are
    the (grid_n - 1)**2 + 1 evenly spaced points of [a, b], so f is
    evaluated once on that table and read back plane by plane.  The lattice
    is walked one t-plane at a time with a running minimum, so memory is
    bounded, never a ``grid_n``**3 tensor.  A refinement box, whose
    mixtures lie on no such grid, is one 13**3 tensor at float mixtures,
    with f evaluated once per box.  One kernel, ``_defect_into``, computes
    the defect of the lattice's planes, the boxes and the witness, and its
    docstring counts the arrays each holds: four or six of about
    ``grid_n``**2 floats as the strong term is skipped (c = 0) or runs.
    Certification leaves numpy's buffer size and error state as the caller
    set them.  The violation threshold scales with the sampled magnitude of
    f over the mixtures: tol = 1e-9 * (1 + max |f|).  Reductions run through
    the same lattice: endpoints of the t-grid cover the necessary
    conditions' t = 1 instances, so an eta failing them is also caught as a
    plain counterexample.  Deterministic: ties resolve to the first lattice
    index in (x, y, t) order, and refinement
    accepts strict improvements only.  Refinement stops before a level whose box
    holds a single value on every axis: that box is the best cell alone,
    as is every later one, so no level from there on can improve on it,
    and ``evaluations`` counts only the levels that ran.  A +inf defect (an
    overflowed right side) is no violation.  A NaN defect (e.g. 0 * inf
    where |x - y|**(2*al) overflows on a very wide interval), a -inf
    defect, a box whose every defect is +inf, or a non-finite f at a
    mixture raises EvalError.
    """
    _check_range("grid_n", grid_n, *_GRID_RANGE)
    _check_range("refine_depth", refine_depth, *_REFINE_RANGE)
    a, b = _check_interval(a, b, c)
    xs = _linspace(a, b, grid_n)
    ts = _linspace(0.0, 1.0, grid_n)

    necessary = check_eta_necessary(f, eta, a, b, ctx, grid_n)

    (i, j, k), min_defect, max_abs_f = _lattice_min(f, eta, c, ctx, xs, ts)
    evaluations = grid_n**3
    best = (float(xs[i]), float(xs[j]), float(ts[k]))

    tol = _VIOLATION_RTOL * (1.0 + max_abs_f)
    # When a necessary condition already fails decisively, skip the local
    # refinement: the lattice minimum is a witness already.
    refine = refine_depth if not (not necessary.ok and min_defect < -tol) else 0

    dx = (b - a) / (grid_n - 1)
    dt = 1.0 / (grid_n - 1)
    for level in range(1, refine + 1):
        wx = dx / 3 ** (level - 1)
        wt = dt / 3 ** (level - 1)
        cx, cy, ct = best
        lx = _linspace(max(a, cx - wx), min(b, cx + wx), _BOX)
        ly = _linspace(max(a, cy - wx), min(b, cy + wx), _BOX)
        lt = _linspace(max(0.0, ct - wt), min(1.0, ct + wt), _BOX)
        if lx[0] == lx[-1] and ly[0] == ly[-1] and lt[0] == lt[-1]:
            break  # the box is the best cell alone, here and at every later level
        (i, j, k), box_min, mf = _box_min(f, eta, c, ctx, lx, ly, lt)
        evaluations += _BOX**3
        max_abs_f = max(max_abs_f, mf)
        if box_min < min_defect:
            min_defect = box_min
            best = (float(lx[i]), float(ly[j]), float(lt[k]))

    tol = _VIOLATION_RTOL * (1.0 + max_abs_f)
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
    f: FunctionSpec, eta: EtaSpec, a: float, b: float, ctx: AlphaContext, grid_n: int = 200
) -> NecessaryReport:
    """Check 0 <= eta(p, p) and p - q <= eta(p, q) over the image of [a, b].

    The image is f at ``grid_n`` evenly spaced points of [a, b].  Both
    conditions are necessary for membership (take x = y, and t = 1), so a
    failure here short-circuits certification into a counterexample.
    Margins are reported with their witnesses; the tolerance is 1e-12 on
    the sampled magnitude scale.  ``grid_n`` must lie in [8, 1000], as for
    ``certify_gsc`` (the pair check holds ``grid_n``**2 floats), and a < b;
    either is checked before f is read.
    """
    _check_range("grid_n", grid_n, *_GRID_RANGE)
    a, b, xs, fx = _sample(f, a, b, ctx, grid_n)

    pair = eta.evaluate_many(fx[:, None], fx[None, :], ctx)
    diag = pair.diagonal()
    scale = 1.0 + float(np.abs(diag).max())
    tol = 1e-12 * scale
    i = int(diag.argmin())
    diag_min = float(diag[i])
    diag_ok = diag_min >= -tol
    diag_witness = None if diag_ok else float(xs[i])

    diff = fx[:, None] - fx[None, :]
    scale2 = 1.0 + max(float(np.abs(pair).max()), float(np.abs(diff).max()))
    tol2 = 1e-12 * scale2
    margins = np.subtract(pair, diff, out=diff)
    i, j = divmod(int(margins.argmin()), grid_n)
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

    When w has a two-endpoint normal form on [a, b] (``WeightSpec.form``,
    sum c(k, j) (x - a)**(k al) (b - x)**(j al)) whose coefficients are all
    finite and >= 0, with c(k, j) == c(j, k) exactly (a missing key counts
    as 0), each term and its mirror image are >= 0 and sum to a function
    symmetric about (a+b)/2, so w is both, and it is not sampled.

    Every other w is sampled at 1001 evenly spaced points of [a, b].  It
    is symmetric when the worst sampled |w(x) - w(a + b - x)| is
    <= 1e-10 * (1 + max |w|), and nonnegative when its sampled minimum is
    >= -1e-12 * (1 + max |w|), since Fejer weights must be both.  Symmetry
    is checked first; a NaN sample fails both checks.  The points and
    their mirror images a + b - x are evaluated in one call.
    """
    a, b = _check_interval(a, b)
    if _symmetric_form(w, a, b, ctx):
        return
    xs = _linspace(a, b, 1001)
    values = w.evaluate_many(np.concatenate((xs, a + b - xs)), ctx)
    wx = values[:1001]
    asym = np.abs(wx - values[1001:])
    i = int(asym.argmax())
    scale = 1.0 + float(np.abs(wx).max())
    tol = 1e-10 * scale
    if not float(asym[i]) <= tol:
        raise SymmetryError(
            f"weight is not symmetric about the midpoint: max asymmetry "
            f"{float(asym[i]):.3e} at x={float(xs[i])!r} (tol {tol:.3e})"
        )
    j = int(wx.argmin())
    if not float(wx[j]) >= -1e-12 * scale:
        raise SymmetryError(
            f"weight takes negative values: min {float(wx[j]):.3e} at x={float(xs[j])!r}"
        )


def _symmetric_form(w: WeightSpec, a: float, b: float, ctx: AlphaContext) -> bool:
    """Whether w's normal form on [a, b] shows it symmetric and nonnegative:
    it has one, and every coefficient is finite, >= 0 and equal to its
    mirror's, c(k, j) == c(j, k)."""
    try:
        form = w.form(a, b, ctx)
    except NotPolynomial:
        return False
    return all(math.isfinite(c) and c >= 0.0 and c == form.get((j, k), 0.0)
               for (k, j), c in form.items())


def estimate_eta_sup(
    f: FunctionSpec, eta: EtaSpec, a: float, b: float, ctx: AlphaContext
) -> float:
    """Max of eta over sampled pairs of the f-image on [a, b]; needs a < b.

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
    a, b, xs, fx = _sample(f, a, b, ctx, 512)
    if _monotone_dirs(eta.ast, eta._params, ctx.alpha) is not None:
        lo, hi = _signed_extremes(fx)
        ends = np.array([lo, hi])
        corners = eta.evaluate_many(ends[:, None], ends[None, :], ctx)
        top = float(corners.max())
        same = lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi)
        if top != 0.0 or same or np.signbit(corners[corners == 0.0]).all():
            return top
    pair = eta.evaluate_many(fx[:, None], fx[None, :], ctx)
    return float(pair.max())


def _signed_extremes(fx: np.ndarray) -> tuple[float, float]:
    """Min and max of fx in the order that puts -0.0 below +0.0."""
    lo, hi = float(fx.min()), float(fx.max())
    if lo == 0.0 or hi == 0.0:
        signs = np.signbit(fx[fx == 0.0])
        if lo == 0.0:
            lo = -0.0 if signs.any() else 0.0
        if hi == 0.0:
            hi = 0.0 if not signs.all() else -0.0
    return lo, hi
