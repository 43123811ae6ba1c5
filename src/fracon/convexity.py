"""Membership checks for generalized strongly eta-convex functions.

A function f on [a, b] belongs to the class (for order alpha, modulus
c >= 0 and bifunction eta) when for all x, y in [a, b] and t in [0, 1]

    f(t*x + (1-t)*y)
        <= f(y) + t**al * eta(f(x), f(y))
           - c**al * t**al * (1-t)**al * |x - y|**(2*al),

with al = alpha.  The *defect* is (right side) - (left side); membership
is defect >= 0 everywhere.  Certification searches a deterministic
(x, y, t) lattice, locally refines around the worst point, and reports
either ``NoViolationFound`` or a self-validating counterexample whose
defect can be re-evaluated from its coordinates alone.

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
    _eval,
    _monotone_dirs,
)
from .fractal_scalar import AlphaContext, gamma

__all__ = [
    "Counterexample",
    "ConvexityReport",
    "NecessaryReport",
    "SymmetryReport",
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


# Lattice cells per x-slab in _lattice_min.  Its working set is three
# reused float64 buffers of at most this many cells (256 KiB) plus the
# temporaries of one f evaluation, whatever the grid, unless one x-row
# alone is larger; only the grid**2 arrays (eta, distances, (t, y) tiles)
# grow with it.  On the lattice benchmark 1 << 15 cuts the median case
# time by about 9% against 1 << 14, at the same throughput and traced peak
# (2.09 MiB); 1 << 16 raises that peak to 2.95 MiB.
_SLAB_CELLS = 1 << 15

# Deepest accepted refine_depth.  Each level shrinks the box 3x, so at
# level 40 it spans 3**-39 (about 2.5e-19) of a grid step, far below the
# defect's float resolution; on [0, 1] at grid 8 its x and y sides hold
# a single point from level 34 on (certify_gsc stops at the first level
# where all three sides do).  From level 648 on, 3**(level - 1) no longer
# converts to a float at all.
_MAX_REFINE = 40


def _lattice_min(f, eta, c, ctx, xs, ys, ts) -> tuple[tuple[int, int, int], float, float]:
    """Minimum defect over the (x, y, t) lattice, streamed in x-slabs.

    Returns ``((i, j, k), min defect, max |f| over the mixtures)``, where
    (i, j, k) is the first lattice index (C order) holding the minimum.
    Each slab covers ``max(1, _SLAB_CELLS // (len(ys) * len(ts)))`` x-rows
    laid out (x, t, y), and evaluates every cell with the same expression,
    in the same operation order, as a whole-lattice evaluation would, so
    the defects are bit-identical to it.  The mixtures, the defects and one
    scratch array live in three buffers allocated once per call and written
    in place by every slab.  A slab's minimum is located by one contiguous
    argmin; only when it beats the running best (or is NaN, or no cell is
    held yet) is the x-row holding it searched again in (y, t) order, and the best moves on
    a strict improvement only, so ties keep the first index.
    A non-finite f at a mixture, a NaN anywhere, or a -inf defect raises
    EvalError at the slab holding it.  A +inf defect (an overflowed right
    side) is no violation; only a lattice whose minimum is +inf, i.e. +inf
    in every cell, raises, at its first cell, so the outcome does not depend
    on the slab size.  Floating-point warnings are silenced here;
    non-finite values are errors instead.
    """
    with np.errstate(all="ignore"):
        al = ctx.alpha
        ny, nt = len(ys), len(ts)
        fx = f.evaluate_many(xs, ctx)
        fy = f.evaluate_many(ys, ctx)
        e = eta.evaluate_many(fx[:, None], fy[None, :], ctx)
        ta = ts**al
        corr = c**al * ta * (1.0 - ts) ** al
        dist = np.abs(xs[:, None] - ys[None, :]) ** (2.0 * al)
        # The slab-invariant factors as (t, y) tiles.  A ufunc that
        # broadcasts an operand along the innermost axis runs several times
        # slower than one over contiguous rows, so y is the inner axis and
        # the (x, y) rows of e and dist broadcast along t, the middle one.
        ts_ty, fy_ty, ta_ty, corr_ty = np.empty((4, nt, ny))
        ts_ty[...] = ts[:, None]
        fy_ty[...] = fy
        ta_ty[...] = ta[:, None]
        corr_ty[...] = corr[:, None]
        ty = (1.0 - ts[:, None]) * ys  # (1 - t) * y, the same in every slab
        # A strong term of +0.0 everywhere changes no bit when subtracted,
        # so it is skipped; an infinite distance keeps it, as 0 * inf is NaN.
        strong = corr.any() or np.signbit(corr).any() or not np.isfinite(dist).all()
        params = f._params()
        rows = min(len(xs), max(1, _SLAB_CELLS // (ny * nt)))
        # One block rather than three: on glibc, freeing a block this large
        # raises malloc's mmap and trim thresholds above it, so the slab-sized
        # temporaries of later f evaluations stay on the heap instead of
        # being handed back to the OS and faulted in again on every slab.
        mix_buf, d_buf, tmp_buf = np.empty((3, rows, nt, ny))
        best_idx, best, max_abs_f = None, math.inf, 0.0
        for i0 in range(0, len(xs), rows):
            n = min(rows, len(xs) - i0)
            sl = slice(i0, i0 + n)
            mix, d, tmp = mix_buf[:n], d_buf[:n], tmp_buf[:n]
            np.multiply(ts_ty, xs[sl, None, None], out=mix)
            np.add(mix, ty, out=mix)
            # The right side first: its broadcasting ufuncs allocate iterator
            # buffers, which then never coexist with f's values.
            np.multiply(ta_ty, e[sl, None, :], out=tmp)
            np.add(fy_ty, tmp, out=d)
            if strong:
                np.multiply(corr_ty, dist[sl, None, :], out=tmp)
                np.subtract(d, tmp, out=d)
            # The evaluator's worker, without evaluate_raw's finiteness pass:
            # the max and min that max |f| needs are NaN or infinite exactly
            # when some value is.
            fmix = np.asarray(_eval(f.ast, {"x": mix}, params, al))
            hi, lo = float(fmix.max()), float(fmix.min())
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise EvalError("non-finite value in evaluation")
            max_abs_f = max(max_abs_f, hi, -lo)
            np.subtract(d, fmix, out=d)
            del fmix  # before the argmin below copies a row, not alongside it
            # The first minimum in (x, t, y) order lies in the first x-row
            # holding the minimum (or a NaN); only that row's (y, t) order
            # decides between the cells tied there.
            # An all-+inf slab is searched only while no cell is held, so the
            # first +inf cell stands for a lattice that is +inf throughout.
            flat = int(np.argmin(d))
            low = d.flat[flat]
            if low < best or math.isnan(low) or best_idx is None:
                i = flat // (nt * ny)
                j, k = divmod(int(np.argmin(d[i].T)), nt)
                best_idx, best = (i0 + i, j, k), float(d[i, k, j])
                if not best > -math.inf:  # NaN or -inf: no later slab can matter
                    break
    if not math.isfinite(best):
        i, j, k = best_idx
        x, y, t = float(xs[i]), float(ys[j]), float(ts[k])
        raise EvalError(f"non-finite defect {best!r} at x={x!r}, y={y!r}, t={t!r}")
    return best_idx, best, max_abs_f


@dataclass(frozen=True)
class Counterexample:
    """A lattice point whose re-evaluated defect is negative."""

    x: float
    y: float
    t: float
    lhs: float
    rhs: float
    defect: float

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "t": self.t,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "defect": self.defect,
        }


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

    def to_dict(self) -> dict:
        return {
            "diag_ok": self.diag_ok,
            "diag_min": self.diag_min,
            "diag_witness": self.diag_witness,
            "upper_ok": self.upper_ok,
            "upper_min_margin": self.upper_min_margin,
            "upper_witness": list(self.upper_witness) if self.upper_witness else None,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of the lattice search; statuses are grid-qualified claims."""

    status: str  # "NoViolationFound" | "Violated"
    witness: Optional[Counterexample]
    min_defect: float
    tol_violation: float
    max_abs_f: float
    grid_n: int
    refine_depth: int
    a: float
    b: float
    evaluations: int
    necessary: NecessaryReport

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.to_dict() if self.witness else None,
            "min_defect": self.min_defect,
            "tol_violation": self.tol_violation,
            "max_abs_f": self.max_abs_f,
            "grid": {
                "grid_n": self.grid_n,
                "refine_depth": self.refine_depth,
                "interval": [self.a, self.b],
            },
            "evaluations": self.evaluations,
            "necessary": self.necessary.to_dict(),
        }


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
    level (clipped to bounds); ``refine_depth`` must lie in [0, 40].  The
    lattice is streamed in x-slabs of about 32k cells, laid out (x, t, y),
    with a running minimum, so memory is bounded: three slab buffers reused
    by every slab, one f evaluation's temporaries and a few ``grid_n``**2
    arrays, never a ``grid_n``**3 tensor (traced peak about 2.1 MiB at
    grid 150).  The violation threshold scales with the sampled magnitude
    of f: tol = 1e-9 * (1 + max |f|).  Reductions run through the same
    lattice: endpoints of the t-grid cover the necessary conditions' t = 1
    instances, so an eta failing them is also caught as a plain
    counterexample.  Deterministic: ties resolve to the first lattice index
    in (x, y, t) order whatever the slab boundaries, and refinement accepts
    strict improvements only.  Refinement stops before a level whose box
    holds a single value on every axis: that box is the best cell alone,
    as is every later one, so no level from there on can improve on it,
    and ``evaluations`` counts only the levels that ran.  A +inf defect (an
    overflowed right side) is no violation.  A NaN defect (e.g. 0 * inf
    where |x - y|**(2*al) overflows on a very wide interval), a -inf
    defect, a lattice or box whose every defect is +inf, or a non-finite f
    at a mixture raises EvalError.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n!r}")
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

    (i, j, k), min_defect, max_abs_f = _lattice_min(f, eta, c, ctx, xs, xs, ts)
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
        (i, j, k), box_min, mf = _lattice_min(f, eta, c, ctx, lx, ly, lt)
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
        grid_n=grid_n,
        refine_depth=refine_depth,
        a=a,
        b=b,
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


@dataclass(frozen=True)
class SymmetryReport:
    """Sampled symmetry/nonnegativity verdict for a weight on [a, b]."""

    symmetric: bool
    max_asymmetry: float
    asym_witness: Optional[float]
    nonnegative: bool
    min_value: float
    neg_witness: Optional[float]
    tol: float


def check_symmetry(
    w: WeightSpec, a: float, b: float, ctx: AlphaContext, grid_n: int = 1001
) -> SymmetryReport:
    """Sample |w(x) - w(a + b - x)| on [a, b] and the sign of w.

    Symmetric when the worst sampled asymmetry is <= 1e-10 * (1 + max |w|);
    the report also carries a negativity check since Fejer weights must be
    nonnegative.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n!r}")
    xs = np.linspace(a, b, grid_n)
    wx = w.evaluate_many(xs, ctx)
    wrev = w.evaluate_many(a + b - xs, ctx)
    asym = np.abs(wx - wrev)
    i = int(np.argmax(asym))
    max_asym = float(asym[i])
    scale = 1.0 + float(np.max(np.abs(wx)))
    tol = 1e-10 * scale
    symmetric = max_asym <= tol
    j = int(np.argmin(wx))
    min_value = float(wx[j])
    nonnegative = min_value >= -1e-12 * scale
    return SymmetryReport(
        symmetric=symmetric,
        max_asymmetry=max_asym,
        asym_witness=None if symmetric else float(xs[i]),
        nonnegative=nonnegative,
        min_value=min_value,
        neg_witness=None if nonnegative else float(xs[j]),
        tol=tol,
    )


def estimate_eta_sup(
    f: FunctionSpec,
    eta: EtaSpec,
    ctx: AlphaContext,
    grid_n: int = 512,
    a: Optional[float] = None,
    b: Optional[float] = None,
) -> float:
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
    result is bit for bit the max over all grid_n**2 pairs:

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
    if a is None or b is None:
        a, b = _domain_of(f)
    xs = np.linspace(float(a), float(b), grid_n)
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
    f: FunctionSpec,
    eta: EtaSpec,
    c: float,
    ctx: AlphaContext,
    grid_n: int = 200,
) -> MinimumConditionReport:
    """Locate the sampled minimizer of f and test the minimum property.

    The minimizer search is the 1-D analogue of the certification lattice
    (grid argmin plus three 13-point refinement rounds shrinking 3x).  The
    derivative at x* uses the exact rule when f normalizes about the left
    endpoint and the finite-difference mode otherwise.  The consequent is
    allowed to fail by at most 1e-9 before a violation is recorded.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n!r}")
    al = ctx.alpha
    a, b = _domain_of(f)
    xs = np.linspace(a, b, grid_n)
    fx = f.evaluate_many(xs, ctx)
    i = int(np.argmin(fx))
    x_star, f_star = float(xs[i]), float(fx[i])
    w = (b - a) / (grid_n - 1)
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
        checked=grid_n,
        violations=violations,
        tol_antecedent=tol_a,
        tol_consequent=tol_c,
    )
