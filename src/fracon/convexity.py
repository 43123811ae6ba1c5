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
from .expr import EtaSpec, EvalError, FunctionSpec, NotPolynomial, WeightSpec
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
# reused float64 buffers of this many cells (128 KiB each) plus the
# temporaries of one f evaluation, whatever the grid, unless one x-row
# alone is larger; only the grid**2 arrays (eta, distances, one-row tiles)
# grow with it.
_SLAB_CELLS = 1 << 14


def _lattice_min(f, eta, c, ctx, xs, ys, ts) -> tuple[tuple[int, int, int], float, float]:
    """Minimum defect over the (x, y, t) lattice, streamed in x-slabs.

    Returns ``((i, j, k), min defect, max |f| over the mixtures)``, where
    (i, j, k) is the first lattice index (C order) holding the minimum.
    Each slab covers ``max(1, _SLAB_CELLS // (len(ys) * len(ts)))`` x-rows
    and evaluates every cell with the same expression, in the same
    operation order, as a whole-lattice evaluation would, so the defects
    are bit-identical to it.  The mixtures, the defects and one scratch
    array live in three buffers allocated once per call and written in
    place by every slab.  The running best moves on a strict improvement
    only, so ties keep the first index.  A non-finite slab minimum (inf,
    or a NaN anywhere in the slab) raises EvalError.  Floating-point
    warnings are silenced here; non-finite values are errors instead.
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
        ty = (1.0 - ts[None, :]) * ys[:, None]  # (1 - t) * y, the same in every slab
        # The other slab-invariant factors, tiled to one x-row: a ufunc that
        # broadcasts an operand along the innermost (t) axis runs several
        # times slower than one over contiguous rows, so the slab arithmetic
        # broadcasts only whole rows, and e and dist are spread along t by
        # a plain copy first.
        ts_row, fy_row, ta_row, corr_row = np.empty((4, ny, nt))
        ts_row[...] = ts
        fy_row[...] = fy[:, None]
        ta_row[...] = ta
        corr_row[...] = corr
        rows = min(len(xs), max(1, _SLAB_CELLS // (ny * nt)))
        # One block rather than three: on glibc, freeing a block this large
        # raises malloc's mmap and trim thresholds above it, so the slab-sized
        # temporaries of later f evaluations stay on the heap instead of
        # being handed back to the OS and faulted in again on every slab.
        mix_buf, d_buf, tmp_buf = np.empty((3, rows, ny, nt))
        best_idx, best, max_abs_f = None, math.inf, 0.0
        for i0 in range(0, len(xs), rows):
            n = min(rows, len(xs) - i0)
            sl = slice(i0, i0 + n)
            mix, d, tmp = mix_buf[:n], d_buf[:n], tmp_buf[:n]
            np.multiply(ts_row, xs[sl, None, None], out=mix)
            np.add(mix, ty, out=mix)
            fmix = f.evaluate_many(mix, ctx)
            np.copyto(tmp, e[sl, :, None])
            np.multiply(ta_row, tmp, out=tmp)
            np.add(fy_row, tmp, out=d)
            np.copyto(tmp, dist[sl, :, None])
            np.multiply(corr_row, tmp, out=tmp)
            np.subtract(d, tmp, out=d)
            np.subtract(d, fmix, out=d)
            # evaluate_many has rejected non-finite values, so this is max |fmix|.
            max_abs_f = max(max_abs_f, float(fmix.max()), float(-fmix.min()))
            i, j, k = np.unravel_index(int(np.argmin(d)), d.shape)
            value = float(d[i, j, k])
            if not math.isfinite(value):
                x, y, t = float(xs[i0 + i]), float(ys[j]), float(ts[k])
                raise EvalError(f"non-finite defect {value!r} at x={x!r}, y={y!r}, t={t!r}")
            if value < best:
                best_idx, best = (i0 + int(i), int(j), int(k)), value
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
    level (clipped to bounds).  The lattice is streamed in x-slabs of about
    16k cells with a running minimum, so memory is bounded: three slab
    buffers reused by every slab, one f evaluation's temporaries and a few
    ``grid_n``**2 arrays, never a ``grid_n``**3 tensor (traced peak about
    2.6 MiB at grid 150).  The violation threshold scales with the sampled
    magnitude of f: tol = 1e-9 * (1 + max |f|).  Reductions run through
    the same lattice: endpoints of the t-grid cover the necessary
    conditions' t = 1 instances, so an eta failing them is also caught as
    a plain counterexample.  Deterministic: ties resolve to the first
    lattice index in (x, y, t) order whatever the slab boundaries, and
    refinement accepts strict improvements only.  A non-finite defect
    (e.g. |x - y|**(2*al) overflowing on a very wide interval) raises
    EvalError.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n!r}")
    if refine_depth < 0:
        raise ValueError(f"refine_depth must be >= 0, got {refine_depth!r}")
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

    @property
    def ok(self) -> bool:
        return self.symmetric and self.nonnegative

    def to_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "max_asymmetry": self.max_asymmetry,
            "asym_witness": self.asym_witness,
            "nonnegative": self.nonnegative,
            "min_value": self.min_value,
            "neg_witness": self.neg_witness,
            "tol": self.tol,
        }


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
    """
    if a is None or b is None:
        a, b = _domain_of(f)
    xs = np.linspace(float(a), float(b), grid_n)
    fx = f.evaluate_many(xs, ctx)
    pair = eta.evaluate_many(fx[:, None], fx[None, :], ctx)
    return float(np.max(pair))


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

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star,
            "f_star": self.f_star,
            "derivative": self.derivative,
            "derivative_mode": self.derivative_mode,
            "antecedent_count": self.antecedent_count,
            "checked": self.checked,
            "violations": [[y, m] for y, m in self.violations],
            "tol_antecedent": self.tol_antecedent,
            "tol_consequent": self.tol_consequent,
            "ok": self.ok,
        }


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
