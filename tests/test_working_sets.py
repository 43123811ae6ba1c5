"""Traced peaks of warm calls whose working set grows with the sample count.

Each bound sits between what the code allocates and what one more array of
the same size (or a kept buffer) would add, so a change that holds an extra
array through the call fails here.  Every call runs once untraced first,
so caches (the quadrature meshes, lazy imports) are already built.
"""

from __future__ import annotations

import contextlib
import io
import tracemalloc

from fracon import AlphaContext, EtaSpec, FunctionSpec, WeightSpec, certify_gsc, rl_integrate
from fracon.cli import main
from fracon.convexity import _box_min, _linspace
from fracon.inequalities import fejer_terms
from fracon.presets import ETA_PRESETS

# The parabolic weight written with abs: the preset's values on [lo, hi],
# but no normal form, so every Fejer integral but m1 stays on the rl route
# (m1 always does) and the peaks below are the numeric route's.
_RL_PARABOLIC = "abs(x - lo)^(a)*abs(hi - x)^(a)"


def _warm_peak(call) -> int:
    """Traced peak bytes of ``call()`` above the level it starts at."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_fejer_holds_under_six_arrays_of_its_eta_mesh():
    """L's integrand runs on 3,984 samples here, the largest mesh of the
    call.  Evaluated in place, with f's two sample arrays freed when eta
    returns, the call peaked near 142 KB, under six such arrays (104 KB
    now, see the next test); with an array per operator it peaked near
    260 KB."""
    bound = {"lo": 0.0, "hi": 1.0}
    f = FunctionSpec.from_text("abs(x - 0.7)^(a)", params=bound)
    eta = EtaSpec.from_text(ETA_PRESETS["example23"], params=bound)
    w = WeightSpec.from_text(_RL_PARABOLIC, params=bound)
    ctx = AlphaContext(alpha=0.9)
    assert set(fejer_terms(f, eta, 1.0, w, 0.0, 1.0, ctx).routes.values()) == {"rl"}
    peak = _warm_peak(lambda: fejer_terms(f, eta, 1.0, w, 0.0, 1.0, ctx))
    assert peak < 6 * 3984 * 8


def test_fejer_holds_under_four_arrays_of_its_eta_mesh():
    """The same call as above.  L's integrand multiplies w into eta's
    array, and rl_integrate weighs the samples in fn's array: the call
    peaks near 104 KB, in L's integral.  With the parabolic preset, whose
    signed alpha-powers then held an array per factor, it read 141 KB."""
    bound = {"lo": 0.0, "hi": 1.0}
    f = FunctionSpec.from_text("abs(x - 0.7)^(a)", params=bound)
    eta = EtaSpec.from_text(ETA_PRESETS["example23"], params=bound)
    w = WeightSpec.from_text(_RL_PARABOLIC, params=bound)
    ctx = AlphaContext(alpha=0.9)
    assert set(fejer_terms(f, eta, 1.0, w, 0.0, 1.0, ctx).routes.values()) == {"rl"}
    peak = _warm_peak(lambda: fejer_terms(f, eta, 1.0, w, 0.0, 1.0, ctx))
    assert peak < 4 * 3984 * 8


def test_capped_singular_integral_stays_under_16_mib():
    """abs(x - 0.3)^(-0.9) at alpha 1 never converges: the quadrature
    refines up to its evaluation cap (and lf_integral raises on the
    result).  In place, the evaluation of f kept about 12.7 MiB at the
    peak (9.85 MiB now, see the 11 MiB bound below); an array per operator
    took 19 MiB."""
    f = FunctionSpec.from_text("abs(x - 0.3)^(-0.9)")
    ctx = AlphaContext(alpha=1.0)

    def integrate():
        res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, 1.0,
                           points=f.singular_points())
        assert not res.converged

    assert _warm_peak(integrate) < 16 * 2**20


def test_capped_singular_integral_stays_under_11_mib():
    """The call above again.  Its fractional power of abs(...) holds one
    array, and the samples are weighed in f's array, so the peak is near
    9.85 MiB (two node-sized arrays and masks), where it was 12.74 MiB with
    three node-sized arrays."""
    f = FunctionSpec.from_text("abs(x - 0.3)^(-0.9)")
    ctx = AlphaContext(alpha=1.0)

    def integrate():
        res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, 1.0,
                           points=f.singular_points())
        assert not res.converged

    assert _warm_peak(integrate) < 11 * 2**20


def _certify_peak(c: float, grid: int) -> int:
    f = FunctionSpec.from_text("x^(2a)")
    eta = EtaSpec.from_text(ETA_PRESETS["example23"])
    ctx = AlphaContext(alpha=0.5)
    return _warm_peak(lambda: certify_gsc(f, eta, c, 0.0, 1.0, ctx, grid, 2))


def test_small_grid_certify_walks_one_t_plane_at_a_time():
    """At grid 24 (the sweep default) the lattice loop holds one 576-cell
    defect plane and one scratch plane, and the call peaks near 0.074 MiB,
    in a refinement box (0.091 MiB when the box held a fourth array).
    Slabs of several t-planes (about 32k cells) peaked at 0.237 MiB, and
    with their operands copied through numpy's 64 KiB ufunc buffers at
    0.357 MiB; one more such buffer alone would cross this bound."""
    assert _certify_peak(1.0, 24) < 0.12 * 2**20


def test_small_grid_certify_without_strong_term_walks_one_t_plane_at_a_time():
    """At c = 0 the strong term, its distances and its scratch plane are
    skipped, and the grid-24 call peaks near 0.056 MiB, in a refinement
    box of two box-sized arrays (0.074 MiB when the box built its +0.0
    strong term).  With slabs it read 0.132 MiB, and 0.237 with the unused
    scratch slab allocated."""
    assert _certify_peak(0.0, 24) < 0.12 * 2**20


def test_default_grid_certify_walks_one_t_plane_at_a_time():
    """At grid 50 (certify's default) the call peaks near 0.118 MiB with
    its two 2,500-cell planes, the f(mixture) view copied into the scratch
    plane (0.138 MiB when it went through numpy's ufunc buffer); slabs of
    13 t-planes peaked at 0.596 MiB."""
    assert _certify_peak(1.0, 50) < 0.17 * 2**20


def test_grid_150_certify_without_strong_term_builds_no_distances():
    """At c = 0 the lattice holds four 22,500-cell arrays (the table of f,
    eta, the f(y) tile and the defect plane) and numpy's 64 KiB ufunc
    buffer for the strided f(mixture) view, and the call peaks near
    789,100 B.  With the (x, y) distances built for a +0.0 strong term it
    read 970,500 B; one more 180,000 B plane would cross the bound."""
    assert _certify_peak(0.0, 150) < 0.85 * 2**20


def test_grid_150_certify_copies_its_mixture_view_into_the_scratch_plane():
    """At c = 1 the lattice holds six 22,500-cell arrays (the table, eta,
    the distances, the f(y) tile, the defect and scratch planes), and the
    strided f(mixture) view is copied into the scratch plane, which takes
    no ufunc buffer: the call peaks near 1,085,800 B.  Subtracting the view
    itself held numpy's 64 KiB ufunc buffer too, 1,150,500 B."""
    assert _certify_peak(1.0, 150) < 1.07 * 2**20


def test_refinement_box_builds_its_defect_in_the_mixture_block():
    """A 13**3 box holds three box-sized arrays (17,576 B each: the points
    f is evaluated on, whose mixture block becomes the defect, f's values
    and the strong term) and one numpy ufunc buffer, and peaks near
    76,320 B.  With a fresh defect array and two broadcast operands per
    ufunc it held four and two, 93,992 B."""
    f = FunctionSpec.from_text("x^(2a)")
    eta = EtaSpec.from_text(ETA_PRESETS["example23"])
    ctx = AlphaContext(alpha=0.5)
    lx, ly, lt = _linspace(0.1, 0.3, 13), _linspace(0.4, 0.6, 13), _linspace(0.2, 0.4, 13)
    assert _warm_peak(lambda: _box_min(f, eta, 1.0, ctx, lx, ly, lt)) < 0.08 * 2**20


def test_refinement_box_without_strong_term_holds_two_box_arrays():
    """At c = 0 the box's strong term is +0.0 and its distances finite, so
    neither the strong array nor the 13 x 13 distances are built: the box
    holds the points and f's values (17,576 B each) and one ufunc buffer,
    and peaks near 57,100 B, where it read 76,320 B with the strong array.
    One more box-sized array would cross the bound."""
    f = FunctionSpec.from_text("x^(2a)")
    eta = EtaSpec.from_text(ETA_PRESETS["example23"])
    ctx = AlphaContext(alpha=0.5)
    lx, ly, lt = _linspace(0.1, 0.3, 13), _linspace(0.4, 0.6, 13), _linspace(0.2, 0.4, 13)
    assert _warm_peak(lambda: _box_min(f, eta, 0.0, ctx, lx, ly, lt)) < 0.065 * 2**20


def test_one_row_sweep_keeps_no_csv_buffer_through_certify():
    """The rows are joined without CPython's csv writer, whose 128 KiB
    record buffer (allocated for a writer's first row) set the call's peak
    at 142,080 B with a writer per row; certify's refinement boxes set it
    now, near 86,774 B.  One more box-sized array (17,576 B) would cross
    the bound."""
    argv = ["sweep", "--alphas", "0.5", "--cs", "1", "--etas", "example23", "--fs", "square"]

    def sweep():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    assert _warm_peak(sweep) < 0.095 * 2**20
