"""Integral and derivative backends against closed forms and frozen oracles."""

import gc
import struct
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracon import (
    EXACT,
    NUMERIC,
    AlphaContext,
    DerivativeMode,
    EtaSpec,
    FunctionSpec,
    IntegralBackend,
    IntegrationError,
    NotPolynomial,
    WeightSpec,
    fejer_terms,
    gamma,
    lf_derivative,
    lf_integral,
    rl_integrate,
)
from fracon import calculus
from fracon.presets import ETA_PRESETS

_ALPHAS = (0.3, 0.5, 0.9, 1.0)
# The parabolic weight written with abs: the preset's values on [lo, hi],
# but no normal form, so its Fejer integrals stay on the rl route.
_RL_PARABOLIC = "abs(x - lo)^(a)*abs(hi - x)^(a)"
_INTERVALS = ((0.0, 1.0), (0.5, 2.0), (-1.0, 1.0))

# Kernel-form quadrature oracles computed independently with mpmath at 40
# digits: (1/Gamma(al)) * int_a^b (b-x)^(al-1) * (x-a)^(k al) dx.  The
# closed form Gamma(1+k al)/Gamma(1+(k+1) al) * (b-a)^((k+1) al) agreed
# with mpmath's quad to at least 1e-13 on every row.
_FROZEN_MONOMIAL = [
    (0.3, 2, 0.0, 1.0, 0.929036278524948377096),
    (0.7, 3, 0.5, 2.0, 1.456964521891505453048),
    (0.5, 1, -1.0, 1.0, 1.772453850905516027298),
    (0.9, 0, 0.25, 1.75, 1.497658477148966871889),
]

# 0I1 of t^al (1-t)^al under the same kernel, equal to
# Gamma(1+2 al)/(2 Gamma(1+3 al)); mpmath quad values at 40 digits.
_FROZEN_PRODUCT = {
    0.3: 0.464518139262474188548,
    0.5: 0.3761263890318375246321,
    0.9: 0.2009866652351282656316,
    1.0: 1.0 / 6.0,
}


# 0I1 |x - s|^al, (1/Gamma(al)) * int_0^1 (1-x)^(al-1) |x - s|^al dx, computed
# independently with mpmath at 40 digits, split at the kink x = s and
# substituted r = (1-x)^al; a 60-digit run agreed to 1e-40.
_FROZEN_KINK = {
    (0.3, 0.3): 0.8705209376278973070186,
    (0.3, 0.5): 0.6864464100889013167059,
    (0.3, 0.9): 0.3524525457235283127853,
    (0.5, 0.3): 0.789099094320384598613,
    (0.5, 0.5): 0.5934248446225376269162,
    (0.5, 0.9): 0.2994029010311683885586,
    (0.7, 0.3): 0.7076955341861882387353,
    (0.7, 0.5): 0.5331131119092428249437,
    (0.7, 0.9): 0.3236053803492215568009,
}


def _monomial_text(k: int) -> str:
    return "1" if k == 0 else f"(x - lo)^({k}a)"


def _monomial_spec(k: int, a: float, b: float) -> FunctionSpec:
    return FunctionSpec.from_text(_monomial_text(k), params={"lo": a, "hi": b})


def _closed_form(k: int, alpha: float, span: float) -> float:
    return gamma(1 + k * alpha) / gamma(1 + (k + 1) * alpha) * span ** ((k + 1) * alpha)


# ------------------------------------------------------------ monomial table


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("interval", _INTERVALS)
def test_monomial_oracle_both_backends(alpha, k, interval):
    """Both routes match the conjugate-exponent closed form."""
    a, b = interval
    ctx = AlphaContext(alpha=alpha)
    f = _monomial_spec(k, a, b)
    ref = _closed_form(k, alpha, b - a)
    exact = lf_integral(f, a, b, ctx, EXACT)
    numeric = lf_integral(f, a, b, ctx, NUMERIC)
    assert abs(exact - ref) <= 1e-12 * abs(ref)
    assert abs(numeric - ref) <= 1e-6 * abs(ref)


def test_frozen_quadrature_oracles():
    """Independently integrated kernel values pin the realization."""
    for alpha, k, a, b, ref in _FROZEN_MONOMIAL:
        ctx = AlphaContext(alpha=alpha)
        f = _monomial_spec(k, a, b)
        assert abs(lf_integral(f, a, b, ctx, EXACT) - ref) <= 1e-13 * abs(ref)
        assert abs(lf_integral(f, a, b, ctx, NUMERIC) - ref) <= 1e-8 * abs(ref)


def test_sqrt_pi_over_two_value():
    """0I1 x^(a) at alpha=1/2 is Gamma(3/2) = sqrt(pi)/2."""
    ctx = AlphaContext(alpha=0.5)
    f = FunctionSpec.from_text("x^(a)")
    ref = 0.8862269254527580136490837416705725913988  # mpmath, 40 digits
    for backend in (EXACT, NUMERIC):
        assert abs(lf_integral(f, 0.0, 1.0, ctx, backend) - ref) <= 1e-9


def test_classical_third():
    ctx = AlphaContext(alpha=1.0)
    f = FunctionSpec.from_text("x^(2a)")
    assert abs(lf_integral(f, 0.0, 1.0, ctx, EXACT) - 1.0 / 3.0) <= 1e-14
    assert abs(lf_integral(f, 0.0, 1.0, ctx, NUMERIC) - 1.0 / 3.0) <= 1e-12


def test_product_integrand_frozen_values():
    """t^al (1-t)^al is no generalized monomial for al < 1; numeric route required.

    At al = 1 the expression collapses to the ordinary polynomial x - x^2,
    so the exact route must succeed there and reproduce 1/6.
    """
    f = FunctionSpec.from_text("x^(a)*(1 - x)^(a)")
    for alpha, ref in _FROZEN_PRODUCT.items():
        ctx = AlphaContext(alpha=alpha)
        if alpha < 1.0:
            with pytest.raises(NotPolynomial):
                lf_integral(f, 0.0, 1.0, ctx, EXACT)
        else:
            exact = lf_integral(f, 0.0, 1.0, ctx, EXACT)
            assert abs(exact - 1.0 / 6.0) <= 1e-12
        got = lf_integral(f, 0.0, 1.0, ctx, NUMERIC)
        assert abs(got - ref) <= 1e-8 * abs(ref)
        closed = gamma(1 + 2 * alpha) / (2 * gamma(1 + 3 * alpha))
        assert abs(got - closed) <= 1e-8 * abs(closed)


def test_kink_integrand_exact_at_unit_order():
    """|x| on [-1,1] at alpha=1: panel edge sits on the kink, value 1."""
    ctx = AlphaContext(alpha=1.0)
    f = FunctionSpec.from_text("abs(x)")
    assert abs(lf_integral(f, -1.0, 1.0, ctx, NUMERIC) - 1.0) <= 1e-12


@pytest.mark.parametrize(("s", "alpha"), sorted(_FROZEN_KINK))
def test_kinked_integrand_meets_rtol(s, alpha):
    """abs(x - s)^(a) converges within rtol of its mpmath value.

    The kink is a breakpoint (from the spec's singular points), so no panel
    straddles it.  alpha 0.9, s 0.5 is the case where refining every panel
    until two global sums agreed reported convergence 4e-9 away.
    """
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(f"abs(x - {s})^(a)")
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, alpha,
                       points=f.singular_points())
    ref = _FROZEN_KINK[s, alpha]
    assert res.converged
    assert abs(res.value - ref) <= calculus._RTOL * (1.0 + abs(ref))
    assert lf_integral(f, 0.0, 1.0, ctx, NUMERIC) == res.value


@pytest.mark.parametrize(("s", "alpha"), sorted(_FROZEN_KINK))
def test_kinked_integrand_converges_in_one_level(s, alpha):
    """The ladder of breakpoints beside the kink resolves it on the first
    pass, to 1e-12 of the mpmath value, and the reported error covers the
    true one."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(f"abs(x - {s})^(a)")
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, alpha,
                       points=f.singular_points())
    ref = _FROZEN_KINK[s, alpha]
    assert (res.levels, res.converged) == (1, True)
    assert abs(res.value - ref) <= 1e-12 * abs(ref)
    assert res.error >= abs(res.value - ref)


def test_fd_derivative_splits_at_kink():
    """diff abs(x - 0.3)^(a) at 0.4 from 0, alpha 0.3, against mpmath.

    The reference is d/dx of the order-0.7 integral of f - f(0) at 0.4,
    i.e. (1/Gamma(0.7)) int_0^0.4 (0.4-u)^(-0.3) f'(u) du, split at the
    kink, at 40 digits.  The inner integrals must split at 0.3 for the
    central difference to come this close.
    """
    ctx = AlphaContext(alpha=0.3)
    f = FunctionSpec.from_text("abs(x - 0.3)^(a)")
    ref = -0.053480157377824188334
    got = lf_derivative(f, 0.4, ctx, mode=DerivativeMode.FINITE_DIFFERENCE, s=0.0)
    assert abs(got - ref) <= 5e-6 * (1.0 + abs(ref))


# -------------------------------------------------------- interval structure


def test_empty_interval_is_zero():
    ctx = AlphaContext(alpha=0.5)
    f = FunctionSpec.from_text("x^(2a)")
    assert lf_integral(f, 0.7, 0.7, ctx, NUMERIC) == 0.0
    assert lf_integral(f, 0.7, 0.7, ctx, EXACT) == 0.0


def test_integral_and_derivative_return_plain_floats():
    """Every route yields a Python float, not a wrapper or a numpy scalar."""
    f = FunctionSpec.from_text("x^(2a) + 1")
    ctx = AlphaContext(alpha=0.5)
    fd = DerivativeMode.FINITE_DIFFERENCE
    values = [
        lf_integral(f, 0.0, 1.0, ctx, EXACT),
        lf_integral(f, 0.0, 1.0, ctx, NUMERIC),
        lf_integral(f, 0.7, 0.7, ctx, NUMERIC),
        lf_derivative(f, 0.5, ctx, mode=DerivativeMode.EXACT_MONOMIAL, s=0.0),
        lf_derivative(f, 0.5, ctx, mode=fd, s=0.0),
        lf_derivative(f, 0.5, AlphaContext(alpha=1.0), mode=fd, s=0.0),
        lf_derivative(f, 0.0, ctx, mode=fd, s=0.0),
    ]
    assert [type(v) for v in values] == [float] * len(values)


def test_orientation_negates():
    ctx = AlphaContext(alpha=0.7)
    f = FunctionSpec.from_text("x^(2a) + 1")
    fwd = lf_integral(f, 0.0, 1.0, ctx, NUMERIC)
    rev = lf_integral(f, 1.0, 0.0, ctx, NUMERIC)
    assert rev == -fwd


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_constant_rule(alpha):
    """a_I_b K = K (b-a)^alpha / Gamma(1+alpha)."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text("2.5")
    ref = 2.5 * 1.5**alpha / gamma(1 + alpha)
    for backend in (EXACT, NUMERIC):
        got = lf_integral(f, 0.5, 2.0, ctx, backend)
        assert abs(got - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize(
    ("text", "rtol"),
    [
        ("x^(2a)", 1e-9),
        ("x^(a) + 1", 1e-9),
        # Interior kink: both routes are adaptive quadratures that place their
        # panel edges differently around the non-smooth point, so agreement is
        # quadrature-level rather than roundoff-level.
        ("abs(x - 0.5)^(a)", 1e-7),
    ],
)
def test_changed_variable_route_agrees(alpha, text, rtol):
    """(b-a)^alpha-scaled pullback to [0, 1] equals the direct evaluation."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(text)
    direct = lf_integral(f, 0.0, 1.5, ctx, NUMERIC)
    pulled = rl_integrate(lambda ts: f.evaluate_many(1.5 * ts, ctx), 0.0, 1.0, alpha)
    changed = 1.5**alpha * pulled.value
    assert abs(changed - direct) <= rtol * (1.0 + abs(direct))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from(_ALPHAS),
)
def test_linearity(p, q, alpha):
    """Integration is linear over the generalized monomials."""
    ctx = AlphaContext(alpha=alpha)
    p, q = round(p, 3), round(q, 3)
    f = FunctionSpec.from_text("x^(2a)")
    g = FunctionSpec.from_text("x^(a)")
    combo = FunctionSpec.from_text(f"{p:.3f}*x^(2a) + {q:.3f}*x^(a)")
    lhs = lf_integral(combo, 0.0, 1.0, ctx, NUMERIC)
    rhs = (p * lf_integral(f, 0.0, 1.0, ctx, NUMERIC)
           + q * lf_integral(g, 0.0, 1.0, ctx, NUMERIC))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_monotonicity(alpha):
    """x^(2a) <= x^(a) pointwise on [0,1] implies ordered integrals."""
    ctx = AlphaContext(alpha=alpha)
    lo = FunctionSpec.from_text("x^(2a)")
    hi = FunctionSpec.from_text("x^(a)")
    xs = np.linspace(0.0, 1.0, 1000)
    assert np.all(lo.evaluate_many(xs, ctx) <= hi.evaluate_many(xs, ctx) + 1e-15)
    assert (lf_integral(lo, 0.0, 1.0, ctx, NUMERIC)
            <= lf_integral(hi, 0.0, 1.0, ctx, NUMERIC) + 1e-9)


# ---------------------------------------------------------------- derivative


def test_classical_derivative_at_three():
    ctx = AlphaContext(alpha=1.0)
    f = FunctionSpec.from_text("x^(2a)")
    got = lf_derivative(f, 3.0, ctx, mode=DerivativeMode.EXACT_MONOMIAL, s=0.0)
    assert abs(got - 6.0) <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("x0", [0.5, 1.5])
def test_order_alpha_monomial_derivative_constant(alpha, x0):
    """D^alpha x^alpha = Gamma(1+alpha), independent of the point."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text("x^(a)")
    got = lf_derivative(f, x0, ctx, mode=DerivativeMode.EXACT_MONOMIAL, s=0.0)
    assert abs(got - gamma(1 + alpha)) <= 1e-12


def test_constant_derivative_zero():
    ctx = AlphaContext(alpha=0.5)
    f = FunctionSpec.from_text("3.25")
    exact = lf_derivative(f, 1.0, ctx, mode=DerivativeMode.EXACT_MONOMIAL, s=0.0)
    fd = lf_derivative(f, 1.0, ctx, mode=DerivativeMode.FINITE_DIFFERENCE, s=0.0)
    assert exact == 0.0
    assert abs(fd) <= 1e-9


def test_fd_at_base_point_monomial_exact():
    """At x0 = s the quotient is exact for f = x^(a): Gamma(1+alpha)."""
    for alpha in (0.3, 0.5, 0.9):
        ctx = AlphaContext(alpha=alpha)
        f = FunctionSpec.from_text("x^(a)")
        fd = lf_derivative(f, 0.0, ctx, mode=DerivativeMode.FINITE_DIFFERENCE, s=0.0)
        assert abs(fd - gamma(1 + alpha)) <= 1e-9 * gamma(1 + alpha)


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_fd_matches_term_rule(alpha, k):
    """Finite-difference route tracks the exact rule to 1e-4 relative."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(f"x^({k}a)")
    worst = 0.0
    for x0 in np.linspace(0.2, 2.0, 10):
        exact = lf_derivative(f, float(x0), ctx,
                              mode=DerivativeMode.EXACT_MONOMIAL, s=0.0)
        fd = lf_derivative(f, float(x0), ctx,
                           mode=DerivativeMode.FINITE_DIFFERENCE, s=0.0)
        worst = max(worst, abs(fd - exact) / abs(exact))
    assert worst <= 1e-4


def test_derivative_requires_point_at_or_after_base():
    ctx = AlphaContext(alpha=0.5)
    f = FunctionSpec.from_text("x^(a)")
    with pytest.raises(ValueError):
        lf_derivative(f, -0.5, ctx, s=0.0)


# ---------------------------------------------------------------- crosscheck


def _route_deviation(f, a, b, ctx) -> float:
    """Relative deviation between the exact and numeric integral routes."""
    exact = lf_integral(f, a, b, ctx, EXACT)
    numeric = lf_integral(f, a, b, ctx, NUMERIC)
    return abs(exact - numeric) / max(abs(exact), abs(numeric))


def test_crosscheck_constant_tight():
    ctx = AlphaContext(alpha=0.4)
    f = FunctionSpec.from_text("1")
    assert _route_deviation(f, 0.0, 2.0, ctx) <= 1e-12


@pytest.mark.parametrize(
    "text,interval,alpha",
    [("x^(2a)", (0.0, 1.0), 0.5), ("x^(3a)", (0.0, 2.0), 0.3)],
)
def test_crosscheck_monomials(text, interval, alpha):
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(text)
    assert _route_deviation(f, interval[0], interval[1], ctx) <= 1e-6


# ----------------------------------------------------------------- plumbing


def test_backend_validation():
    with pytest.raises(ValueError):
        IntegralBackend(kind="rl")


def test_rl_integrate_reports_convergence():
    res = rl_integrate(lambda xs: xs**2, 0.0, 1.0, 1.0)
    assert res.converged
    assert res.evals <= calculus._MAX_EVALS
    assert abs(res.value - 1.0 / 3.0) <= 1e-12


# Gamma(1 + 2 al) / Gamma(1 + 3 al), the order-al integral of x^(2a) over
# [0, 1], from mpmath at 40 digits, frozen to 30; with rl_integrate's
# value, bit for bit as before the error floor.
_FROZEN_SQUARE = {
    0.9: ("0.401973330470256531263110476683", "0x1.9b9ee590ef914p-2"),
    0.5: ("0.752252778063675049264105935414", "0x1.812746b0379e6p-1"),
}


@pytest.mark.parametrize("alpha", sorted(_FROZEN_SQUARE))
def test_rl_integrate_error_is_floored_at_the_rounding_of_its_sum(alpha):
    """On a smooth integrand the panel estimates fall below the rounding of
    the value itself: x^(2a) reported an error of 2.4e-17 at alpha 0.9 for
    a true 1.1e-16, and 5.3e-17 at 0.5 for a true 8.4e-17.  Floored at
    50 eps times the sum of |panel values| (about 4e-15 here), the error
    covers the true one, and the value is the same."""
    ref, value_hex = _FROZEN_SQUARE[alpha]
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text("x^(2a)")
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, alpha)
    assert (res.value.hex(), res.levels, res.converged) == (value_hex, 1, True)
    true_error = abs(Decimal(res.value) - Decimal(ref))
    assert 5e-17 < true_error <= Decimal(res.error)
    assert res.error < 1e-14


@pytest.mark.parametrize("alpha", (0.3, 1.0))
@pytest.mark.parametrize("text", ("x^(2a)", "abs(x - 0.3)^(a)", "x^(a) + 1"))
def test_rl_integrate_error_is_within_the_tolerance_when_converged(text, alpha):
    """The error is the stopping sum, in the units of value: the criterion
    error * Gamma(1+alpha) <= rtol * (1 + |value| * Gamma(1+alpha)) bounds
    it by rtol * (1 + |value|) / Gamma(1+alpha)."""
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(text)
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, alpha,
                       points=f.singular_points())
    assert res.converged
    assert 0.0 <= res.error <= calculus._RTOL * (1.0 + abs(res.value)) / gamma(1.0 + alpha)


def test_rl_integrate_rejects_non_finite_samples():
    with pytest.raises(IntegrationError):
        rl_integrate(lambda xs: np.full_like(xs, np.inf), 0.0, 1.0, 0.5)


@pytest.mark.parametrize("max_evals", (3000, 3100, 3300, 3600))
def test_rl_integrate_respects_the_evaluation_cap(max_evals, monkeypatch):
    """A kinked integral cut short never exceeds the cap nor claims convergence.

    The kink is not passed as a breakpoint, so the loop bisects toward it:
    uncapped, the run takes 3680 samples over 14 levels (2976 on the first
    pass), and every cap here cuts it short.
    """
    ctx = AlphaContext(alpha=0.3)
    f = FunctionSpec.from_text("abs(x - 0.5)^(a)")
    monkeypatch.setattr(calculus, "_MAX_EVALS", max_evals)
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, 0.3, points=())
    assert res.evals <= max_evals
    assert res.converged is False


def test_rl_integrate_rejects_a_cap_below_the_first_pass(monkeypatch):
    """145 panels (124 graded + 21 from the kink and its ladder) x 8 points
    x (1 + 2) = 3,480 samples."""
    monkeypatch.setattr(calculus, "_MAX_EVALS", 3479)
    with pytest.raises(ValueError, match="first pass"):
        rl_integrate(lambda xs: np.abs(xs - 0.5), 0.0, 1.0, 0.3, points=(0.5,))


def test_rl_integrate_stops_when_no_panel_fails(monkeypatch):
    """The loop stops unconverged when nothing is left to refine.

    The tolerance is relative to the running value.  If the value drops
    between passes, the error accepted under the old tolerance can leave
    the total over the new one while every live panel is inside its share.
    Then no panel is bisected, and the loop must stop rather than run on
    an empty live set.  An integrand that changes between passes forces
    this.  At alpha = 1 each panel's value is the constant times its width.
    Pass 1: the x < 0.5 panels are accepted (error 0.99 of their share),
    and the x >= 0.5 panels fail.  Pass 2: the value falls from 1.658 to
    1.131 and every live error is within its share.
    """
    # With rtol 0.5, tol = 0.5 * (1 + value), value = (A + the x >= 0.5 level) / 2.
    tol1 = (0.5 + 0.25 * 2.0) / (1.0 - 0.25 * 0.99)
    A = 0.99 * tol1  # x < 0.5, both passes
    tol2 = (0.5 + 0.25 * A + 0.25 * 2.0) / (1.0 + 0.25 * 0.99)
    C = 2.0 - 0.99 * tol2  # x >= 0.5 on pass 2, after 2.0 on pass 1
    calls = []

    def fn(xs):
        calls.append(xs.size)
        if len(calls) > 1:
            return np.where(xs < 0.5, A, C)
        n = xs.shape[0] // 3  # pass 1: the panels' rows, then their halves'
        return np.concatenate((np.zeros_like(xs[:n]), np.where(xs[n:] < 0.5, A, 2.0)))

    monkeypatch.setattr(calculus, "_PANELS", 1)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    monkeypatch.setattr(calculus, "_POINTS", 4)
    monkeypatch.setattr(calculus, "_NODES", nodes)
    monkeypatch.setattr(calculus, "_WEIGHTS", weights)
    calculus._mesh.cache_clear()  # drop grids built at 32 panels
    try:
        res = rl_integrate(fn, 0.0, 1.0, 1.0, rtol=0.5)
    finally:
        calculus._mesh.cache_clear()  # and the one built at 1
    assert len(calls) == 2
    assert (res.levels, res.converged) == (2, False)
    assert res.evals == sum(calls)
    assert res.error > 0.5 * (1.0 + abs(res.value))
    assert abs(res.value - 0.5 * (A + C)) <= 1e-12


def test_exact_backend_requires_polynomial_form():
    ctx = AlphaContext(alpha=0.5)
    f = FunctionSpec.from_text("abs(x - 0.5)^(a)")
    with pytest.raises(NotPolynomial):
        lf_integral(f, 0.0, 1.0, ctx, EXACT)


def test_gauss_legendre_rule_is_numpys_leggauss_bit_for_bit():
    """The frozen 8-point rule is numpy's leggauss(8), node for node and
    weight for weight, down to the last bit."""
    nodes, weights = np.polynomial.legendre.leggauss(calculus._POINTS)
    assert calculus._POINTS == 8
    assert [v.hex() for v in calculus._NODES.tolist()] == [v.hex() for v in nodes.tolist()]
    assert [v.hex() for v in calculus._WEIGHTS.tolist()] == [v.hex() for v in weights.tolist()]


def test_graded_breakpoints_are_cached_read_only():
    """One array per mesh key, shared between rl_integrate calls, so callers cannot write it."""
    pts = calculus._mesh(struct.pack("3d", 0.0, 1.0, 1.0)).left
    assert calculus._mesh(struct.pack("3d", 0.0, 1.0, 1.0)).left is pts
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0] = 1.0


def test_clip_order_keeps_signed_zero_ties():
    """rl_integrate clips with np.minimum(hi, np.maximum(lo, x)): on a tie of
    +0.0 with -0.0 both return their second operand, x, as np.clip does."""
    xs = np.array([0.0, -0.0, 0.25, -0.25, 2.0, -2.0] * 11)
    for lo, hi in ((-0.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)):
        got = np.minimum(hi, np.maximum(lo, xs))
        assert got.tobytes() == np.clip(xs, lo, hi).tobytes()


def _abscissae_by_operators(left, right, a, b, order):
    """The nodes of ``calculus._abscissae``, one allocating operator at a time."""
    half = 0.5 * (right - left)
    mid = 0.5 * (left + right)
    v = mid[:, None] + calculus._NODES[None, :] * half[:, None]
    return np.minimum(b, np.maximum(a, b - v ** (1.0 / order))), half


@pytest.mark.parametrize(("a", "b", "order"), [
    (0.0, 1.0, 0.3), (-0.0, 1.0, 0.5), (-1.0, -0.0, 0.9), (-1.0, 0.0, 1.0),
    (2.0, 2.5, 0.3), (-1e-300, 0.0, 0.5), (0.0, 1e-300, 0.9),
])
def test_abscissae_in_one_array_equal_the_operators(a, b, order):
    """The graded panels, their halves, and extra panels: an empty one at
    v = 0, whose nodes are b itself, a narrow one whose nodes round onto b,
    and ones reaching past V, whose nodes fall below a and are clipped to
    it.  Every node and half-width has the same bits."""
    V = (b - a) ** order
    bpts = calculus._graded_breakpoints(V)
    left, right = bpts[:-1], bpts[1:]
    hl, hr = calculus._halves(left, right)
    left = np.concatenate((left, hl, [0.0, 0.0, V * (1 - 1e-6), V]))
    right = np.concatenate((right, hr, [0.0, V * 1e-300, V * (1 + 1e-6), V * (1 + 1e-3)]))
    xs, half = calculus._abscissae(left, right, a, b, order)
    want_xs, want_half = _abscissae_by_operators(left, right, a, b, order)
    assert xs.tobytes() == want_xs.tobytes()
    assert half.tobytes() == want_half.tobytes()
    assert (xs == a).any() and (xs == b).any()


def _smooth(xs):
    return np.abs(xs - 0.3) ** 0.25 + xs * xs


def test_rl_integrate_never_writes_an_array_fn_keeps():
    """rl_integrate weighs the samples in fn's array only when it holds the
    only reference: an array fn also keeps, or hands back as a view of one
    it keeps, is left as fn made it, and the result is the one of fresh
    arrays.  The integrand needs several passes (no kink given)."""
    made = []

    def keeping(xs):
        vals = _smooth(xs)
        made.append((xs.copy(), vals))
        return vals

    def viewing(xs):
        whole = np.concatenate((_smooth(xs), _smooth(xs)))
        made.append((xs.copy(), whole[: len(xs)]))
        return whole[: len(xs)]

    fresh = rl_integrate(_smooth, 0.0, 1.0, 0.5)
    assert fresh.levels > 2
    for fn in (keeping, viewing):
        made.clear()
        assert rl_integrate(fn, 0.0, 1.0, 0.5) == fresh
        assert len(made) == fresh.levels
        for xs, vals in made:
            assert vals.tobytes() == _smooth(xs).tobytes()


def test_rl_integrate_never_writes_the_nodes_fn_hands_back():
    """``lambda xs: xs`` hands rl_integrate its own node arrays: read-only
    on the first pass, and held by _panel_values on the later ones."""
    nodes = []

    def identity(xs):
        nodes.append((xs, xs.copy()))
        return xs

    res = rl_integrate(identity, 0.0, 1.0, 0.3)
    assert res == rl_integrate(lambda xs: xs.copy(), 0.0, 1.0, 0.3)
    for xs, before in nodes:
        assert xs.tobytes() == before.tobytes()


def _panel_rows(rows: int, seed: int) -> np.ndarray:
    """rows x _POINTS samples: magnitudes from 1e-300 to 1e300 of both signs,
    exact cancellations, and zeros of both signs, with whole rows of
    -0.0, of +0.0 and of mixed zeros."""
    rng = np.random.default_rng(seed)
    shape = (rows, calculus._POINTS)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
    vals[rng.random(shape) < 0.3] = -0.0
    vals[rng.random(shape) < 0.1] = 0.0
    cancel = rng.random(rows) < 0.1
    vals[cancel, 1] = -vals[cancel, 0]
    vals[0::7] = -0.0
    vals[1::7] = 0.0
    vals[2::7] = np.where(rng.random((vals[2::7].shape)) < 0.5, -0.0, 0.0)
    return vals


@pytest.mark.parametrize("rows", [1, 5, 372, 131_072])
@pytest.mark.parametrize("kept", [False, True, "fortran"], ids=["owned", "kept", "fortran"])
def test_panel_sums_are_numpys_row_reduction_bitwise(rows, kept):
    """_panel_values sums each row of weighted samples in numpy's pairwise
    order, started from +0.0 (a row of -0.0 sums to +0.0), so every panel
    value has the bits of ``np.add.reduce(vals * _WEIGHTS, axis=1) *
    half``, whether the samples are weighted in fn's array or, when fn
    keeps it, in a copy, and also when fn's array is Fortran-ordered, whose
    rows numpy would reduce in another order."""
    assert calculus._POINTS == 8
    vals = _panel_rows(rows, rows)
    half = np.random.default_rng(rows + 1).random(rows) + 0.5
    half[::3] = 2.0 ** -1000  # products near the bottom of the subnormals
    xs = np.zeros(vals.shape)
    kept_vals = vals.copy()
    made = {False: vals.copy, True: lambda: kept_vals, "fortran": lambda: np.asfortranarray(vals)}
    got = calculus._panel_values(lambda _: made[kept](), xs, half)
    want = np.add.reduce(vals * calculus._WEIGHTS, axis=1) * half
    assert got.tobytes() == want.tobytes()
    assert np.signbit(vals[0]).all() and want[0] == 0 and not np.signbit(want[0])
    assert kept_vals.tobytes() == vals.tobytes()


def _rl_hex(text, alpha):
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(text)
    res = rl_integrate(lambda xs: f.evaluate_many(xs, ctx), 0.0, 1.0, alpha,
                       points=f.singular_points())
    return res.value.hex()


# float.hex of the numeric route's results.  The x^(2a) values were frozen
# from the implementation that evaluated the first pass's panels and their
# halves in two calls; the kinked ones from the grid that adds a ratio-1/4
# ladder of breakpoints beside each kink.  Any reordering of the quadrature
# arithmetic changes some of them.
_PINNED_RL = {
    ("x^(2a)", 0.5): "0x1.812746b0379e6p-1",
    ("x^(2a)", 1.0): "0x1.5555555555556p-2",
    ("abs(x - 0.3)^(a)", 0.3): "0x1.bdb4eb9b30f05p-1",
    ("abs(x - 0.3)^(a)", 0.9): "0x1.68e951f519167p-2",
    ("abs(x - 0.5)^(a)", 0.3): "0x1.9404cbe6d1b74p-1",
    ("abs(x - 0.5)^(a)", 0.9): "0x1.3296ac91068c0p-2",
    ("abs(x - 0.7)^(a)", 0.3): "0x1.6a5711adb5e20p-1",
    ("abs(x - 0.7)^(a)", 0.9): "0x1.4b5f3575a3609p-2",
}


@pytest.mark.parametrize(("text", "alpha"), sorted(_PINNED_RL))
def test_rl_integrate_values_are_pinned_bitwise(text, alpha):
    assert _rl_hex(text, alpha) == _PINNED_RL[text, alpha]


def test_reversed_integral_and_fd_derivative_are_pinned_bitwise():
    f = FunctionSpec.from_text("abs(x - 0.3)^(a)")
    assert lf_integral(f, 1.0, 0.0, AlphaContext(alpha=0.5)).hex() == "-0x1.5f75e76393b3bp-1"
    d = lf_derivative(f, 0.4, AlphaContext(alpha=0.3), DerivativeMode.FINITE_DIFFERENCE, s=0.0)
    assert d.hex() == "-0x1.b61d4b25d9068p-5"


def test_fejer_moments_are_pinned_bitwise():
    """The numeric moments of the parabolic weight.  Written with abs, the
    weight has the parabolic preset's values bit for bit on [lo, hi] but
    no normal form, so its moments stay on the rl route."""
    ctx = AlphaContext(alpha=0.5)
    w = WeightSpec.from_text(_RL_PARABOLIC, params={"lo": 0.0, "hi": 1.0})
    rep = fejer_terms(FunctionSpec.from_text("x^(2a)"),
                      EtaSpec.from_text(ETA_PRESETS["difference"]), 0.0, w, 0.0, 1.0, ctx)
    assert set(rep.routes.values()) == {"rl"}
    assert [m.hex() for m in (rep.m0, rep.m1, rep.m2, rep.m3)] == [
        "0x1.812746b0379e7p-2", "0x1.73efe24506fdcp-3",
        "0x1.20dd750429b6cp-2", "0x1.341f6bc02c7edp-3",
    ]


# ------------------------------------------------------- first-pass mesh cache


def _sign_seeing(xs):
    """A smooth integrand whose value also shows the sign of a zero sample."""
    return 1.0 + np.signbit(xs) + xs * xs


def _cold_then_warm(calls):
    """float.hex of each rl_integrate call run cold (cache cleared before it)
    and then warm (all calls again, in reverse, on the filled cache)."""
    cold = []
    for fn, a, b, order, points in calls:
        calculus._mesh.cache_clear()
        cold.append(rl_integrate(fn, a, b, order, points=points).value.hex())
    warm = [rl_integrate(fn, a, b, order, points=points).value.hex()
            for fn, a, b, order, points in reversed(calls)]
    return cold, warm[::-1]


def test_mesh_cache_warm_matches_cold_on_the_kinked_set():
    calls = []
    for s, alpha in sorted(_FROZEN_KINK):
        ctx = AlphaContext(alpha=alpha)
        f = FunctionSpec.from_text(f"abs(x - {s})^(a)")
        calls.append((lambda xs, f=f, ctx=ctx: f.evaluate_many(xs, ctx), 0.0, 1.0, alpha,
                      f.singular_points()))
    cold, warm = _cold_then_warm(calls)
    assert warm == cold


def test_mesh_cache_keeps_signed_zeros_apart():
    """[-0.0, 1] against [0.0, 1] as the keys that must not collide, and
    intervals where the sign of an endpoint zero reaches the integrand:
    at order 0.01 the nodes nearest b map to x = b itself."""
    pairs = (((-0.0, 1.0), (0.0, 1.0)), ((-0.0, 2.0), (0.0, 2.0)),
             ((-1.0, -0.0), (-1.0, 0.0)))
    calls = [(_sign_seeing, a, b, order, points)
             for pair in pairs for a, b in pair
             for order in (0.01, 0.5)
             for points in ((), (0.5, -0.5))]
    cold, warm = _cold_then_warm(calls)
    assert warm == cold
    # calls 4k..4k+3 and 4k+4..4k+7 differ only in the sign of one zero;
    # at order 0.01 without kinks (call 4k) it shows in the value.
    assert cold[0] == cold[4]
    assert cold[8] != cold[12]
    assert cold[16] != cold[20]


def test_mesh_cache_keys_a_kink_set_once():
    """Kinks in any order, repeated, or with -0.0 for 0.0, and with others
    outside (a, b), name one kink set: one mesh is built, and every call
    gives the cold value bit for bit."""
    kink_sets = [(0.0, 0.5), (0.5, 0.0), (0.5, -0.0, 0.5), (-0.0, 0.5, 0.5, 0.0, 2.0)]
    calls = [(_sign_seeing, -1.0, 1.0, 0.5, points) for points in kink_sets]
    cold, warm = _cold_then_warm(calls)
    assert len(set(cold)) == 1 and warm == cold
    calculus._mesh.cache_clear()
    for points in kink_sets:
        rl_integrate(_sign_seeing, -1.0, 1.0, 0.5, points=points)
    assert calculus._mesh.cache_info().misses == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from((-1.0, -0.0, 0.0, 0.25)),
    st.sampled_from((0.5, 1.0, 2.0)),
    st.sampled_from((0.01, 0.3, 0.5, 1.0)),
    st.lists(st.sampled_from((-0.0, 0.0, 0.1, 0.5, 1.5, 3.0)), max_size=3),
), min_size=2, max_size=6))
def test_mesh_cache_warm_matches_cold_on_random_draws(draws):
    """Random (a, b, order, points) draws from small sets, so keys that
    differ in one field or in the sign of a zero meet in one cache."""
    calls = [(_sign_seeing, a, a + span, order, tuple(points))
             for a, span, order, points in draws]
    cold, warm = _cold_then_warm(calls)
    assert warm == cold


def test_cached_mesh_arrays_are_read_only():
    calculus._mesh.cache_clear()
    rl_integrate(_sign_seeing, 0.0, 1.0, 0.5, points=(0.3,))
    mesh = calculus._mesh(struct.pack("4d", 0.0, 1.0, 0.5, 0.3))
    assert calculus._mesh.cache_info().hits == 1
    arrays = [x for x in mesh if isinstance(x, np.ndarray)]
    assert len(arrays) == 6
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0

    def writes_its_argument(xs):
        xs[...] = 0.5
        return xs

    with pytest.raises(ValueError):
        rl_integrate(writes_its_argument, 0.0, 1.0, 0.5, points=(0.3,))


def test_mesh_cache_size_is_bounded():
    """Many distinct kinked keys, two kinks (cached) and forty (built per
    call), leave at most _MESH_CACHE meshes and under 4 MiB resident
    (about 3.4 MiB: 80 meshes of 43.8 KB)."""
    rl_integrate(_sign_seeing, 0.0, 1.0, 0.5, points=(0.3, 0.4))  # lazy imports first
    calculus._mesh.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(200):
            s = 0.001 + i / 250
            rl_integrate(_sign_seeing, 0.0, 1.0, 0.5, points=(s, s + 0.1))
        for i in range(20):
            rl_integrate(_sign_seeing, 0.0, 1.0, 0.5,
                         points=tuple(0.001 * i + k / 41 for k in range(1, 41)))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
        info = calculus._mesh.cache_info()
    finally:
        tracemalloc.stop()
        calculus._mesh.cache_clear()
    assert grown < 4 * 2**20
    assert info.currsize == info.maxsize == calculus._MESH_CACHE


def test_rl_integrate_rejects_an_oversized_first_pass_before_its_nodes():
    """3,000 kinks make a first pass of about 1.5M samples, over the cap:
    the breakpoints are checked before the node arrays are built.  The
    traced peak is 2.1 MiB, as when only the breakpoints were built; built
    first, the node arrays raised it to 43 MiB."""
    points = tuple(k / 3001 for k in range(1, 3001))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="first pass"):
            rl_integrate(_sign_seeing, 0.0, 1.0, 0.5, points=points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
