"""Invariance laws of the Hermite--Hadamard and Fejer chains.

Each law maps one input (f, w, eta, c on [a, b]) to another whose chain
terms follow from the first's in closed form, by a substitution in the
defect and in the local fractional integral a_I_b (its measure (dt)**al
scales by s**al when t does by s):

1. Translation: f(x - h) and w(x - h) on [a + h, b + h] leave every term
   unchanged.
2. Dilation: f(x / s) and w(x / s) on [s a, s b], with c replaced by
   c / s**2 (so that c**al |x - y|**(2 al) is kept), leave T1-T4, A1 and
   A2 unchanged, scale L, R, F1-F3 and m0 by s**al, m2 by s**(2 al), and
   m1 and m3 by s**(3 al).
3. Positive scaling: lam * f with lam > 0, an eta that is positively
   homogeneous of degree 1, and c replaced by lam**(1 / al) * c, scale
   T1-T4, A1, A2, L, R and F1-F3 by lam and leave m0-m3 unchanged.
4. Vertical shift, for eta = u - v: f + kap moves T1, T2, A1 and A2 by
   kap, and T3 and T4 by 2**(1 - al) kap; at al = 1 that is kap too.
5. Reflection: f(a + b - x) on [a, b] swaps f(a) and f(b), so it leaves T3
   unchanged, swaps A1 and A2, and leaves T1 and T4 unchanged up to the
   rounding of the sampled eta bound M (the reflected grid is the same
   points, each rounded once).  T2 changes, because the kernel of a_I_b is
   one-sided: that difference is the orientation step of the chain's
   derivation, and the test prints it without asserting it.

No term is compared with a frozen value: each law compares two runs of
the library.  A term agrees with its law to 1e-9 of the larger report's
term scale, the numeric route's relative target.

The inputs are written in a variable X, which the transformed run replaces
by (x - h) or (x / s).  Kinks sit at fixed fractions of the base interval,
away from every point the chains sample exactly (the ends, the midpoint and
the 512-point eta grid), and the weights have no fractional power that
vanishes: there the rounding of x - h or x / s, about 1e-16, would come
back as (1e-16)**al, which check_symmetry rejects as asymmetry and the
sampled eta bound takes as a real change of f.  For that reason the
``parabolic`` weight preset, (x - lo)^(a) (hi - x)^(a), is left out.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracon import AlphaContext, EtaSpec, FunctionSpec, WeightSpec, fejer_terms, hh_terms
from fracon.presets import ETA_PRESETS, F_PRESETS

_HH = ("T1", "T2", "T3", "T4", "A1", "A2")
_FEJER = ("m0", "m1", "m2", "m3", "L_eta", "R_eta", "F1", "F2", "F3")

# The sweep's f presets in the variable X, and terms for generated sums.
_F_PRESETS = tuple(F_PRESETS[k].replace("x", "{X}") for k in ("square", "negsquare", "const"))
_F_TERMS = _F_PRESETS + (
    "abs({X} - p)^(a)",
    "abs({X} - p)^(3a)",
    "{X}^(a)",
    "{X}",
)
_WEIGHTS = (
    "1",
    "({X} - lo)*(hi - {X}) + 1",
    "(({X} - lo)*(hi - {X}) + 1)^(a)",
    "abs({X} - mid)^(2) + 0.5",
)
# Positively homogeneous of degree 1, and two that are not.
_ETAS_DEGREE_1 = ("u - v", "2^a*u + v", "u + v", "u", "2*u - v")
_ETAS = _ETAS_DEGREE_1 + ("u*v", "u - v + 1")
_INTERVALS = ((0.2, 1.5), (-0.7, 0.4), (1.0, 3.0))
_SWEEP_ALPHAS = (0.3, 0.5, 0.9, 1.0)

_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


def _f_texts():
    term = st.tuples(st.sampled_from((1.0, -1.0, 2.0, -0.5)), st.sampled_from(_F_TERMS))
    sums = st.lists(term, min_size=1, max_size=3).map(
        lambda ts: " + ".join(f"{k!r}*({t})" for k, t in ts))
    return st.sampled_from(_F_PRESETS) | sums


_ALPHA = st.sampled_from(_SWEEP_ALPHAS) | st.floats(0.1, 1.0)
_C = st.sampled_from((0.0, 1.0, 2.5))


class _Input:
    """f, w and eta in the variable X, anchored on the base interval [lo, hi]."""

    def __init__(self, f, w, eta, interval, kink):
        lo, hi = interval
        self.f, self.w, self.eta = f, w, EtaSpec.from_text(eta)
        self.lo, self.hi = lo, hi
        self.anchors = {"lo": lo, "hi": hi, "mid": (lo + hi) / 2, "p": lo + kink * (hi - lo)}

    def terms(self, X, a, b, c, alpha, wrap="{f}", **params):
        """Every HH and Fejer term of ``wrap`` around f, and of w, with X := ``X``
        on [a, b]; ``params`` binds the names the substitution brings in."""
        params = {**self.anchors, **params}
        fs = FunctionSpec.from_text(wrap.format(f=self.f).format(X=X), params=params)
        ws = WeightSpec.from_text(self.w.format(X=X), params=params)
        ctx = AlphaContext(alpha=alpha)
        hh = hh_terms(fs, self.eta, c, a, b, ctx)
        fe = fejer_terms(fs, self.eta, c, ws, a, b, ctx)
        return {**{k: getattr(hh, k) for k in _HH}, **{k: getattr(fe, k) for k in _FEJER}}

    def base(self, c, alpha):
        return self.terms("x", self.lo, self.hi, c, alpha)


def _inputs(etas=_ETAS):
    return st.builds(
        _Input,
        _f_texts(),
        st.sampled_from(_WEIGHTS),
        st.sampled_from(etas),
        st.sampled_from(_INTERVALS),
        st.sampled_from((0.3, 0.61, 0.77)),
    )


def _assert_law(base, moved, want):
    """Each moved term equals ``want(name, base value)`` to 1e-9 of the term scale."""
    tol = 1e-9 * (1.0 + max(abs(v) for v in (*base.values(), *moved.values())))
    for name, value in base.items():
        expected = want(name, value)
        assert abs(moved[name] - expected) <= tol, (name, moved[name], expected, tol)


def _translate(case, c, alpha, h):
    return case.terms("(x - h)", case.lo + h, case.hi + h, c, alpha, h=h)


def _dilate(case, c, alpha, s):
    return case.terms("(x / s)", s * case.lo, s * case.hi, c / s**2, alpha, s=s)


_DILATION_POWER = {"m1": 3, "m2": 2, "m3": 3, **{k: 0 for k in _HH}}


def _dilated(s, alpha):
    return lambda name, v: v * s ** (_DILATION_POWER.get(name, 1) * alpha)


def _scaled(lam):
    return lambda name, v: v if name in ("m0", "m1", "m2", "m3") else lam * v


def _scale(case, c, alpha, lam):
    return case.terms("x", case.lo, case.hi, lam ** (1 / alpha) * c, alpha,
                      wrap="lam*({f})", lam=lam)


def _shifted(kap, alpha):
    ends = 2 ** (1 - alpha) * kap
    return lambda name, v: v + (ends if name in ("T3", "T4") else kap)


def _hh(terms):
    """The HH terms alone: the shift law says nothing of the Fejer terms."""
    return {k: terms[k] for k in _HH}


def _shift(case, c, alpha, kap):
    return _hh(case.terms("x", case.lo, case.hi, c, alpha, wrap="{f} + kap", kap=kap))


_REFLECTED = {"T1": "T1", "T3": "T3", "T4": "T4", "A1": "A2", "A2": "A1"}


def _reflect(case, c, alpha):
    return _hh(case.terms("(lo + hi - x)", case.lo, case.hi, c, alpha))


@_SETTINGS
@given(case=_inputs(), c=_C, alpha=_ALPHA)
def test_reflection_keeps_the_ends_and_swaps_a1_and_a2(case, c, alpha):
    base, moved = _hh(case.base(c, alpha)), _reflect(case, c, alpha)
    _assert_law({k: base[k] for k in _REFLECTED}, moved,
                lambda name, v: base[_REFLECTED[name]])
    print(f"reflection moves T2 by {moved['T2'] - base['T2']!r} (orientation step)")


@_SETTINGS
@given(case=_inputs(), c=_C, alpha=_ALPHA, h=st.floats(-2.0, 2.0))
def test_translation_leaves_every_term_unchanged(case, c, alpha, h):
    _assert_law(case.base(c, alpha), _translate(case, c, alpha, h), lambda name, v: v)


@_SETTINGS
@given(case=_inputs(), c=_C, alpha=_ALPHA,
       s=st.floats(0.25, 0.8) | st.floats(1.25, 4.0))
def test_dilation_scales_each_term_by_its_power_of_s(case, c, alpha, s):
    _assert_law(case.base(c, alpha), _dilate(case, c, alpha, s), _dilated(s, alpha))


@_SETTINGS
@given(case=_inputs(_ETAS_DEGREE_1), c=_C, alpha=_ALPHA,
       lam=st.floats(0.25, 0.8) | st.floats(1.25, 4.0))
def test_positive_scaling_scales_the_chain_and_not_the_moments(case, c, alpha, lam):
    _assert_law(case.base(c, alpha), _scale(case, c, alpha, lam), _scaled(lam))


@_SETTINGS
@given(case=_inputs(("u - v",)), c=_C, alpha=_ALPHA, kap=st.floats(-3.0, 3.0))
def test_vertical_shift_moves_the_ends_by_a_power_of_two(case, c, alpha, kap):
    _assert_law(_hh(case.base(c, alpha)), _shift(case, c, alpha, kap), _shifted(kap, alpha))


@pytest.mark.parametrize("alpha", _SWEEP_ALPHAS)
def test_laws_hold_on_the_sweep_presets(alpha):
    """Laws 1-4 on the sweep's f and eta presets at c 0 and 1, on [0.2, 1.5]
    with the unit weight (the ``one`` preset)."""
    for f in _F_PRESETS:
        for eta in ETA_PRESETS.values():
            case = _Input(f, "1", eta, (0.2, 1.5), 0.3)
            for c in (0.0, 1.0):
                base = case.base(c, alpha)
                _assert_law(base, _translate(case, c, alpha, 0.7), lambda name, v: v)
                _assert_law(base, _dilate(case, c, alpha, 2.5), _dilated(2.5, alpha))
                _assert_law(base, _scale(case, c, alpha, 3.0), _scaled(3.0))
                if eta == "u - v":
                    _assert_law(_hh(base), _shift(case, c, alpha, -1.5), _shifted(-1.5, alpha))
