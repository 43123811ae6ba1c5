"""Dual-carrier arithmetic: magnitude embedding and base-value semantics."""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracon import (
    AlphaContext,
    FractalScalar,
    IsoFractal,
    TagMismatchError,
    axiom_conformance,
    embed,
)

_ALPHAS = (0.3, 0.5, 0.9, 1.0)


def test_embed_examples():
    ctx = AlphaContext(alpha=0.5)
    assert embed(4.0, ctx).value == 2.0
    assert embed(-4.0, ctx).value == -2.0
    assert embed(0.0, ctx).value == 0.0
    assert embed(1.0, ctx).value == 1.0
    assert embed(9.0, AlphaContext(alpha=1.0)).value == 9.0


def test_embed_additive_divergence_example():
    """4^0.5 + 9^0.5 = 5 but (4+9)^0.5 = sqrt(13): magnitudes do not add."""
    ctx = AlphaContext(alpha=0.5)
    lhs = embed(4.0, ctx).value + embed(9.0, ctx).value
    rhs = embed(13.0, ctx).value
    assert lhs == 5.0
    assert abs(rhs - math.sqrt(13.0)) <= 1e-15
    assert abs(lhs - rhs) > 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
    st.sampled_from(_ALPHAS),
)
def test_embed_monotone(a, b, alpha):
    """sign(x)|x|^alpha is strictly increasing."""
    assume(abs(a - b) > 1e-6)
    ctx = AlphaContext(alpha=alpha)
    lo, hi = min(a, b), max(a, b)
    assert embed(lo, ctx).value < embed(hi, ctx).value


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from(_ALPHAS),
)
def test_embed_multiplicative(a, b, alpha):
    """(ab)^alpha = a^alpha * b^alpha under the sign convention."""
    ctx = AlphaContext(alpha=alpha)
    lhs = embed(a * b, ctx).value
    rhs = embed(a, ctx).value * embed(b, ctx).value
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_fractal_scalar_arithmetic_and_ordering():
    x = FractalScalar(2.0, 0.5)
    y = FractalScalar(3.0, 0.5)
    assert (x + y).value == 5.0
    assert (x - y).value == -1.0
    assert (x * y).value == 6.0
    assert (-x).value == -2.0
    assert x < y and y > x and x <= y and not x >= y
    assert not x < FractalScalar(2.0, 0.5) and not x > FractalScalar(2.0, 0.5)


def test_tag_mismatch_raises():
    x = FractalScalar(1.0, 0.5)
    y = FractalScalar(1.0, 0.9)
    with pytest.raises(TagMismatchError):
        _ = x + y
    with pytest.raises(TagMismatchError):
        _ = x < y


def test_iso_fractal_additive_embedding_exact():
    """Base-value semantics: 4^a (+) 9^a = 13^a holds exactly."""
    s = IsoFractal(4.0, 0.5) + IsoFractal(9.0, 0.5)
    assert s.base == 13.0
    p = IsoFractal(4.0, 0.5) * IsoFractal(9.0, 0.5)
    assert p.base == 36.0
    assert IsoFractal(4.0, 0.5).magnitude() == 2.0
    assert (IsoFractal(4.0, 0.5) - IsoFractal(9.0, 0.5)).base == -5.0


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        FractalScalar(float("nan"), 0.5)
    with pytest.raises(ValueError):
        IsoFractal(float("inf"), 0.5)


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_axiom_conformance_iso_all_pass(alpha):
    """Base-value semantics satisfies all seven arithmetic properties."""
    rows = axiom_conformance(alpha, triples=1000, seed=2718)
    assert len(rows) == 7
    assert all(r.iso_ok for r in rows)
    assert all(r.iso_err <= 1e-12 for r in rows)


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_axiom_conformance_magnitude_divergence(alpha):
    """Magnitude semantics diverges exactly on additive embedding, alpha<1."""
    rows = axiom_conformance(alpha, triples=1000, seed=2718)
    by_index = {r.index: r for r in rows}
    diverging = [r.index for r in rows if not r.mag_ok]
    if alpha == 1.0:
        assert diverging == []
    else:
        assert diverging == [2]
        assert by_index[2].note != ""
        assert by_index[2].mag_err > 1e-3


def test_axiom_conformance_deterministic():
    assert axiom_conformance(0.5) == axiom_conformance(0.5)
    one = [r.__dict__ for r in axiom_conformance(0.3, triples=64, seed=11)]
    two = [r.__dict__ for r in axiom_conformance(0.3, triples=64, seed=11)]
    assert json.dumps(one) == json.dumps(two)
