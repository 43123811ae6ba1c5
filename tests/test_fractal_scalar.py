"""Order-alpha arithmetic: magnitude embedding and base-value semantics."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracon import AlphaContext, axiom_conformance, parse
from fracon.expr import evaluate_raw

_ALPHAS = (0.3, 0.5, 0.9, 1.0)
_POWER = parse("x^(a)")


def magnitude(a: float, ctx: AlphaContext) -> float:
    """The magnitude sign(a)*|a|**alpha, as the expression layer evaluates it."""
    return float(evaluate_raw(_POWER, {"x": np.array([a])}, ctx)[0])


def test_embed_examples():
    ctx = AlphaContext(alpha=0.5)
    assert magnitude(4.0, ctx) == 2.0
    assert magnitude(-4.0, ctx) == -2.0
    assert magnitude(0.0, ctx) == 0.0
    assert magnitude(1.0, ctx) == 1.0
    assert magnitude(9.0, AlphaContext(alpha=1.0)) == 9.0


def test_embed_additive_divergence_example():
    """4^0.5 + 9^0.5 = 5 but (4+9)^0.5 = sqrt(13): magnitudes do not add."""
    ctx = AlphaContext(alpha=0.5)
    lhs = magnitude(4.0, ctx) + magnitude(9.0, ctx)
    rhs = magnitude(13.0, ctx)
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
    assert magnitude(lo, ctx) < magnitude(hi, ctx)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from(_ALPHAS),
)
def test_embed_multiplicative(a, b, alpha):
    """(ab)^alpha = a^alpha * b^alpha under the sign convention."""
    ctx = AlphaContext(alpha=alpha)
    lhs = magnitude(a * b, ctx)
    rhs = magnitude(a, ctx) * magnitude(b, ctx)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_axiom_conformance_iso_all_pass(alpha):
    """Base-value semantics satisfies all seven arithmetic properties."""
    rows = axiom_conformance(alpha, triples=1000, seed=2718)
    assert len(rows) == 7
    assert all(r.iso == "PASS" for r in rows)
    assert all(r.iso_err <= 1e-12 for r in rows)


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_axiom_conformance_magnitude_divergence(alpha):
    """Magnitude semantics diverges exactly on additive embedding, alpha<1."""
    rows = axiom_conformance(alpha, triples=1000, seed=2718)
    by_index = {r.index: r for r in rows}
    diverging = [r.index for r in rows if r.magnitude != "PASS"]
    if alpha == 1.0:
        assert diverging == []
    else:
        assert diverging == [2]
        assert by_index[2].note != ""
        assert by_index[2].magnitude_err > 1e-3


def test_axiom_conformance_deterministic():
    assert axiom_conformance(0.5) == axiom_conformance(0.5)
    one = [r.__dict__ for r in axiom_conformance(0.3, triples=64, seed=11)]
    two = [r.__dict__ for r in axiom_conformance(0.3, triples=64, seed=11)]
    assert json.dumps(one) == json.dumps(two)
