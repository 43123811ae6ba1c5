"""Gamma evaluation against the stdlib and frozen high-precision references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracon import AlphaContext, GammaDomainError, gamma

# Reference values computed independently with mpmath at 40 significant
# digits (mp.gamma); frozen here so the test needs no mpmath at run time.
_REFERENCE = {
    0.5: 1.772453850905516027298167483341145182798,
    1.5: 0.8862269254527580136490837416705725913988,
    2.7: 1.544685845850593764960593703191845825163,
    10.3: 716430.6890623752445476296547161644534225,
    0.1: 9.513507698668731836292487177265402192551,
    29.5: 1.634812519827426644437880780686822186693e30,
}


def test_matches_stdlib_on_dense_grid():
    """Relative agreement with math.gamma across the working range."""
    xs = np.linspace(0.1, 30.0, 2991)
    worst = 0.0
    for x in xs:
        ref = math.gamma(float(x))
        worst = max(worst, abs(gamma(float(x)) - ref) / abs(ref))
    assert worst <= 1e-12


def test_frozen_reference_values():
    for x, ref in _REFERENCE.items():
        assert abs(gamma(x) - ref) <= 1e-14 * abs(ref)


def test_half_integer_identity():
    """Gamma(3/2) = sqrt(pi)/2 exactly in the reals."""
    assert abs(gamma(1.5) - math.sqrt(math.pi) / 2.0) <= 1e-15


def test_negative_non_integer():
    """Gamma(-1/2) = -2 sqrt(pi) via the reflection formula."""
    ref = -2.0 * math.sqrt(math.pi)
    assert abs(gamma(-0.5) - ref) <= 1e-13 * abs(ref)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.05, max_value=50.0, allow_nan=False))
def test_recurrence(x):
    """Gamma(x+1) = x * Gamma(x)."""
    lhs = gamma(x + 1.0)
    rhs = x * gamma(x)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
def test_reflection(x):
    """Gamma(x) * Gamma(1-x) = pi / sin(pi x) on (0, 1)."""
    lhs = gamma(x) * gamma(1.0 - x)
    rhs = math.pi / math.sin(math.pi * x)
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_poles_raise(x):
    with pytest.raises(GammaDomainError):
        gamma(x)


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.0001, 2.0])
def test_alpha_context_rejects_out_of_range(alpha):
    with pytest.raises(ValueError):
        AlphaContext(alpha=alpha)
