"""Expression DSL: parsing, printing, evaluation, and the polynomial form."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracon import (
    AlphaContext,
    EtaSpec,
    EvalError,
    FunctionSpec,
    NotPolynomial,
    ParseError,
    evaluate,
    normalize,
    parse,
    pretty,
)

_CTX1 = AlphaContext(alpha=1.0)
_CTX05 = AlphaContext(alpha=0.5)


# ------------------------------------------------------------------ parsing


def test_parse_monomial():
    ast = parse("x^(2a)", arity=1)
    assert pretty(ast) == "x^(2*a)"


def test_parse_two_variable_form():
    ast = parse("2^a * u + v", arity=2)
    assert pretty(parse(pretty(ast), arity=2)) == pretty(ast)


def test_unbalanced_parenthesis_offset():
    with pytest.raises(ParseError) as err:
        parse("x^(1.5a", arity=1)
    assert err.value.offset == 7
    assert "offset 7" in str(err.value)


def test_unbound_name_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse("q + 1", arity=1)
    assert "unbound name 'q'" in str(err.value)


def test_arity_enforcement():
    with pytest.raises(ParseError):
        parse("u + v", arity=1)
    with pytest.raises(ParseError):
        parse("x", arity=2)


def test_declared_constants_parse():
    ast = parse("c^(a) * x^(2a)", arity=1, constants=("c",))
    assert "c" in pretty(ast)


def test_empty_text_rejected():
    with pytest.raises(ParseError):
        parse("", arity=1)
    with pytest.raises(ParseError):
        parse("   ", arity=1)


@pytest.mark.parametrize(
    "text",
    [
        "x^(2a)",
        "2^a*u + v",
        "abs(x - 0.5)^(a)",
        "(x - lo)^(a)*(hi - x)^(a)",
        "-x^(2a) + 3*x^(a) - 1",
        "x^(3a)/2 + x/4",
        "x^(1.5a)",
    ],
)
def test_pretty_round_trip_fixed_point(text):
    """pretty . parse is a fixed point on its own output."""
    arity = 2 if ("u" in text or "v" in text) else 1
    consts = tuple(n for n in ("lo", "hi") if n in text)
    once = pretty(parse(text, arity=arity, constants=consts))
    twice = pretty(parse(once, arity=arity, constants=consts))
    assert once == twice


def test_parse_deterministic():
    a1 = parse("x^(2a) + 3*x^(a)", arity=1)
    a2 = parse("x^(2a) + 3*x^(a)", arity=1)
    assert a1 == a2
    assert pretty(a1) == pretty(a2)


# --------------------------------------------------------------- evaluation


def test_eval_examples():
    assert evaluate(parse("x^(2a)", arity=1), {"x": 3.0}, _CTX1) == 9.0
    assert evaluate(parse("x^(2a)", arity=1), {"x": 2.0}, _CTX05) == 2.0
    assert evaluate(parse("2^a*u+v", arity=2), {"u": 1.0, "v": 1.0}, _CTX1) == 3.0


def test_eval_sign_convention():
    """Odd alpha-powers keep sign, even powers drop it."""
    ast = parse("x^(a)", arity=1)
    assert evaluate(ast, {"x": -4.0}, _CTX05) == -2.0
    ast2 = parse("x^(2a)", arity=1)
    assert evaluate(ast2, {"x": -2.0}, _CTX05) == 2.0


def test_eval_division_by_zero():
    ast = parse("1/x", arity=1)
    with pytest.raises(EvalError):
        evaluate(ast, {"x": 0.0}, _CTX1)


def test_eval_zero_to_negative_power():
    ast = parse("x^(-1)", arity=1)
    with pytest.raises(EvalError):
        evaluate(ast, {"x": 0.0}, _CTX1)


def test_function_spec_vectorized_matches_scalar():
    f = FunctionSpec.from_text("x^(2a) - x^(a)/2", domain=(0.0, 2.0))
    xs = np.linspace(0.0, 2.0, 17)
    many = f.evaluate_many(xs, _CTX05)
    sing = np.array([f.evaluate(float(x), _CTX05) for x in xs])
    assert np.array_equal(many, sing)


@pytest.mark.parametrize("text", ["x^(2a) + 1", "abs(x - 0.3)^(a)*x/2"])
def test_evaluate_many_does_not_pin_its_input(text):
    """Without the cyclic collector, dropping the input frees it at once."""
    f = FunctionSpec.from_text(text)
    xs = np.linspace(0.0, 2.0, 101)
    ref = weakref.ref(xs)
    gc.disable()
    try:
        f.evaluate_many(xs, _CTX05)
        del xs
        assert ref() is None
    finally:
        gc.enable()


def test_eta_spec_broadcast():
    eta = EtaSpec.from_text("2^a*u + v")
    us = np.array([0.0, 1.0, 2.0])
    vs = np.array([1.0, 1.0, 1.0])
    out = eta.evaluate_many(us, vs, _CTX1)
    assert np.allclose(out, 2.0 * us + vs)


@pytest.mark.parametrize(
    ("text", "params", "points"),
    [
        ("abs(x - 0.3)^(a)", {}, (0.3,)),
        ("abs(2*x - 1)", {}, (0.5,)),
        ("x^(2a)", {}, (0.0,)),
        ("(x - lo)^(a)*(hi - x)^(a)", {"lo": -0.25, "hi": 1.5}, (-0.25, 1.5)),
        ("x^(0.5) + abs(x - 2)", {}, (0.0, 2.0)),
        ("x^2 + 1", {}, ()),
        ("3", {}, ()),
        ("2^a", {}, ()),
        ("abs(x^2 - 1)", {}, ()),
    ],
)
def test_singular_points(text, params, points):
    """Zeros of affine arguments under abs and alpha- or fractional powers."""
    assert FunctionSpec.from_text(text, params=params).singular_points() == points


# ------------------------------------------------------------ normalization


def test_normalize_monomial():
    gp = normalize(parse("x^(2a)", arity=1), 0.0, _CTX05)
    assert dict(gp.terms) == {2: 1.0}


def test_normalize_product_adds_exponents():
    gp = normalize(parse("(x)^(a) * (x)^(a)", arity=1), 0.0, _CTX05)
    assert dict(gp.terms) == {2: 1.0}


def test_normalize_abs_not_centered():
    with pytest.raises(NotPolynomial):
        normalize(parse("abs(x - 0.5)^(a)", arity=1), 0.0, _CTX05)


def test_normalize_base_change_classical():
    """x^2 about s=-1 is (x+1)^2 - 2(x+1) + 1."""
    gp = normalize(parse("x^2", arity=1), -1.0, _CTX1)
    assert dict(gp.terms) == {0: 1.0, 1: -2.0, 2: 1.0}


def test_normalize_shifted_base():
    gp = normalize(parse("(x - lo)^(3a)", arity=1, constants=("lo",)), 2.0,
                   AlphaContext(alpha=0.3), params={"lo": 2.0})
    assert dict(gp.terms) == {3: 1.0}


def test_normalize_rejects_uncentered_shift():
    with pytest.raises(NotPolynomial):
        normalize(parse("(x - lo)^(a)", arity=1, constants=("lo",)), 0.0, _CTX05,
                  params={"lo": 1.0})


@pytest.mark.parametrize(
    "text",
    ["x^(2a)", "2*x^(a) - 1", "(x)^(a)*(x)^(a)", "x^(3a)/2 + 1", "-x^(2a) + x^(a)"],
)
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_normalize_eval_agreement(text, alpha):
    """GPoly value tracks AST value to 1e-10 relative on 100 points."""
    ctx = AlphaContext(alpha=alpha)
    ast = parse(text, arity=1)
    gp = normalize(ast, 0.0, ctx)
    xs = np.linspace(0.0, 2.0, 100)
    ast_vals = np.array([evaluate(ast, {"x": float(x)}, ctx) for x in xs])
    gp_vals = gp.evaluate(xs)
    assert np.all(np.abs(gp_vals - ast_vals) <= 1e-10 * (1.0 + np.abs(ast_vals)))


def test_normalize_deterministic():
    one = normalize(parse("x^(2a) + 2*x^(a)", arity=1), 0.0, _CTX05)
    two = normalize(parse("x^(2a) + 2*x^(a)", arity=1), 0.0, _CTX05)
    assert one == two


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from([0.3, 0.5, 0.9, 1.0]),
)
def test_gpoly_matches_ast_pointwise(x, alpha):
    ctx = AlphaContext(alpha=alpha)
    ast = parse("x^(2a) - x^(a)/3 + 2", arity=1)
    gp = normalize(ast, 0.0, ctx)
    ast_val = evaluate(ast, {"x": x}, ctx)
    gp_val = float(gp.evaluate(np.array([x]))[0])
    assert abs(gp_val - ast_val) <= 1e-10 * (1.0 + abs(ast_val))
