"""Expression DSL: parsing, printing, evaluation, and the polynomial form."""

import gc
import math
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
    WeightSpec,
    parse,
    pretty,
)
from fracon import expr as expr_module
from fracon.expr import (Abs, Bin, ExpAlpha, Name, Num, Pow, _eval, _monotone_dirs,
                         _pow_alpha, evaluate_raw, normal_form)
from fracon.presets import ETA_PRESETS, F_PRESETS, W_PRESETS

_CTX1 = AlphaContext(alpha=1.0)
_CTX05 = AlphaContext(alpha=0.5)


def _at(node, ctx, **point):
    """The value of ``node`` at one point, from ``evaluate_raw`` on one-point arrays."""
    return float(evaluate_raw(node, {k: np.array([v]) for k, v in point.items()}, ctx)[0])


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


_CAP = expr_module._MAX_DEPTH


def _nested(kind: str, depth: int) -> str:
    """An arity-1 text that nests ``depth`` levels deep in one way."""
    if kind == "parens":
        return "(" * depth + "x" + ")" * depth
    if kind == "abs":
        return "abs(" * (depth - 1) + "x" + ")" * (depth - 1)
    if kind == "minus":
        return "-" * (depth - 1) + "x"
    return "+".join(["x"] * depth)  # a chain of depth - 1 operators


_NESTINGS = ("parens", "abs", "minus", "sum")


@pytest.mark.parametrize("kind", _NESTINGS)
def test_nesting_past_the_cap_is_a_parse_error_with_its_offset(kind):
    parse(_nested(kind, _CAP))
    text = _nested(kind, _CAP + 1)
    with pytest.raises(ParseError) as err:
        parse(text)
    offset = err.value.offset
    assert 0 <= offset < len(text)
    assert str(err.value) == f"syntax error at offset {offset}: nesting deeper than {_CAP} levels"


def _with_frames_used(frames: int, fn):
    """``fn()`` called below ``frames`` extra stack frames."""
    return fn() if frames == 0 else _with_frames_used(frames - 1, fn)


@pytest.mark.parametrize("kind", _NESTINGS)
def test_every_walk_of_the_deepest_text_fits_beside_a_deep_caller(kind):
    """Parsing, evaluating, normalizing, printing, comparing and the kink and
    monotonicity walks all run at the cap with 300 frames already in use."""
    text = _nested(kind, _CAP)

    def walks():
        f = FunctionSpec.from_text(text)
        f.evaluate_many(np.linspace(0.0, 1.0, 5), _CTX05)
        f.singular_points()
        try:
            f.form(0.0, None, _CTX05)
        except NotPolynomial:
            pass
        eta = EtaSpec.from_text(text.replace("x", "u"))
        _monotone_dirs(eta.ast, {}, 0.5)
        assert parse(pretty(f.ast)) == f.ast
        repr(f)

    _with_frames_used(300, walks)


def _chain(depth: int) -> Bin:
    """A hand-built tree 1 + 1 + ... + 1 that nests ``depth`` levels deep."""
    tree = Num(1.0)
    for _ in range(depth - 1):
        tree = Bin("+", tree, Num(1.0))
    return tree


@pytest.mark.parametrize("depth", (_CAP + 1, 2000))
def test_hand_built_tree_past_the_cap_is_rejected_when_its_spec_is_built(depth):
    """The nesting cap holds for a spec built from a tree, not only for parsed
    text: a 2000-deep chain is a ParseError here, not a RecursionError later."""
    with pytest.raises(ParseError, match=f"nesting deeper than {_CAP} levels"):
        FunctionSpec(text="deep", ast=_chain(depth))


def test_hand_built_tree_at_the_cap_builds_and_evaluates():
    f = FunctionSpec(text="deep", ast=_chain(_CAP))
    assert f.evaluate_many(np.array([0.5]), _CTX05).tolist() == [_CAP]
    assert f.evaluate_many(np.zeros(3), _CTX05).tolist() == [_CAP] * 3


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
    assert _at(parse("x^(2a)", arity=1), _CTX1, x=3.0) == 9.0
    assert _at(parse("x^(2a)", arity=1), _CTX05, x=2.0) == 2.0
    assert _at(parse("2^a*u+v", arity=2), _CTX1, u=1.0, v=1.0) == 3.0


def test_eval_sign_convention():
    """Odd alpha-powers keep sign, even powers drop it."""
    ast = parse("x^(a)", arity=1)
    assert _at(ast, _CTX05, x=-4.0) == -2.0
    ast2 = parse("x^(2a)", arity=1)
    assert _at(ast2, _CTX05, x=-2.0) == 2.0


def test_eval_division_by_zero():
    ast = parse("1/x", arity=1)
    with pytest.raises(EvalError):
        _at(ast, _CTX1, x=0.0)


def test_eval_zero_to_negative_power():
    ast = parse("x^(-1)", arity=1)
    with pytest.raises(EvalError):
        _at(ast, _CTX1, x=0.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("form", (float, np.float64, np.array, lambda v: np.array([1.0, v])),
                         ids=("float", "float64", "0-d", "n-d"))
def test_evaluate_raw_rejects_non_finite(bad, form):
    node = parse("x", arity=1)
    assert np.array_equal(evaluate_raw(node, {"x": form(2.0)}, _CTX1), form(2.0))
    with pytest.raises(EvalError, match="non-finite"):
        evaluate_raw(node, {"x": form(bad)}, _CTX1)


# Both zeros, subnormals, ordinary, huge and overflowing magnitudes.
_POW_SAMPLES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, -1.0, 3.0,
                1e300, -1e300, 1.7e308)


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(st.sampled_from(_POW_SAMPLES) | st.floats(allow_nan=False),
                min_size=1, max_size=12),
    k=st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -0.5, -1.0)),
    alpha=st.sampled_from((0.3, 0.5, 0.9, 1.0)),
)
def test_abs_alpha_power_matches_magnitude_rule_bitwise(xs, k, alpha):
    """abs(...)^(k*a) with k*a > 0 skips the sign factor of the magnitude
    rule.  The parser admits no k < 0, but a tree built with one keeps the
    factor, as sign(0) * 0**(k*a) is NaN there, not inf."""
    node = Pow(Abs(Name("x")), ExpAlpha(k))
    for x in (np.array(xs), xs[0]):
        with np.errstate(all="ignore"):
            got = np.asarray(_eval(node, {"x": x}, {}, alpha), dtype=float).ravel()
            want = np.asarray(_pow_alpha(np.abs(x), k, alpha), dtype=float).ravel()
        assert [v.hex() for v in got] == [v.hex() for v in want]


_LINE = np.linspace(-1.0, 1.0, 2001)


@settings(max_examples=200, deadline=None)
@given(
    text=st.sampled_from((*F_PRESETS.values(), "abs(x - 0.3)^(a)", "abs(x - 0.5)^(a)",
                          "abs(x - 0.7)^(a)")),
    alpha=st.sampled_from((0.3, 0.5, 0.9, 1.0)),
    idx=st.lists(st.integers(0, len(_LINE) - 1), min_size=3, max_size=3),
)
def test_evaluate_many_value_does_not_depend_on_array_length(text, alpha, idx):
    """A point's value is one arithmetic's: f on a 1- or 3-point array gives,
    bit for bit, the value of the same points inside a 2001-point array."""
    f = FunctionSpec.from_text(text)
    ctx = AlphaContext(alpha=alpha)
    line = f.evaluate_many(_LINE, ctx)
    for pick in (idx[:1], idx):
        got = f.evaluate_many(_LINE[pick], ctx)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in line[pick].tolist()]


_UNIT = np.linspace(0.0, 1.0, 2001)


def test_zero_d_inputs_take_the_array_arithmetic():
    """A 0-d input is evaluated as one element of an array: numpy computes
    on 0-d arrays with its scalar ``power`` (libm), which on an AVX-512
    host differs in the last bit from the array loop at 95 of these 2001
    points for x^(2a) at alpha 0.3."""
    ctx = AlphaContext(alpha=0.3)
    f = FunctionSpec.from_text("x^(2a)")
    eta = EtaSpec.from_text("u^(2a) - v")
    vs = _UNIT[::-1].copy()
    want_f = f.evaluate_many(_UNIT, ctx).tolist()
    want_eta = eta.evaluate_many(_UNIT, vs, ctx).tolist()
    got_f, got_eta = [], []
    for u, v in zip(_UNIT.tolist(), vs.tolist()):
        fx = f.evaluate_many(np.asarray(u), ctx)
        ex = eta.evaluate_many(np.asarray(u), np.asarray(v), ctx)
        assert fx.shape == ex.shape == ()
        got_f.append(float(fx))
        got_eta.append(float(ex))
    assert [v.hex() for v in got_f] == [v.hex() for v in want_f]
    assert [v.hex() for v in got_eta] == [v.hex() for v in want_eta]


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
    form = normal_form(parse("x^(2a)", arity=1), 0.0, None, _CTX05)
    assert form == {(2, 0): 1.0}


def test_normalize_product_adds_exponents():
    form = normal_form(parse("(x)^(a) * (x)^(a)", arity=1), 0.0, None, _CTX05)
    assert form == {(2, 0): 1.0}


def test_normalize_abs_not_centered():
    with pytest.raises(NotPolynomial):
        normal_form(parse("abs(x - 0.5)^(a)", arity=1), 0.0, None, _CTX05)


def test_normalize_base_change_classical():
    """x^2 about s=-1 is (x+1)^2 - 2(x+1) + 1."""
    form = normal_form(parse("x^2", arity=1), -1.0, None, _CTX1)
    assert form == {(0, 0): 1.0, (1, 0): -2.0, (2, 0): 1.0}


def test_normalize_shifted_base():
    form = normal_form(parse("(x - lo)^(3a)", arity=1, constants=("lo",)), 2.0, None,
                       AlphaContext(alpha=0.3), params={"lo": 2.0})
    assert form == {(3, 0): 1.0}


def test_normal_form_roots_a_base_only_where_it_is_exactly_zero():
    """x - 0.25 vanishes at 0.25 and 1 - x at 1, exactly; x - 1e-15 is
    1e-15 away from 0 at x = 0, so it has no form on [0, 1]."""
    ctx = AlphaContext(alpha=0.3)
    exact = WeightSpec.from_text("(x - 0.25)^(a)*(1 - x)^(a)")
    assert exact.form(0.25, 1.0, ctx) == {(1, 1): 1.0}
    with pytest.raises(NotPolynomial):
        WeightSpec.from_text("(x - 1e-15)^(a)*(1 - x)^(a)").form(0.0, 1.0, ctx)


def test_normalize_rejects_uncentered_shift():
    with pytest.raises(NotPolynomial):
        normal_form(parse("(x - lo)^(a)", arity=1, constants=("lo",)), 0.0, None, _CTX05,
                    params={"lo": 1.0})


def _form_at(form: dict, x: float, a: float, b, alpha: float) -> float:
    """sum c * (x-a)**(k alpha) * (b-x)**(j alpha) at x, term by term."""
    return sum(c * (x - a) ** (k * alpha) * ((b - x) ** (j * alpha) if j else 1.0)
               for (k, j), c in form.items())


# A normal form checked against its expression at every point it claims,
# by text: (f, a, b, eta).  b None is f's half-line form about a, checked
# on [a, a + 2]; else f's form on [a, b], or, with an eta, eta's form on the
# forms of f(a+b-x) and f(x), checked against eta(f(a+b-x), f(x)) there.
# lo and hi are bound to a and b.
_FORM_CASES = {
    **{text: (text, 0.0, None, None) for text in (
        "x^(2a)", "2*x^(a) - 1", "(x)^(a)*(x)^(a)", "x^(3a)/2 + 1", "-x^(2a) + x^(a)",
        "x^(2a) - x^(a)/3 + 2")},
    "(x - lo)^(3a) - 2*(x - lo)^(a) on [0.5, +)": ("(x - lo)^(3a) - 2*(x - lo)^(a)", 0.5,
                                                   None, None),
    "(hi - x)^(2a)*x^(a) on [0, 1.5]": ("(hi - x)^(2a)*x^(a)", 0.0, 1.5, None),
    "3*(hi - x)^(a) - (x - lo)^(a)*(hi - x)^(3a)/2 + 1 on [-1, 2]": (
        "3*(hi - x)^(a) - (x - lo)^(a)*(hi - x)^(3a)/2 + 1", -1.0, 2.0, None),
    "parabolic on [0.2, 1.5]": (W_PRESETS["parabolic"], 0.2, 1.5, None),
    **{f"{eta} of {f} on [{a:g}, {b:g}]": (f, a, b, eta)
       for eta in ETA_PRESETS.values()
       for f, a, b in (("x^(2a)", 0.0, 1.0), ("(x - lo)^(a)*(hi - x)^(2a) - (hi - x)^(a)",
                                                -1.0, 2.0))},
}


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
@pytest.mark.parametrize("case", _FORM_CASES)
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
def test_normalize_eval_agreement(alpha, case, i):
    """Every normal form, half-line or two-endpoint, f's or eta's on f's,
    tracks its expression to 1e-10 relative at every point it claims.  The
    points are dyadic, so that on the eta cases' intervals a + b - x is
    exact: near an endpoint at alpha < 1, the rounding of a + b - x alone
    would move f(a+b-x) by more than that."""
    f_text, a, b, eta_text = _FORM_CASES[case]
    t = i / 2**20
    ctx = AlphaContext(alpha=alpha)
    f = FunctionSpec.from_text(f_text, params={"lo": a, "hi": 2.0 if b is None else b})
    x = a + t * 2.0 if b is None else min(a + t * (b - a), b)
    if eta_text is None:
        form = f.form(a, b, ctx)
        want = float(f.evaluate_many(np.array([x]), ctx)[0])
    else:
        eta = EtaSpec.from_text(eta_text)
        f_form = f.form(a, b, ctx)
        form = eta.form({(j, k): c for (k, j), c in f_form.items()}, f_form, a, b, ctx)
        fu, fv = f.evaluate_many(np.array([a + b - x, x]), ctx)
        want = float(eta.evaluate_many(fu, fv, ctx))
    got = _form_at(form, x, a, b, alpha)
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), (form, x)


def test_a_power_past_the_degree_bound_raises_before_it_is_expanded(monkeypatch):
    """(x + 1)^171 about 0 at alpha 1 would have a term x^171, and
    Gamma(172) overflows, so no exact rule could use its form: the walk
    refuses it without multiplying anything out.  So do a two-endpoint
    power past the bound and the same power of the integer-alpha kind."""
    def expand(p, q):
        raise AssertionError("the power was expanded")

    monkeypatch.setattr(expr_module, "_pmul", expand)
    for text, a, b, alpha in (("(x + 1)^171", 0.0, None, 1.0),
                              ("(x^(a) + 1)^(684a)", 0.0, None, 0.5),
                              ("((x - lo)^(a) + (hi - x)^(a))^342", 0.0, 1.0, 0.5)):
        f = FunctionSpec.from_text(text, params={"lo": 0.0, "hi": 1.0})
        with pytest.raises(NotPolynomial, match="passes 170.625, where Gamma overflows"):
            f.form(a, b, AlphaContext(alpha=alpha))


def test_a_power_past_the_product_bound_raises_before_it_is_expanded(monkeypatch):
    """Under the degree bound at small alpha, a power can still take more
    than _MAX_PRODUCTS term products to multiply out (O(n**2) for two or
    more terms, n for one): the walk refuses it without multiplying."""
    def expand(p, q):
        raise AssertionError("the power was expanded")

    monkeypatch.setattr(expr_module, "_pmul", expand)
    for text, a, b, alpha in (("(x^(a) + 0.5)^4000", 0.0, None, 0.01),
                              ("((x - lo)^(a) + (hi - x)^(a))^1500", 0.0, 1.0, 0.01),
                              ("(x^(a))^2000000", 0.0, None, 1e-5)):
        f = FunctionSpec.from_text(text, params={"lo": 0.0, "hi": 1.0})
        with pytest.raises(NotPolynomial, match="more than 1048576 term products"):
            f.form(a, b, AlphaContext(alpha=alpha))


def test_the_product_bound_is_the_products_of_the_expansion():
    """_products counts what _ppow's loop does wherever the keys of p**i
    fill their box or are all distinct, and never less."""
    cases = [({(1, 0): 0.5, (0, 0): 0.5}, 341), ({(2, 0): 1.0, (1, 0): -1.0, (0, 0): 0.25}, 15),
             ({(1, 1): 0.1, (0, 0): 1.0}, 86), ({(1, 0): 1.0, (0, 1): 1.0}, 30),
             ({(3, 0): 1.0, (0, 2): 1.0, (1, 1): 1.0}, 12), ({(2, 3): 2.0}, 50)]
    for p, n in cases:
        work, out = 0, {(0, 0): 1.0}
        for _ in range(n):
            work += len(out) * len(p)
            out = expr_module._pmul(out, p)
        assert expr_module._products(p, n) >= work
        if len(p) < 3:
            assert expr_module._products(p, n) == work


@pytest.mark.parametrize(("text", "a", "b", "alpha", "terms", "top"), [
    ("(x + 1)^170", 0.0, None, 1.0, 171, (170, 0)),
    ("((x - lo)^(a) + (hi - x)^(a))^341", 0.0, 1.0, 0.5, 342, (341, 0)),
    # One term: nothing to expand, so the degree bound does not apply.
    ("(2*(x - lo)^(a)*(hi - x)^(a))^400", 0.0, 1.0, 0.5, 1, (400, 400)),
    # The expanded powers whose terms cancel, which the exact rules decline.
    ("((x - lo)*(hi - x))^(20)", 0.0, 1.0, 1.0, 21, (40, 0)),
    ("((x - 0.5)^2)^15", 0.0, None, 1.0, 31, (30, 0)),
])
def test_a_power_within_the_degree_bound_keeps_its_form(text, a, b, alpha, terms, top):
    f = FunctionSpec.from_text(text, params={"lo": 0.0, "hi": 1.0})
    form = f.form(a, b, AlphaContext(alpha=alpha))
    assert len(form) == terms and max(form) == top


def test_normalize_deterministic():
    one = normal_form(parse("x^(2a) + 2*x^(a)", arity=1), 0.0, None, _CTX05)
    two = normal_form(parse("x^(2a) + 2*x^(a)", arity=1), 0.0, None, _CTX05)
    assert one == two


# ------------------------------------------------------ monotone classifier


@pytest.mark.parametrize(
    ("text", "dirs"),
    [
        ("u - v", (1, -1)),
        ("2^a*u + v", (1, 1)),
        ("-(2*u) - v*3", (-1, -1)),
        ("u*v", None),
        ("abs(u - v)", None),
        ("u^(2)", None),
        ("0*u", None),
        ("u/v", None),
    ],
)
def test_monotone_dirs(text, dirs):
    """Separately monotone: sums, differences and nonzero constant multiples."""
    assert _monotone_dirs(parse(text, arity=2), {}, 0.5) == dirs
