"""In-place expression evaluation: same values, untouched inputs, owned results.

``expr._eval`` writes an operator's result into an array that one of its
operand nodes made.  None of that may show: every value must equal, bit for
bit, what a walk with the plain allocating operators gives; no input may
change; and ``evaluate_many`` must hand back an array that shares no memory
with its inputs, even for a bare ``x``, ``u`` or ``v``.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from fracon import AlphaContext, EtaSpec, EvalError, FunctionSpec, parse, pretty
from fracon.expr import Abs, Bin, ExpAlpha, Name, Neg, Num, _pow_alpha, evaluate_raw, normal_form
from fracon.presets import ETA_PRESETS, F_PRESETS, W_PRESETS

_ALPHAS = (0.3, 0.5, 1.0)
_BOUND = {"lo": -1.0, "hi": 1.0, "c": 0.5}

# Every node kind: even and odd alpha-powers (of abs and of other bases),
# integer and non-integer literal powers of both signs, division, nested
# Neg and Abs, bare variables and constants.
_F_CORPUS = (
    *F_PRESETS.values(),
    *W_PRESETS.values(),
    "x", "3", "x - x", "x^(a)", "-x^(3a)", "x^(0.5a)", "abs(x)^(2a)", "abs(x)^(0*a)",
    "abs(x - 0.3)^(a)", "(x - 0.7)^(1.5*a) + 2^a*x", "x^2", "x^3", "(x + 2)^(-1)",
    "(x + 2)^(-2)", "x^(0.5)", "(x + 2)^(-0.5)", "abs(x - 0.2)^(1.5)",
    "(1 + x)/(3 - x*x)", "2/(x + 2)", "x/c", "-(-x)", "abs(-abs(x - 0.1))",
    "-abs(-(x - 0.4))^(a)", "(x*x - 0.49)^(a) - x/3", "x*x*x - 2*x + 1",
    "abs(x*x - 0.49)^(-0.5)", "-(x - lo)^(a)*(hi - x)^(2a)/(1 + x*x)",
    "x^(-0.5)", "(x - 0.3)^(-1.5)", "(x - 0.35)^(a)", "(-x)^(1.5a)", "(x*x*x)^(2.5a)",
    "abs(x)^(0.5)", "-(x + 0.1)^(0.3)", "((x - 0.2)^(a))^(a)",
)
_ETA_CORPUS = (
    *ETA_PRESETS.values(),
    "u", "v", "c", "abs(u - v)^(a) + u*v", "(u + v)/2", "-u^(2a) + v^(a)",
    "u/(v*v + 1)", "-abs(u)^(0.5) * (v - 1)^3", "(u - v)^(a)", "(u*v)^(1.5a) - v^(0.5)",
)


def _reference(n, env, params, alpha):
    """The value of ``n`` from the plain allocating operators, no checks."""
    if isinstance(n, Num):
        return n.value
    if isinstance(n, Name):
        return env[n.name] if n.name in env else float(params[n.name])
    if isinstance(n, Neg):
        return -_reference(n.child, env, params, alpha)
    if isinstance(n, Abs):
        return np.abs(_reference(n.child, env, params, alpha))
    if isinstance(n, Bin):
        lhs = _reference(n.left, env, params, alpha)
        rhs = _reference(n.right, env, params, alpha)
        return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[n.op](lhs, rhs)
    base = _reference(n.base, env, params, alpha)
    if isinstance(n.exp, ExpAlpha):
        k, p = n.exp.k, n.exp.k * alpha
        if isinstance(n.base, Abs) and p > 0.0:
            return base**p
        if abs(k - round(k)) <= 1e-9 and round(k) % 2 == 0:
            return np.abs(base) ** p
        return np.sign(base) * np.abs(base) ** p
    r = n.exp.value
    if abs(r - round(r)) <= 1e-9:
        return np.asarray(base, dtype=float) ** int(round(r))
    return np.sign(base) * np.abs(base) ** r


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


# Points where no corpus entry divides by zero: a kink sits on a point, but
# no zero of a negatively powered base does.
_XS = _read_only(np.concatenate((np.linspace(-1.0, 1.0, 41), [0.3, 0.7, -0.0])))
_US = _read_only(np.linspace(-1.5, 2.0, 9))
_VS = _read_only(np.linspace(2.0, -0.5, 9) + 0.1)


def _same(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check(ast, env, params, alpha) -> None:
    """evaluate_raw equals the reference bit for bit, or both fail."""
    before = {k: v.tobytes() for k, v in env.items() if isinstance(v, np.ndarray)}
    with np.errstate(all="ignore"):
        want = _reference(ast, env, params, alpha)
    if not np.isfinite(want).all():
        with pytest.raises(EvalError):
            evaluate_raw(ast, env, AlphaContext(alpha=alpha), params)
    else:
        _same(evaluate_raw(ast, env, AlphaContext(alpha=alpha), params), want)
    assert {k: v.tobytes() for k, v in env.items() if isinstance(v, np.ndarray)} == before


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("text", _F_CORPUS)
def test_function_values_equal_plain_operators(text, alpha):
    ast = parse(text, arity=1, constants=_BOUND)
    _check(ast, {"x": _XS}, _BOUND, alpha)
    for x in (-0.8, -0.0, 0.3, 0.55):
        _check(ast, {"x": x}, _BOUND, alpha)


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("text", _ETA_CORPUS)
def test_eta_values_equal_plain_operators(text, alpha):
    ast = parse(text, arity=2, constants=_BOUND)
    _check(ast, {"u": _US, "v": _VS}, _BOUND, alpha)
    _check(ast, {"u": _US[:, None], "v": _VS[None, :]}, _BOUND, alpha)
    _check(ast, {"u": _US[:, None], "v": _VS[None, ::-1]}, _BOUND, alpha)
    _check(ast, {"u": 0.7, "v": -0.2}, _BOUND, alpha)


@pytest.mark.parametrize("text", _F_CORPUS)
def test_function_evaluate_many_owns_its_result(text):
    f = FunctionSpec.from_text(text, params=_BOUND)
    ctx = AlphaContext(alpha=0.5)
    for xs in (_XS, _XS.reshape(-1, 1), np.array(0.3)):
        before = xs.tobytes()
        try:
            out = f.evaluate_many(xs, ctx)
        except EvalError:
            continue
        assert xs.tobytes() == before
        assert out.flags.writeable and out.shape == xs.shape
        assert not np.shares_memory(out, xs)


@pytest.mark.parametrize("text", _ETA_CORPUS)
def test_eta_evaluate_many_owns_its_result(text):
    eta = EtaSpec.from_text(text, params=_BOUND)
    ctx = AlphaContext(alpha=0.5)
    for us, vs in ((_US, _VS), (_US[:, None], _VS[None, :]), (_US, 0.25)):
        before = [np.asarray(v).tobytes() for v in (us, vs)]
        try:
            out = eta.evaluate_many(us, vs, ctx)
        except EvalError:
            continue
        assert [np.asarray(v).tobytes() for v in (us, vs)] == before
        assert out.flags.writeable
        assert not np.shares_memory(out, us) and not np.shares_memory(out, vs)


def _awkward(seed: int) -> np.ndarray:
    """Random magnitudes over many decades, with +-0.0 and subnormals."""
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
    arr[:8] = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1.0, -1.0]
    return arr


@pytest.mark.parametrize("p", [0.5, 2.0, 0.3, -0.9, 1 / 0.3, 2, 3, -1])
@pytest.mark.parametrize("seed", [0, 1])
def test_in_place_power_equals_power(p, seed):
    """``a **= p`` takes the loop ``a ** p`` takes (sqrt for 0.5, square for
    2): a numpy whose in-place power went another way would fail here."""
    for arr in (_awkward(seed), np.abs(_awkward(seed))):
        with np.errstate(all="ignore"):
            want = arr**p
            got = arr.copy()
            got **= p
        assert got.tobytes() == want.tobytes()


_SIGNED_BASES = np.array([
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
    2.5e-310, -1e-308, 0.3, -0.3, 1.0, -1.0, 7.25, -7.25, 1e300, -1e300,
])


def _same_bits_or_nan(got, want) -> None:
    """Equal bits, except that a NaN need only be a NaN: which operand's
    NaN a product of two returns (sign bit and payload) is up to numpy's
    loop and the machine, and no NaN is ever printed."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _sign_times_magnitude(base, k, alpha):
    p = k * alpha
    if abs(k - round(k)) <= 1e-9 and round(k) % 2 == 0:
        return np.abs(base) ** p
    return np.sign(base) * np.abs(base) ** p


# Odd, even and non-integer k; p < 0 (reached by literals such as
# x^(-0.5)), p = 0 (alpha 0) and p > 0, at fast-path exponents (0.5, 2).
_K_ALPHA = [(1, 0.5), (3, 0.3), (0.5, 1.0), (1.5, 0.9), (2.5, 0.3), (-0.9, 1.0),
            (-1.5, 1.0), (-0.5, 1.0), (1, 0.0), (0.5, 0.0), (2, 0.5), (2, 1.0), (4, 0.3)]


@pytest.mark.parametrize(("k", "alpha"), _K_ALPHA)
def test_pow_alpha_equals_sign_times_magnitude(k, alpha):
    """One array, owned or not, 1-d, 2-d or strided, has the bits of
    sign(base) * |base|**p, signed zeros included; an owned base receives
    the result, any other is left as it was."""
    with np.errstate(all="ignore"):
        for arr in (_SIGNED_BASES, _SIGNED_BASES.reshape(-1, 1), _awkward(3)):
            want = _sign_times_magnitude(arr, k, alpha)
            _same_bits_or_nan(_pow_alpha(_read_only(arr), k, alpha), want)
            _same_bits_or_nan(_pow_alpha(arr[::-2], k, alpha), want[::-2])
            owned = arr.copy()
            got = _pow_alpha(owned, k, alpha, owned=True)
            _same_bits_or_nan(got, want)
            assert got is owned


@pytest.mark.parametrize(("k", "alpha"), _K_ALPHA)
def test_pow_alpha_keeps_scalars_and_0d_arrays_on_their_path(k, alpha):
    """Scalars give the numpy scalar the product gives, and a 0-d array,
    owned or not, the same bits."""
    with np.errstate(all="ignore"):
        for x in _SIGNED_BASES:
            want = _sign_times_magnitude(x, k, alpha)
            got = _pow_alpha(float(x), k, alpha)
            assert type(got) is np.float64
            _same_bits_or_nan(got, want)
            _same_bits_or_nan(_pow_alpha(np.array(x), k, alpha), want)
            _same_bits_or_nan(_pow_alpha(np.array(x), k, alpha, owned=True), want)


def test_pow_alpha_holds_one_array():
    """A signed power of a base that is not owned makes one new array (and
    boolean masks); it used to make |base| and sign(base)."""
    base = np.linspace(-1.0, 1.0, 10_000)
    _pow_alpha(base, 1.0, 0.5)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _pow_alpha(base, 1.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * base.nbytes


# --------------------------------------------------- no reference cycles


@pytest.mark.parametrize(
    "call",
    [
        lambda: FunctionSpec.from_text("abs(x - 0.3)^(a)*(x + 1)^(0.5) - abs(2*x)").singular_points(),
        lambda: normal_form(parse("3*x^(2a) - (x - 0)^(a)/2 + 1"), 0.0, None,
                            AlphaContext(alpha=0.5)),
        lambda: pretty(parse("-abs(x - 0.3)^(a)*(x + 1)/2")),
    ],
    ids=["singular_points", "normalize", "pretty"],
)
def test_recursive_helpers_leave_no_cycle(call):
    """Each call frees all it made without the cyclic collector: a closure
    that calls itself would leave a cycle behind."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
