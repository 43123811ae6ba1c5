"""Tiny expression language for functions of x (or of u, v) with alpha-powers.

Grammar (whitespace insignificant, offsets are 0-based character positions):

    expr     := term  (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ['^' exponent]
    exponent := '(' signed ')' | 'a' | number      -- parens optional for a
    signed   := ['-'] number [['*'] 'a'] | number 'a' | 'a'
    atom     := number | name | 'abs' '(' expr ')' | '(' expr ')'

The letter ``a`` denotes the fractal order alpha and is only meaningful in
an exponent; ``k*a`` (also written ``ka``) is the alpha-multiple exponent.
Arity-1 expressions may reference ``x``; arity-2 expressions ``u`` and
``v``.  Any other name must be supplied as a bound constant, otherwise
parsing fails.  All parse errors carry the offending offset.

Evaluation uses magnitude semantics for alpha-powers:

* ``base^(k*a)``   -> ``sign(base)**k * |base|**(k*alpha)`` (odd extension
  when k is not an integer),
* ``base^(r)`` for integer r -> the ordinary real power,
* ``base^(r)`` for fractional r -> ``sign(base) * |base|**r``.

So ``x^(2a)`` is the even function |x|^(2 alpha) -- at alpha = 1 it *is*
x^2 on the whole line -- while ``x^(a)`` is odd.

:func:`normalize` rewrites an expression as a generalized polynomial about
a base point s,

    f(x) = sum_k c_k * |x - s|**(k*alpha),

(:class:`GPoly`), which is what the exact integration and differentiation
rules consume.  Expressions outside that form raise :class:`NotPolynomial`.
The representation agrees with the source expression pointwise for x >= s,
which is the half-line the exact rules integrate over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from .fractal_scalar import AlphaContext

__all__ = [
    "ParseError",
    "EvalError",
    "NotPolynomial",
    "Num",
    "Name",
    "Neg",
    "Abs",
    "Bin",
    "Pow",
    "ExpLiteral",
    "ExpAlpha",
    "ExprAst",
    "GPoly",
    "parse",
    "pretty",
    "evaluate",
    "evaluate_raw",
    "normalize",
    "FunctionSpec",
    "EtaSpec",
    "WeightSpec",
]


class ParseError(ValueError):
    """Parse failure; ``offset`` is the character position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class EvalError(RuntimeError):
    """Runtime evaluation failure (division by zero, non-finite value...)."""

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class NotPolynomial(ValueError):
    """Expression has no generalized-polynomial form about the base point."""


# --- AST ------------------------------------------------------------------
# ``pos`` fields locate nodes in the source for error messages; they do not
# participate in equality, so structurally identical parses compare equal.


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Name:
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Abs:
    child: "ExprAst"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "ExprAst"
    right: "ExprAst"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class ExpLiteral:
    value: float


@dataclass(frozen=True)
class ExpAlpha:
    k: float  # nonnegative multiple of the order symbol


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exp: Union[ExpLiteral, ExpAlpha]
    pos: int = field(default=-1, compare=False)


ExprAst = Union[Num, Name, Neg, Abs, Bin, Pow]


# --- tokenizer ------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kinds: num, ident, op, end."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tok = text[i:j]
            try:
                float(tok)
            except ValueError:
                raise ParseError(f"syntax error at offset {i}: bad number {tok!r}", i)
            out.append(("num", tok, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"syntax error at offset {i}: unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


# --- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, variables: frozenset[str], constants: frozenset[str]):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.variables = variables
        self.constants = constants

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, what: str, offset: int):
        raise ParseError(f"syntax error at offset {offset}: {what}", offset)

    def expect_op(self, op: str):
        kind, tok, off = self.peek()
        if kind == "op" and tok == op:
            self.next()
            return
        self.fail(f"expected {op!r}", off)

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, tok, off = self.peek()
        if kind != "end":
            self.fail(f"unexpected {tok!r}", off)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, tok, off = self.peek()
            if kind == "op" and tok in "+-":
                self.next()
                node = Bin(tok, node, self.term(), off)
            else:
                return node

    def term(self) -> ExprAst:
        node = self.factor()
        while True:
            kind, tok, off = self.peek()
            if kind == "op" and tok in "*/":
                self.next()
                node = Bin(tok, node, self.factor(), off)
            else:
                return node

    def factor(self) -> ExprAst:
        kind, tok, off = self.peek()
        if kind == "op" and tok == "-":
            self.next()
            return Neg(self.factor(), off)
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        kind, tok, off = self.peek()
        if kind == "op" and tok == "^":
            self.next()
            exp = self.exponent()
            return Pow(node, exp, off)
        return node

    def exponent(self) -> Union[ExpLiteral, ExpAlpha]:
        kind, tok, off = self.peek()
        if kind == "op" and tok == "(":
            self.next()
            exp = self.signed_exponent()
            self.expect_op(")")
            return exp
        # Parens may be dropped for a single-token exponent: 2^a, x^2.
        if kind == "ident" and tok == "a":
            self.next()
            return ExpAlpha(1.0)
        if kind == "num":
            self.next()
            return ExpLiteral(float(tok))
        self.fail("expected exponent", off)

    def signed_exponent(self) -> Union[ExpLiteral, ExpAlpha]:
        kind, tok, off = self.peek()
        sign = 1.0
        if kind == "op" and tok == "-":
            self.next()
            sign = -1.0
            kind, tok, off = self.peek()
        if kind == "ident" and tok == "a":
            if sign < 0:
                self.fail("alpha multiple must be nonnegative", off)
            self.next()
            return ExpAlpha(1.0)
        if kind == "num":
            self.next()
            value = sign * float(tok)
            kind2, tok2, off2 = self.peek()
            if kind2 == "op" and tok2 == "*":
                save = self.i
                self.next()
                kind3, tok3, off3 = self.peek()
                if kind3 == "ident" and tok3 == "a":
                    self.next()
                    if value < 0:
                        self.fail("alpha multiple must be nonnegative", off)
                    return ExpAlpha(value)
                self.i = save  # the '*' belonged to an enclosing term
            elif kind2 == "ident" and tok2 == "a":
                self.next()
                if value < 0:
                    self.fail("alpha multiple must be nonnegative", off)
                return ExpAlpha(value)
            return ExpLiteral(value)
        self.fail("expected exponent", off)

    def atom(self) -> ExprAst:
        kind, tok, off = self.next()
        if kind == "num":
            return Num(float(tok), off)
        if kind == "op" and tok == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if tok == "abs":
                self.expect_op("(")
                node = self.expr()
                self.expect_op(")")
                return Abs(node, off)
            if tok == "a":
                self.fail("the order symbol 'a' is only valid in an exponent", off)
            if tok in self.variables or tok in self.constants:
                return Name(tok, off)
            raise ParseError(f"unbound name {tok!r} at offset {off}", off)
        self.fail(f"unexpected {tok!r}" if tok else "unexpected end of input", off)


_ARITY_VARS = {1: frozenset({"x"}), 2: frozenset({"u", "v"})}


def parse(text: str, arity: int = 1, constants=()) -> ExprAst:
    """Parse ``text`` into an AST.

    ``arity`` selects the variable set (1 -> {x}, 2 -> {u, v});
    ``constants`` lists additional names that will be bound at evaluation
    time.  Raises :class:`ParseError` with an offset otherwise.
    """
    if arity not in _ARITY_VARS:
        raise ValueError(f"arity must be 1 or 2, got {arity!r}")
    return _Parser(text, _ARITY_VARS[arity], frozenset(constants)).parse()


# --- pretty printer -------------------------------------------------------


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_exp(exp: Union[ExpLiteral, ExpAlpha]) -> str:
    if isinstance(exp, ExpAlpha):
        return "a" if exp.k == 1.0 else f"{_fmt_float(exp.k)}*a"
    return _fmt_float(exp.value)


def pretty(node: ExprAst) -> str:
    """Canonical text form; re-parses to an equal tree (pos ignored)."""

    def go(n: ExprAst, prec: int) -> str:
        if isinstance(n, Num):
            s = _fmt_float(n.value)
            return f"({s})" if n.value < 0 and prec >= 3 else s
        if isinstance(n, Name):
            return n.name
        if isinstance(n, Abs):
            return f"abs({go(n.child, 0)})"
        if isinstance(n, Neg):
            inner = go(n.child, 2)
            s = f"-{inner}"
            return f"({s})" if prec >= 2 else s
        if isinstance(n, Pow):
            base = go(n.base, 3)
            if isinstance(n.base, (Bin, Neg, Pow)):
                base = f"({go(n.base, 0)})"
            return f"{base}^({_fmt_exp(n.exp)})"
        if isinstance(n, Bin):
            my = 1 if n.op in "+-" else 2
            left = go(n.left, my)
            right = go(n.right, my + 1)
            sep = f" {n.op} " if my == 1 else n.op
            s = f"{left}{sep}{right}"
            return f"({s})" if prec > my else s
        raise TypeError(f"not an expression node: {n!r}")

    return go(node, 0)


# --- evaluation -----------------------------------------------------------


def _is_near_int(v: float, tol: float = 1e-9) -> bool:
    return abs(v - round(v)) <= tol


def _pow_alpha(base, k: float, alpha: float, pos: int):
    """base^(k*alpha) in magnitude semantics (sign rules in module doc)."""
    mag = np.abs(base) ** (k * alpha)
    if _is_near_int(k) and int(round(k)) % 2 == 0:
        return mag
    return np.sign(base) * mag


def _pow_literal(base, r: float, pos: int):
    if _is_near_int(r):
        n = int(round(r))
        if n < 0 and np.any(np.asarray(base) == 0.0):
            raise EvalError(f"zero raised to negative power at offset {pos}", pos)
        return np.asarray(base, dtype=float) ** n
    if r < 0 and np.any(np.asarray(base) == 0.0):
        raise EvalError(f"zero raised to negative power at offset {pos}", pos)
    return np.sign(base) * np.abs(base) ** r


def _eval(n: ExprAst, env, params, alpha: float):
    """Recursive worker of ``evaluate_raw``.

    A module-level function rather than a closure: a closure that calls
    itself is a reference cycle, and the cycle would keep ``env`` (and so
    every input array) alive until the cyclic garbage collector runs.
    """
    if isinstance(n, Num):
        return n.value
    if isinstance(n, Name):
        if n.name in env:
            return env[n.name]
        if n.name in params:
            return float(params[n.name])
        raise EvalError(f"unbound name {n.name!r} at offset {n.pos}", n.pos)
    if isinstance(n, Neg):
        return -_eval(n.child, env, params, alpha)
    if isinstance(n, Abs):
        return np.abs(_eval(n.child, env, params, alpha))
    if isinstance(n, Pow):
        base = _eval(n.base, env, params, alpha)
        if isinstance(n.exp, ExpAlpha):
            return _pow_alpha(base, n.exp.k, alpha, n.pos)
        return _pow_literal(base, n.exp.value, n.pos)
    if isinstance(n, Bin):
        lhs = _eval(n.left, env, params, alpha)
        rhs = _eval(n.right, env, params, alpha)
        if n.op == "+":
            return lhs + rhs
        if n.op == "-":
            return lhs - rhs
        if n.op == "*":
            return lhs * rhs
        if np.any(np.asarray(rhs) == 0.0):
            raise EvalError(f"division by zero at offset {n.pos}", n.pos)
        return lhs / rhs
    raise TypeError(f"not an expression node: {n!r}")


def evaluate_raw(
    node: ExprAst,
    env: Mapping[str, Union[float, np.ndarray]],
    ctx: AlphaContext,
    params: Optional[Mapping[str, float]] = None,
):
    """Evaluate to a float or ndarray (broadcasting over array inputs)."""
    out = _eval(node, env, params or {}, ctx.alpha)
    if not np.all(np.isfinite(out)):
        raise EvalError("non-finite value in evaluation")
    return out


def evaluate(
    node: ExprAst,
    args: Mapping[str, float],
    ctx: AlphaContext,
    params: Optional[Mapping[str, float]] = None,
) -> float:
    """Evaluate at scalar arguments to a float."""
    return float(evaluate_raw(node, args, ctx, params))


# --- generalized polynomial form ------------------------------------------


@dataclass(frozen=True)
class GPoly:
    """f(x) = sum of c_k * |x - s|**(k*alpha), keys sorted ascending."""

    s: float
    alpha: float
    terms: tuple[tuple[int, float], ...]

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        base = np.abs(x - self.s)
        out = np.zeros_like(base)
        for k, c in self.terms:
            out = out + c * base ** (k * self.alpha)
        return out if out.shape else float(out)


def _pmul(p: dict[int, float], q: dict[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            out[k1 + k2] = out.get(k1 + k2, 0.0) + c1 * c2
    return out


def _ppow(p: dict[int, float], n: int) -> dict[int, float]:
    out = {0: 1.0}
    for _ in range(n):
        out = _pmul(out, p)
    return out


def _affine(n: ExprAst, params: Mapping[str, float]) -> Optional[tuple[float, float]]:
    """Read n as u*x + w with ordinary real coefficients, else None."""
    if isinstance(n, Num):
        return (0.0, n.value)
    if isinstance(n, Name):
        if n.name in params:
            return (0.0, float(params[n.name]))
        return (1.0, 0.0) if n.name == "x" else None
    if isinstance(n, Neg):
        uw = _affine(n.child, params)
        return None if uw is None else (-uw[0], -uw[1])
    if isinstance(n, Abs):
        uw = _affine(n.child, params)
        if uw is not None and uw[0] == 0.0:
            return (0.0, abs(uw[1]))
        return None
    if isinstance(n, Bin):
        lp, rp = _affine(n.left, params), _affine(n.right, params)
        if lp is None or rp is None:
            return None
        if n.op == "+":
            return (lp[0] + rp[0], lp[1] + rp[1])
        if n.op == "-":
            return (lp[0] - rp[0], lp[1] - rp[1])
        if n.op == "*":
            if lp[0] == 0.0:
                return (lp[1] * rp[0], lp[1] * rp[1])
            if rp[0] == 0.0:
                return (rp[1] * lp[0], rp[1] * lp[1])
            return None
        if rp[0] == 0.0 and rp[1] != 0.0:
            return (lp[0] / rp[1], lp[1] / rp[1])
        return None
    return None


def normalize(
    node: ExprAst,
    s: float,
    ctx: AlphaContext,
    params: Optional[Mapping[str, float]] = None,
) -> GPoly:
    """Rewrite an arity-1 expression as a GPoly about the base point s.

    Handles constants, sums, products, quotients by constants,
    alpha-multiple powers of (scaled) linear arguments, and integer powers.
    Raises :class:`NotPolynomial` for anything else (abs of a sum, division
    by a non-constant, non-integer multiples of a, alpha-powers of
    non-monomial bases...).  The result agrees with the source expression
    for x >= s.
    """
    alpha = ctx.alpha
    params = params or {}

    def const_of(p: dict[int, float]) -> Optional[float]:
        if not p:
            return 0.0
        if set(p) == {0}:
            return p[0]
        return None

    def monomial_pow(n: Pow) -> Optional[dict[int, float]]:
        """Power of a pure linear base u*(x - s): valid for any alpha."""
        uw = _affine(n.base, params)
        if uw is None:
            return None
        u, w = uw
        if u == 0.0:
            return None  # constant bases are handled by the callers
        resid = u * s + w  # the base value at x = s
        if abs(resid) > 1e-14 * max(1.0, abs(u * s), abs(w)):
            return None
        if isinstance(n.exp, ExpAlpha):
            k = n.exp.k
            if not _is_near_int(k):
                return None
            coeff = float(_pow_alpha(u, k, alpha, n.pos))
            return {int(round(k)): coeff}
        r = n.exp.value
        i = r / alpha
        if r < 0 or not _is_near_int(i):
            return None
        coeff = float(_pow_literal(u, r, n.pos))
        return {int(round(i)): coeff}

    def go(n: ExprAst) -> dict[int, float]:
        if isinstance(n, Num):
            return {0: n.value}
        if isinstance(n, Name):
            if n.name in params:
                return {0: float(params[n.name])}
            if n.name != "x":
                raise NotPolynomial(f"name {n.name!r} is not a bound constant")
            # the variable x itself: x = s + |x-s|**(m*alpha) for x >= s
            m = 1.0 / alpha
            if not _is_near_int(m):
                raise NotPolynomial(
                    f"bare variable needs 1/alpha integral (alpha={alpha!r})"
                )
            out = {int(round(m)): 1.0}
            if s != 0.0:
                out[0] = s
            return out
        if isinstance(n, Neg):
            return {k: -c for k, c in go(n.child).items()}
        if isinstance(n, Abs):
            p = go(n.child)
            cv = const_of(p)
            if cv is not None:
                return {0: abs(cv)}
            if len(p) == 1:
                ((k, c),) = p.items()
                return {k: abs(c)}
            raise NotPolynomial("abs of a non-monomial has no polynomial form")
        if isinstance(n, Bin):
            p = go(n.left)
            q = go(n.right)
            if n.op == "+":
                for k, c in q.items():
                    p[k] = p.get(k, 0.0) + c
                return p
            if n.op == "-":
                for k, c in q.items():
                    p[k] = p.get(k, 0.0) - c
                return p
            if n.op == "*":
                return _pmul(p, q)
            d = const_of(q)
            if d is None:
                raise NotPolynomial("division by a non-constant")
            if d == 0.0:
                raise NotPolynomial("division by zero constant")
            return {k: c / d for k, c in p.items()}
        if isinstance(n, Pow):
            mono = monomial_pow(n)
            if mono is not None:
                return mono
            p = go(n.base)
            cv = const_of(p)
            if isinstance(n.exp, ExpLiteral):
                r = n.exp.value
                if cv is not None:
                    return {0: float(_pow_literal(cv, r, n.pos))}
                if _is_near_int(r) and r >= 0:
                    return _ppow(p, int(round(r)))
                raise NotPolynomial("fractional or negative literal power of a non-constant")
            k = n.exp.k
            if cv is not None:
                return {0: float(_pow_alpha(cv, k, alpha, n.pos))}
            if _is_near_int(k):
                ki = int(round(k))
                deg = k * alpha
                if _is_near_int(deg) and (ki - int(round(deg))) % 2 == 0:
                    return _ppow(p, int(round(deg)))
            if len(p) == 1:
                ((j, u),) = p.items()
                i = j * k * alpha
                if _is_near_int(i):
                    coeff = float(_pow_alpha(u, k, alpha, n.pos))
                    return {int(round(i)): coeff}
            raise NotPolynomial(
                "alpha-power applies only to constants and (scaled) monomials"
            )
        raise TypeError(f"not an expression node: {n!r}")

    raw = go(node)
    terms = tuple(sorted((k, c) for k, c in raw.items() if c != 0.0))
    for k, _ in terms:
        if k < 0:
            raise NotPolynomial("negative generalized degree")
    return GPoly(float(s), alpha, terms)


# --- bound specs ----------------------------------------------------------


def _as_env_shape(out, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(out, dtype=float)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape).copy()
    return arr


@dataclass(frozen=True)
class FunctionSpec:
    """A parsed arity-1 expression with its domain and bound constants."""

    text: str
    ast: ExprAst = field(compare=False)
    domain: Optional[tuple[float, float]] = None
    params: tuple[tuple[str, float], ...] = ()

    @classmethod
    def from_text(
        cls,
        text: str,
        domain: Optional[tuple[float, float]] = None,
        params: Optional[Mapping[str, float]] = None,
    ) -> "FunctionSpec":
        items = tuple(sorted((params or {}).items()))
        ast = parse(text, arity=1, constants=[k for k, _ in items])
        dom = (float(domain[0]), float(domain[1])) if domain is not None else None
        return cls(text=text, ast=ast, domain=dom, params=items)

    def _params(self) -> dict[str, float]:
        return dict(self.params)

    def evaluate(self, x: float, ctx: AlphaContext) -> float:
        return float(evaluate_raw(self.ast, {"x": float(x)}, ctx, self._params()))

    def evaluate_many(self, xs: np.ndarray, ctx: AlphaContext) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return _as_env_shape(evaluate_raw(self.ast, {"x": xs}, ctx, self._params()), xs.shape)

    def gpoly(self, s: float, ctx: AlphaContext) -> GPoly:
        return normalize(self.ast, s, ctx, self._params())

    def singular_points(self) -> tuple[float, ...]:
        """Abscissae where f may have a kink, sorted.

        These are the zeros of the affine arguments of ``abs(...)`` and of
        alpha-multiple or non-integer powers; arguments that are not affine
        in x contribute nothing.
        """
        params = self._params()
        found: set[float] = set()

        def walk(n: ExprAst) -> None:
            if isinstance(n, (Abs, Pow)):
                arg = n.child if isinstance(n, Abs) else n.base
                if not (isinstance(n, Pow) and isinstance(n.exp, ExpLiteral)
                        and _is_near_int(n.exp.value)):
                    uw = _affine(arg, params)
                    if uw is not None and uw[0] != 0.0:
                        found.add(-uw[1] / uw[0])
                walk(arg)
            elif isinstance(n, Neg):
                walk(n.child)
            elif isinstance(n, Bin):
                walk(n.left)
                walk(n.right)

        walk(self.ast)
        return tuple(sorted(found))


class WeightSpec(FunctionSpec):
    """Arity-1 weight function; same mechanics as FunctionSpec."""


@dataclass(frozen=True)
class EtaSpec:
    """A parsed arity-2 expression eta(u, v) with bound constants."""

    text: str
    ast: ExprAst = field(compare=False)
    params: tuple[tuple[str, float], ...] = ()

    @classmethod
    def from_text(
        cls, text: str, params: Optional[Mapping[str, float]] = None
    ) -> "EtaSpec":
        items = tuple(sorted((params or {}).items()))
        ast = parse(text, arity=2, constants=[k for k, _ in items])
        return cls(text=text, ast=ast, params=items)

    def _params(self) -> dict[str, float]:
        return dict(self.params)

    def evaluate(self, u: float, v: float, ctx: AlphaContext) -> float:
        env = {"u": float(u), "v": float(v)}
        return float(evaluate_raw(self.ast, env, ctx, self._params()))

    def evaluate_many(self, us, vs, ctx: AlphaContext) -> np.ndarray:
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        out = evaluate_raw(self.ast, {"u": us, "v": vs}, ctx, self._params())
        return _as_env_shape(out, np.broadcast_shapes(us.shape, vs.shape))
