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
parsing fails.  An expression may nest at most ``_MAX_DEPTH`` (64) levels
deep.  All parse errors carry the offending offset.

Evaluation uses magnitude semantics for alpha-powers:

* ``base^(k*a)``   -> ``sign(base)**k * |base|**(k*alpha)`` (odd extension
  when k is not an integer),
* ``base^(r)`` for integer r -> the ordinary real power,
* ``base^(r)`` for fractional r -> ``sign(base) * |base|**r``.

So ``x^(2a)`` is the even function |x|^(2 alpha) -- at alpha = 1 it *is*
x^2 on the whole line -- while ``x^(a)`` is odd.

:func:`normal_form` rewrites an expression as a generalized polynomial.
On [a, b] it gives the two-endpoint form

    f(x) = sum_{k, j} c_kj * (x - a)**(k*alpha) * (b - x)**(j*alpha),

and with no right endpoint (b = None) the half-line form about a, whose
keys are all (k, 0) and which agrees with the expression for x >= a.  The
exact integrals read the two-endpoint form, and the exact derivative the
half-line form about its base point.  Expressions outside them raise
:class:`NotPolynomial`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Union

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
    "parse",
    "pretty",
    "evaluate_raw",
    "normal_form",
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
    """No exact value: no generalized-polynomial form, or an unearned sum."""


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

# Deepest accepted nesting: open parentheses and abs groups while parsing,
# and levels of the finished tree, where n chained binary operators or unary
# minuses nest n deep.  At the cap the parser (six frames a group) and each
# tree walk (repr and == included) need about 400 frames, two fifths of
# Python's default limit.  Each group ``pretty`` writes encloses a tree
# level of its own, so its text nests no deeper than its tree.
_MAX_DEPTH = 64


def _check_depth(node: ExprAst) -> None:
    """A ParseError unless ``node``'s tree nests at most ``_MAX_DEPTH``
    levels.  The tree is walked one level at a time, without recursion."""
    level = [node]
    for _ in range(_MAX_DEPTH):
        level = [c for n in level for c in
                 ((n.left, n.right) if type(n) is Bin else (n.base,) if type(n) is Pow
                  else (n.child,) if type(n) is Neg or type(n) is Abs else ())]
        if not level:
            return
    offset = level[0].pos
    raise ParseError(f"syntax error at offset {offset}: nesting deeper than {_MAX_DEPTH} levels",
                     offset)


class _Parser:
    def __init__(self, text: str, variables: frozenset[str], constants: frozenset[str]):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.variables = variables
        self.constants = constants
        self.open = 0  # groups the parser is inside

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

    def group(self, offset: int) -> ExprAst:
        """The expression in the group opened at ``offset``, and its ')'."""
        self.open += 1
        if self.open > _MAX_DEPTH:
            self.fail(f"nesting deeper than {_MAX_DEPTH} levels", offset)
        node = self.expr()
        self.expect_op(")")
        self.open -= 1
        return node

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, tok, off = self.peek()
        if kind != "end":
            self.fail(f"unexpected {tok!r}", off)
        # Each node has a token of its own, so only a longer text can nest too deep.
        if len(self.toks) > _MAX_DEPTH:
            _check_depth(node)
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
        signs = []  # a loop, not a recursion: "----x" costs no stack
        while self.peek()[1] == "-":  # only an operator token reads "-"
            signs.append(self.next()[2])
        node = self.power()
        while signs:
            node = Neg(node, signs.pop())
        return node

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
            return self.group(off)
        if kind == "ident":
            if tok == "abs":
                self.expect_op("(")
                return Abs(self.group(off), off)
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
    return _pretty(node, 0)


def _pretty(n: ExprAst, prec: int) -> str:
    """``n`` as text inside an operator of precedence ``prec``.

    This recursion, and the other ones of this module, are module-level
    functions: a closure that calls itself is a reference cycle, which
    lives until the cyclic garbage collector runs.
    """
    if isinstance(n, Num):
        s = _fmt_float(n.value)
        return f"({s})" if n.value < 0 and prec >= 3 else s
    if isinstance(n, Name):
        return n.name
    if isinstance(n, Abs):
        return f"abs({_pretty(n.child, 0)})"
    if isinstance(n, Neg):
        inner = _pretty(n.child, 2)
        s = f"-{inner}"
        return f"({s})" if prec >= 2 else s
    if isinstance(n, Pow):
        base = _pretty(n.base, 3)
        if isinstance(n.base, (Bin, Neg, Pow)):
            base = f"({_pretty(n.base, 0)})"
        return f"{base}^({_fmt_exp(n.exp)})"
    if isinstance(n, Bin):
        my = 1 if n.op in "+-" else 2
        left = _pretty(n.left, my)
        right = _pretty(n.right, my + 1)
        sep = f" {n.op} " if my == 1 else n.op
        s = f"{left}{sep}{right}"
        return f"({s})" if prec > my else s
    raise TypeError(f"not an expression node: {n!r}")


# --- evaluation -----------------------------------------------------------


def _is_near_int(v: float) -> bool:
    return abs(v - round(v)) <= 1e-9


def _pow_alpha(base, k: float, alpha: float, owned: bool = False):
    """base^(k*alpha) in magnitude semantics (sign rules in module doc).

    |base| is taken once and raised with ``**=``, which keeps the fast
    paths of numpy's ``**`` (0.5 -> sqrt, 2 -> square).  The result is one
    array, |base| raised in place: an ``owned`` base (see :func:`_owned`)
    receives it, and any other base costs one new array.  An odd or
    non-integer k negates the entries whose base is below zero through a
    boolean mask, and gives each entry the bits of sign(base) * |base|**p:
    -0.0 gives +0.0 (sign(-0.0) is +0.0), and a zero to a negative power
    gives NaN (0 * inf).  A NaN base gives a NaN; the product left its sign
    bit to numpy's multiply loop.  Scalars, 0-d arrays (whose np.abs is a
    scalar) and p == 0 (where a NaN base gives NaN, while NaN**0 is 1) take
    that product itself, and scalars give the numpy scalars it gives.
    """
    p = k * alpha
    if _is_near_int(k) and int(round(k)) % 2 == 0:
        mag = np.abs(base, out=base) if owned else np.abs(base)
        mag **= p
        return mag
    if type(base) is not np.ndarray or base.ndim == 0 or p == 0.0:
        mag = np.abs(base) ** p
        sign = np.sign(base, out=base) if owned else np.sign(base)
        sign *= mag
        return sign
    neg = base < 0.0
    zero = base == 0.0 if p < 0.0 else None
    mag = np.abs(base, out=base) if owned else np.abs(base)
    mag **= p
    np.negative(mag, out=mag, where=neg)
    if zero is not None:
        np.multiply(mag, 0.0, out=mag, where=zero)  # |0|**p is inf
    return mag


def _pow_literal(base, r: float, pos: int, owned: bool = False):
    """base^(r): the real power for integer r, else sign(base)*|base|**r.

    Zero to a negative power is an :class:`EvalError`, raised before any
    array is written.  An ``owned`` base receives the result.
    """
    if _is_near_int(r):
        n = int(round(r))
        if n < 0 and np.any(np.asarray(base) == 0.0):
            raise EvalError(f"zero raised to negative power at offset {pos}", pos)
        if owned:
            base **= n
            return base
        return np.asarray(base, dtype=float) ** n
    if r < 0 and np.any(np.asarray(base) == 0.0):
        raise EvalError(f"zero raised to negative power at offset {pos}", pos)
    return _pow_alpha(base, r, 1.0, owned)  # r is not an integer: sign(base)*|base|**r


_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_F64 = np.dtype(np.float64)


def _owned(n: ExprAst, value) -> bool:
    """Whether ``value``, the value of node ``n``, may be written in place.

    Every operator returns a new array for array operands, so the value of
    a non-leaf node is an array that only its parent holds; leaves hand
    back inputs (env arrays) and are never written.
    """
    return (type(value) is np.ndarray and value.dtype is _F64
            and type(n) is not Name and type(n) is not Num)


def _fits(target: np.ndarray, other) -> bool:
    """Whether ``target op other`` has the target's shape and dtype."""
    if isinstance(other, float):
        return True
    return type(other) is np.ndarray and other.dtype is _F64 and other.shape == target.shape


def _eval(n: ExprAst, env, params, alpha: float):
    """Recursive worker of ``evaluate_raw``.

    An operator writes its result with ``out=`` into an array one of its
    operand nodes made (see :func:`_owned`) when that array already has the
    result's shape and dtype, so a walk holds a few arrays at a time
    instead of one per node.  The ufuncs and their operand order are those
    of the plain operators, so the values are the same bit for bit.
    Broadcast shapes, scalars and leaves take the allocating operators.
    Measured against the plain operators everywhere: the quadrature's
    seed-1 peak rose from 114,267 to 145,379 B, in ``fejer``
    (``tools/case_peaks.py --stages``); no workload's time moved.

    A module-level function rather than a closure: a closure that calls
    itself is a reference cycle, and the cycle would keep ``env`` (and so
    every input array) alive until the cyclic garbage collector runs.
    """
    kind = type(n)
    if kind is Name:
        if n.name in env:
            return env[n.name]
        if n.name in params:
            return float(params[n.name])
        raise EvalError(f"unbound name {n.name!r} at offset {n.pos}", n.pos)
    if kind is Num:
        return n.value
    if kind is Bin:
        lhs = _eval(n.left, env, params, alpha)
        rhs = _eval(n.right, env, params, alpha)
        if n.op == "/" and np.any(np.asarray(rhs) == 0.0):
            raise EvalError(f"division by zero at offset {n.pos}", n.pos)
        if type(lhs) is np.ndarray or type(rhs) is np.ndarray:
            if _owned(n.left, lhs) and _fits(lhs, rhs):
                return _UFUNCS[n.op](lhs, rhs, out=lhs)
            if _owned(n.right, rhs) and _fits(rhs, lhs):
                return _UFUNCS[n.op](lhs, rhs, out=rhs)
        if n.op == "+":
            return lhs + rhs
        if n.op == "-":
            return lhs - rhs
        if n.op == "*":
            return lhs * rhs
        return lhs / rhs
    if kind is Pow:
        base = _eval(n.base, env, params, alpha)
        owned = _owned(n.base, base)
        if type(n.exp) is ExpAlpha:
            p = n.exp.k * alpha
            if type(n.base) is Abs and p > 0.0:
                # base >= +0, so sign(base) is 0 or 1 and 0**p == 0.
                if owned:
                    base **= p
                    return base
                return base**p
            return _pow_alpha(base, n.exp.k, alpha, owned)
        return _pow_literal(base, n.exp.value, n.pos, owned)
    if kind is Abs:
        child = _eval(n.child, env, params, alpha)
        if _owned(n.child, child):
            return np.abs(child, out=child)
        return np.abs(child)
    if kind is Neg:
        child = _eval(n.child, env, params, alpha)
        if _owned(n.child, child):
            return np.negative(child, out=child)
        return -child
    raise TypeError(f"not an expression node: {n!r}")


def evaluate_raw(
    node: ExprAst,
    env: Mapping[str, Union[float, np.ndarray]],
    ctx: AlphaContext,
    params: Optional[Mapping[str, float]] = None,
):
    """Evaluate to a float or ndarray (broadcasting over array inputs).

    This is the walk behind ``FunctionSpec.evaluate_many`` and
    ``EtaSpec.evaluate_many``, through which every value of f, eta and w
    is computed.  An array result is a new array, except for a bare
    variable, whose value is its input.
    """
    out = _eval(node, env, params or {}, ctx.alpha)
    if not (np.isfinite(out).all() if isinstance(out, np.ndarray) else math.isfinite(out)):
        raise EvalError("non-finite value in evaluation")
    return out


def _monotone_dirs(
    n: ExprAst, params: Mapping[str, float], alpha: float
) -> Optional[tuple[int, int]]:
    """Directions (du, dv) in {-1, 0, 1} in which the float-evaluated arity-2
    expression is monotone in u and in v, or None when no rule applies.

    Sums and differences of u, v and constants qualify, as do their
    products with, and quotients by, a constant subtree whose value is
    finite and nonzero; ``abs`` and powers count only as parts of a
    constant subtree, which gives (0, 0).  ``convexity.estimate_eta_sup``
    says why the float evaluation of such an expression stays monotone.
    """
    if isinstance(n, Num):
        return (0, 0)
    if isinstance(n, Name):
        if n.name == "u":
            return (1, 0)
        if n.name == "v":
            return (0, 1)
        return (0, 0) if n.name in params else None
    if isinstance(n, Neg):
        d = _monotone_dirs(n.child, params, alpha)
        return None if d is None else (-d[0], -d[1])
    if isinstance(n, (Abs, Pow)):
        child = n.child if isinstance(n, Abs) else n.base
        return (0, 0) if _monotone_dirs(child, params, alpha) == (0, 0) else None
    if not isinstance(n, Bin):
        return None
    left = _monotone_dirs(n.left, params, alpha)
    right = _monotone_dirs(n.right, params, alpha)
    if left is None or right is None:
        return None
    if n.op in "+-":
        if n.op == "-":
            right = (-right[0], -right[1])
        if left[0] * right[0] < 0 or left[1] * right[1] < 0:
            return None
        return (left[0] or right[0], left[1] or right[1])
    if n.op == "*" and left == (0, 0):
        const, dirs = n.left, right
    elif right == (0, 0):
        const, dirs = n.right, left
    else:
        return None
    try:
        k = float(_eval(const, {}, params, alpha))
    except EvalError:
        return None
    if not math.isfinite(k) or k == 0.0:
        return None
    return dirs if k > 0.0 else (-dirs[0], -dirs[1])


# --- generalized polynomial form ------------------------------------------


#: The normal form {(k, j): c} of sum c * (x - a)**(k*alpha) * (b - x)**(j*alpha)
#: on [a, b]; the half-line form about a has j = 0 throughout.
Form = dict[tuple[int, int], float]


class _Frame(NamedTuple):
    """What the normal-form walker reads besides the node."""

    a: float
    b: Optional[float]  # None: the half-line form about a
    alpha: float
    params: Mapping[str, float]
    names: Mapping[str, Form]  # forms of variables other than x: eta's u and v


def _pmul(p: Form, q: Form) -> Form:
    out: Form = {}
    for (k1, j1), c1 in p.items():
        for (k2, j2), c2 in q.items():
            key = (k1 + k2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


# Gamma(1 + d) overflows a float once d passes 170.6243....  For each term,
# every exact rule reads a Gamma at least that large of p = k*alpha and of
# q = j*alpha (the Beta table's Gamma(p+q+alpha+1), m1's Gamma(p+1) and
# Gamma(q+3*alpha+1), the derivative's Gamma(1+p)), so no term whose p or q
# passes this bound gives an exact value.
_MAX_DEGREE = 170.625

# The most term products (``_pmul``'s inner steps, about 0.3 us each on a
# 2-vCPU VM) that an expanded power may take.  The largest expansion an
# exact rule reads in the tests and the benchmark workloads takes 116,622.
_MAX_PRODUCTS = 2**20


def _products(p: Form, n: int) -> int:
    """An upper bound on the term products of p**n, taken by n ``_pmul``.

    The i-th multiplies p's m terms by those of p**i: at most the
    C(i + m - 1, m - 1) multisets of i keys of p, and at most the
    (i K + 1)(i J + 1) keys that sums of i keys reach, where K and J are
    the spreads of p's k and j.  Each bound summed over i < n has a closed
    form."""
    m = len(p)
    ks, js = [k for k, _ in p], [j for _, j in p]
    K, J = max(ks) - min(ks), max(js) - min(js)
    box = K * J * (n - 1) * n * (2 * n - 1) // 6 + (K + J) * n * (n - 1) // 2 + n
    return m * min(math.comb(n + m - 1, m), box)


def _ppow(p: Form, n: int, alpha: float) -> Form:
    """p**n, multiplied out: O(n**2) term products for two or more terms,
    so a power whose top term would pass ``_MAX_DEGREE`` (two or more
    nonzero terms), or whose expansion could take more than
    ``_MAX_PRODUCTS`` term products, raises NotPolynomial first."""
    keys = [key for key, c in p.items() if c != 0.0]
    top = n * max(map(max, keys), default=0) * alpha
    if len(keys) > 1 and top > _MAX_DEGREE:
        raise NotPolynomial(f"an expanded power of degree {top:g} passes {_MAX_DEGREE:g}, "
                            f"where Gamma overflows")
    if _products(p, n) > _MAX_PRODUCTS:
        raise NotPolynomial(f"expanding a {len(p)}-term form to the power {n} could take "
                            f"more than {_MAX_PRODUCTS} term products")
    out = {(0, 0): 1.0}
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


def normal_form(
    node: ExprAst,
    a: float,
    b: Optional[float],
    ctx: AlphaContext,
    params: Optional[Mapping[str, float]] = None,
    names: Optional[Mapping[str, Form]] = None,
) -> Form:
    """Rewrite an expression as its normal form {(k, j): c} for
    sum c * (x - a)**(k*alpha) * (b - x)**(j*alpha), keys sorted, zero
    terms dropped: on [a, b], or about a for x >= a when b is None (every
    j is then 0).

    Handles constants, sums, products, quotients by constants,
    alpha-multiple powers of (scaled) linear arguments, and integer powers.
    A power of an affine base whose root is a is a monomial in (x - a), and
    one whose root is b one in (b - x).  ``names`` gives the forms of the
    variables other than x: an eta(u, v) evaluated on two forms is the
    form of its composition.  Raises :class:`NotPolynomial` for anything
    else (abs of a sum, division by a non-constant, non-integer multiples
    of a, alpha-powers of non-monomial bases, an expanded power past
    ``_MAX_DEGREE`` or ``_MAX_PRODUCTS``...).
    """
    fr = _Frame(float(a), None if b is None else float(b), ctx.alpha, params or {}, names or {})
    form = {key: c for key, c in sorted(_form_terms(node, fr).items()) if c != 0.0}
    if any(k < 0 or j < 0 for k, j in form):
        raise NotPolynomial("negative generalized degree")
    return form


def _const_of(p: Form) -> Optional[float]:
    """The value of a constant form, or None if p has other terms."""
    if not p:
        return 0.0
    if set(p) == {(0, 0)}:
        return p[(0, 0)]
    return None


def _monomial_pow(n: Pow, fr: _Frame) -> Optional[Form]:
    """Power of a pure linear base u*(x - a), or -u*(b - x) when the form
    has a right endpoint b: valid for any alpha."""
    uw = _affine(n.base, fr.params)
    if uw is None:
        return None
    u, w = uw
    if u == 0.0:
        return None  # constant bases are handled by the callers

    # The base is rooted at an endpoint only where its float value there is
    # exactly 0.0: a near miss like x - 1e-15 on [0, 1] is another function.
    if u * fr.a + w == 0.0:
        scale, side = u, 0
    elif fr.b is not None and u * fr.b + w == 0.0:
        scale, side = -u, 1
    else:
        return None
    if isinstance(n.exp, ExpAlpha):
        k = n.exp.k
        if not _is_near_int(k):
            return None
        i, coeff = int(round(k)), float(_pow_alpha(scale, k, fr.alpha))
    else:
        r = n.exp.value
        i = r / fr.alpha
        if r < 0 or not _is_near_int(i):
            return None
        i, coeff = int(round(i)), float(_pow_literal(scale, r, n.pos))
    return {(i, 0) if side == 0 else (0, i): coeff}


def _form_terms(n: ExprAst, fr: _Frame) -> Form:
    """Recursive worker of :func:`normal_form`: {(k, j): c} of n on the
    frame ``fr``."""
    if isinstance(n, Num):
        return {(0, 0): n.value}
    if isinstance(n, Name):
        if n.name in fr.params:
            return {(0, 0): float(fr.params[n.name])}
        if n.name in fr.names:
            return dict(fr.names[n.name])
        if n.name != "x":
            raise NotPolynomial(f"name {n.name!r} is not a bound constant")
        # the variable x itself: x = a + (x-a)**(m*alpha) for x >= a
        m = 1.0 / fr.alpha
        if not _is_near_int(m):
            raise NotPolynomial(
                f"bare variable needs 1/alpha integral (alpha={fr.alpha!r})"
            )
        out = {(int(round(m)), 0): 1.0}
        if fr.a != 0.0:
            out[(0, 0)] = fr.a
        return out
    if isinstance(n, Neg):
        return {k: -c for k, c in _form_terms(n.child, fr).items()}
    if isinstance(n, Abs):
        p = _arg_terms(n, n.child, fr)
        cv = _const_of(p)
        if cv is not None:
            return {(0, 0): abs(cv)}
        if len(p) == 1:
            ((k, c),) = p.items()
            return {k: abs(c)}
        raise _kink(n, n.child, fr) or NotPolynomial(
            "abs of a non-monomial has no polynomial form")
    if isinstance(n, Bin):
        p = _form_terms(n.left, fr)
        q = _form_terms(n.right, fr)
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
        d = _const_of(q)
        if d is None:
            raise NotPolynomial("division by a non-constant")
        if d == 0.0:
            raise NotPolynomial("division by zero constant")
        return {k: c / d for k, c in p.items()}
    if isinstance(n, Pow):
        mono = _monomial_pow(n, fr)
        if mono is not None:
            return mono
        p = _arg_terms(n, n.base, fr)
        cv = _const_of(p)
        if isinstance(n.exp, ExpLiteral):
            r = n.exp.value
            if cv is not None:
                return {(0, 0): float(_pow_literal(cv, r, n.pos))}
            if _is_near_int(r) and r >= 0:
                return _ppow(p, int(round(r)), fr.alpha)
            raise _kink(n, n.base, fr) or NotPolynomial(
                "fractional or negative literal power of a non-constant")
        k = n.exp.k
        alpha = fr.alpha
        if cv is not None:
            return {(0, 0): float(_pow_alpha(cv, k, alpha))}
        if _is_near_int(k):
            ki = int(round(k))
            deg = k * alpha
            if _is_near_int(deg) and (ki - int(round(deg))) % 2 == 0:
                return _ppow(p, int(round(deg)), alpha)
        if len(p) == 1:
            # A monomial is >= 0 on [a, b], so its power is the power of
            # its coefficient times the monomial's degrees scaled by k*alpha.
            (((i, j), u),) = p.items()
            ik, jk = i * k * alpha, j * k * alpha
            if _is_near_int(ik) and _is_near_int(jk):
                coeff = float(_pow_alpha(u, k, alpha))
                return {(int(round(ik)), int(round(jk))): coeff}
        raise _kink(n, n.base, fr) or NotPolynomial(
            "alpha-power applies only to constants and (scaled) monomials")
    raise TypeError(f"not an expression node: {n!r}")


def _arg_terms(n: ExprAst, arg: ExprAst, fr: _Frame) -> Form:
    """The form of ``arg``, the argument of the abs or power ``n`` (see ``_kink``)."""
    try:
        return _form_terms(arg, fr)
    except NotPolynomial as exc:
        raise _kink(n, arg, fr) or exc from None


def _kink(n: ExprAst, arg: ExprAst, fr: _Frame) -> Optional[NotPolynomial]:
    """The NotPolynomial naming the root of the affine ``arg`` of the abs or
    power ``n`` where it is inside the frame's interval, which leaves n no
    form (a root on an endpoint makes a monomial); else None."""
    uw = _affine(arg, fr.params)
    root = -uw[1] / uw[0] if uw is not None and uw[0] != 0.0 else fr.a
    if not (fr.a < root and (fr.b is None or root < fr.b)):
        return None
    where = f"about {fr.a!r}" if fr.b is None else f"on [{fr.a!r}, {fr.b!r}]"
    return NotPolynomial(f"{pretty(n)} has no normal form {where}: its argument has a root "
                         f"at x = {root!r}")


# --- bound specs ----------------------------------------------------------


def _one_d(xs: np.ndarray) -> np.ndarray:
    """xs, or a 0-d xs as one element: numpy computes on a 0-d array with
    its scalar arithmetic (libm ``pow``), which can differ in the last bit
    from the array loops that give every other value."""
    return xs.reshape(1) if xs.ndim == 0 else xs


def _owned_result(node: ExprAst, out, shape: tuple[int, ...]) -> np.ndarray:
    """``out`` as a float array of ``shape`` that the caller owns.

    A walk's array result is new unless ``node`` is a bare variable, whose
    value is the input itself: only that one is copied.
    """
    arr = np.asarray(out, dtype=float)
    if arr.shape != shape:
        full = np.empty(shape)
        np.copyto(full, arr)
        return full
    return arr.copy() if isinstance(node, Name) else arr


def _add_kinks(n: ExprAst, params: Mapping[str, float], found: set[float]) -> None:
    """Add to ``found`` the kinks of n (see ``FunctionSpec.singular_points``)."""
    if isinstance(n, (Abs, Pow)):
        arg = n.child if isinstance(n, Abs) else n.base
        if not (isinstance(n, Pow) and isinstance(n.exp, ExpLiteral)
                and _is_near_int(n.exp.value)):
            uw = _affine(arg, params)
            if uw is not None and uw[0] != 0.0:
                found.add(-uw[1] / uw[0])
        _add_kinks(arg, params, found)
    elif isinstance(n, Neg):
        _add_kinks(n.child, params, found)
    elif isinstance(n, Bin):
        _add_kinks(n.left, params, found)
        _add_kinks(n.right, params, found)


@dataclass(frozen=True)
class _Spec:
    """A parsed expression in the variables of ``arity`` (see :func:`parse`)
    with its bound constants."""

    text: str
    ast: ExprAst = field(compare=False)
    params: tuple[tuple[str, float], ...] = ()
    arity = 1

    @classmethod
    def from_text(cls, text: str, params: Optional[Mapping[str, float]] = None):
        items = tuple(sorted((params or {}).items()))
        ast = parse(text, arity=cls.arity, constants=[k for k, _ in items])
        return cls(text=text, ast=ast, params=items)

    def __post_init__(self) -> None:
        # A tree built by hand is held to parse's nesting cap too.
        _check_depth(self.ast)
        # The evaluators read params as a dict; it is built once, here, and
        # never mutated.
        object.__setattr__(self, "_params", dict(self.params))


@dataclass(frozen=True)
class FunctionSpec(_Spec):
    """A parsed arity-1 expression f(x) with its bound constants."""

    def evaluate_many(self, xs: np.ndarray, ctx: AlphaContext) -> np.ndarray:
        """f at every point of ``xs``, as a new array of xs's shape."""
        xs = np.asarray(xs, dtype=float)
        out = evaluate_raw(self.ast, {"x": _one_d(xs)}, ctx, self._params)
        return _owned_result(self.ast, out, xs.shape)

    def form(self, a: float, b: Optional[float], ctx: AlphaContext) -> Form:
        """f's normal form on [a, b], or about a if b is None (see :func:`normal_form`)."""
        return normal_form(self.ast, a, b, ctx, self._params)

    def singular_points(self) -> tuple[float, ...]:
        """Abscissae where f may have a kink, sorted.

        These are the zeros of the affine arguments of ``abs(...)`` and of
        alpha-multiple or non-integer powers; arguments that are not affine
        in x contribute nothing.
        """
        found: set[float] = set()
        _add_kinks(self.ast, self._params, found)
        return tuple(sorted(found))


# A Fejer weight w(x) is an arity-1 expression like f.
WeightSpec = FunctionSpec


@dataclass(frozen=True)
class EtaSpec(_Spec):
    """A parsed arity-2 expression eta(u, v) with its bound constants."""

    arity = 2

    def evaluate_many(self, us, vs, ctx: AlphaContext) -> np.ndarray:
        """eta at every broadcast pair of ``us`` and ``vs``, as a new array."""
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        out = evaluate_raw(self.ast, {"u": _one_d(us), "v": _one_d(vs)}, ctx, self._params)
        return _owned_result(self.ast, out, np.broadcast(us, vs).shape)

    def form(self, u: Form, v: Form, a: float, b: float, ctx: AlphaContext) -> Form:
        """The normal form on [a, b] of eta(u(x), v(x)), given the forms of
        u and v (see :func:`normal_form`)."""
        return normal_form(self.ast, a, b, ctx, self._params, {"u": u, "v": v})
