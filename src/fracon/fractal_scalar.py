"""Alpha-type scalars: the two numeric carriers for fractal-set values.

For an order 0 < alpha <= 1, the fractal set R^alpha consists of the
alpha-type numbers ``a^alpha``.  Its arithmetic identifies
``a^alpha + b^alpha`` with ``(a+b)^alpha``, which makes the set isomorphic
to the reals via the base value ``a``.  Quantitative formulas (the
``Gamma(1+k*alpha)/Gamma(1+(k+1)*alpha)`` integration table, inequality
terms, defects) are only meaningful when ``a^alpha`` denotes the real
magnitude ``sign(a)*|a|**alpha``.  Both readings are needed, so both are
provided:

* :class:`IsoFractal` -- base-value semantics.  The seven arithmetic
  properties of the fractal set hold exactly; this carrier exists to make
  that checkable, not to do analysis.
* :class:`FractalScalar` -- magnitude semantics: ordinary real arithmetic
  on ``sign(a)*|a|**alpha`` with an order tag that rejects mixing.  The
  package computes in these semantics on plain floats.

The two semantics genuinely disagree for alpha < 1 (the additive embedding
identity fails on magnitudes: ``4**0.5 + 9**0.5 = 5 != 13**0.5``).
:func:`axiom_conformance` measures each property under both semantics and
reports the divergence instead of papering over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlphaContext",
    "FractalScalar",
    "IsoFractal",
    "GammaDomainError",
    "TagMismatchError",
    "gamma",
    "embed",
    "axiom_conformance",
    "AxiomRow",
]


class GammaDomainError(ValueError):
    """Gamma evaluated at a pole (non-positive integer) or non-finite point."""


class TagMismatchError(ValueError):
    """Arithmetic attempted between scalars of different fractal order."""


def gamma(x: float) -> float:
    """Euler Gamma function on the reals, a thin wrapper over :func:`math.gamma`.

    Raises :class:`GammaDomainError` at the poles (non-positive integers),
    for non-finite arguments, and where the result overflows a float.
    """
    x = float(x)
    if not math.isfinite(x):
        raise GammaDomainError(f"gamma argument must be finite, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise GammaDomainError(f"gamma pole at non-positive integer {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise GammaDomainError(f"gamma({x!r}) overflows a float") from None


@dataclass(frozen=True)
class AlphaContext:
    """Fractal order shared by every computation, with 0 < alpha <= 1."""

    alpha: float

    def __post_init__(self) -> None:
        a = self.alpha
        if not (isinstance(a, (int, float)) and math.isfinite(a)):
            raise ValueError(f"alpha must be a finite real, got {a!r}")
        if not 0.0 < a <= 1.0:
            raise ValueError(f"alpha must satisfy 0 < alpha <= 1, got {a!r}")
        object.__setattr__(self, "alpha", float(a))

    def gamma1p(self) -> float:
        """Gamma(1 + alpha), the normalization constant of the order."""
        return gamma(1.0 + self.alpha)


def _check_tags(a, b) -> None:
    if a.alpha != b.alpha:
        raise TagMismatchError(
            f"operands carry different orders: {a.alpha!r} vs {b.alpha!r}"
        )


@dataclass(frozen=True)
class FractalScalar:
    """Alpha-type number in magnitude semantics.

    ``value`` is the real magnitude ``sign(a)*|a|**alpha`` of some base
    ``a``; arithmetic is ordinary real arithmetic on magnitudes, which is
    what every quantitative formula in the package means.  The order tag
    travels with the value and mixing orders is an error.
    """

    value: float
    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite scalar value {self.value!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"invalid order tag {self.alpha!r}")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "alpha", float(self.alpha))

    def __add__(self, other: "FractalScalar") -> "FractalScalar":
        _check_tags(self, other)
        return FractalScalar(self.value + other.value, self.alpha)

    def __sub__(self, other: "FractalScalar") -> "FractalScalar":
        _check_tags(self, other)
        return FractalScalar(self.value - other.value, self.alpha)

    def __mul__(self, other: "FractalScalar") -> "FractalScalar":
        _check_tags(self, other)
        return FractalScalar(self.value * other.value, self.alpha)

    def __neg__(self) -> "FractalScalar":
        return FractalScalar(-self.value, self.alpha)

    def __lt__(self, other: "FractalScalar") -> bool:
        _check_tags(self, other)
        return self.value < other.value

    def __le__(self, other: "FractalScalar") -> bool:
        _check_tags(self, other)
        return self.value <= other.value

    def __gt__(self, other: "FractalScalar") -> bool:
        _check_tags(self, other)
        return self.value > other.value

    def __ge__(self, other: "FractalScalar") -> bool:
        _check_tags(self, other)
        return self.value >= other.value


@dataclass(frozen=True)
class IsoFractal:
    """Alpha-type number in base-value semantics.

    Stores the base ``a`` of ``a^alpha`` and computes through the
    isomorphism with the reals, so the fractal-set arithmetic identities
    (``a^alpha + b^alpha = (a+b)^alpha`` and friends) hold exactly by
    construction.  Carries no quantitative meaning on its own.
    """

    base: float
    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.base):
            raise ValueError(f"non-finite base value {self.base!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"invalid order tag {self.alpha!r}")
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "alpha", float(self.alpha))

    def __add__(self, other: "IsoFractal") -> "IsoFractal":
        _check_tags(self, other)
        return IsoFractal(self.base + other.base, self.alpha)

    def __sub__(self, other: "IsoFractal") -> "IsoFractal":
        _check_tags(self, other)
        return IsoFractal(self.base - other.base, self.alpha)

    def __mul__(self, other: "IsoFractal") -> "IsoFractal":
        _check_tags(self, other)
        return IsoFractal(self.base * other.base, self.alpha)

    def __neg__(self) -> "IsoFractal":
        return IsoFractal(-self.base, self.alpha)

    def magnitude(self) -> float:
        """Real magnitude sign(a)*|a|**alpha of the stored base."""
        return math.copysign(abs(self.base) ** self.alpha, self.base)


def embed(a: float, ctx: AlphaContext) -> FractalScalar:
    """Map a real base to its alpha-type magnitude sign(a)*|a|**alpha.

    The map is an odd, strictly increasing bijection of the reals and is
    multiplicative: embed(a*b) = embed(a)*embed(b).  It is *not* additive
    for alpha < 1; that failure is precisely the divergence reported by
    :func:`axiom_conformance`.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"embed argument must be finite, got {a!r}")
    return FractalScalar(math.copysign(abs(a) ** ctx.alpha, a), ctx.alpha)


@dataclass(frozen=True)
class AxiomRow:
    """Conformance result for one arithmetic property under both carriers."""

    index: int
    title: str
    iso_ok: bool
    iso_err: float
    mag_ok: bool
    mag_err: float
    note: str = ""


def _rel_err(lhs: np.ndarray, rhs: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(np.abs(lhs - rhs) / (1.0 + scale)))


def axiom_conformance(
    alpha: float,
    triples: int = 1000,
    seed: int = 2718,
    tol: float = 1e-12,
) -> list[AxiomRow]:
    """Measure the seven fractal-set arithmetic properties on random triples.

    Draws ``triples`` base triples (a, b, c) uniformly from [-10, 10] with a
    fixed seed and evaluates each property under both carriers:

    1. closure of + and * (results finite),
    2. commutativity of + and the additive embedding a^al + b^al = (a+b)^al,
    3. associativity of +,
    4. commutativity of * and the multiplicative embedding,
    5. associativity of *,
    6. distributivity,
    7. additive and multiplicative neutrals 0^al and 1^al.

    A property passes when its worst relative discrepancy is <= ``tol``.
    IsoFractal passes everything by construction; FractalScalar fails the
    additive embedding part of property 2 for alpha < 1, which is reported,
    not hidden.
    """
    ctx = AlphaContext(alpha)
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-10.0, 10.0, size=(3, triples))

    def mag(x: np.ndarray) -> np.ndarray:
        return np.sign(x) * np.abs(x) ** ctx.alpha

    rows: list[AxiomRow] = []

    def run(index: int, title: str, check, note_mag: str = "") -> None:
        iso_err = check(a, b, c, lambda x: x)  # base-value semantics
        mag_err = check(a, b, c, mag)  # magnitude semantics
        note = note_mag if mag_err > tol else ""
        rows.append(
            AxiomRow(index, title, iso_err <= tol, iso_err, mag_err <= tol, mag_err, note)
        )

    def chk_closure(a, b, c, rep):
        s = rep(a) + rep(b)
        p = rep(a) * rep(b)
        ok = np.all(np.isfinite(s)) and np.all(np.isfinite(p))
        return 0.0 if ok else math.inf

    def chk_add_comm_embed(a, b, c, rep):
        scale = np.maximum(np.abs(rep(a)), np.abs(rep(b)))
        comm = _rel_err(rep(a) + rep(b), rep(b) + rep(a), scale)
        embed_err = _rel_err(rep(a) + rep(b), rep(a + b), scale)
        return max(comm, embed_err)

    def chk_add_assoc(a, b, c, rep):
        ra, rb, rc = rep(a), rep(b), rep(c)
        scale = np.abs(ra) + np.abs(rb) + np.abs(rc)
        return _rel_err((ra + rb) + rc, ra + (rb + rc), scale)

    def chk_mul_comm_embed(a, b, c, rep):
        ra, rb = rep(a), rep(b)
        scale = np.abs(ra * rb)
        comm = _rel_err(ra * rb, rb * ra, scale)
        embed_err = _rel_err(ra * rb, rep(a * b), scale)
        return max(comm, embed_err)

    def chk_mul_assoc(a, b, c, rep):
        ra, rb, rc = rep(a), rep(b), rep(c)
        scale = np.abs(ra * rb * rc)
        return _rel_err((ra * rb) * rc, ra * (rb * rc), scale)

    def chk_distrib(a, b, c, rep):
        ra, rb, rc = rep(a), rep(b), rep(c)
        scale = np.abs(ra) * (np.abs(rb) + np.abs(rc))
        return _rel_err(ra * (rb + rc), ra * rb + ra * rc, scale)

    def chk_neutral(a, b, c, rep):
        ra = rep(a)
        zero = rep(np.zeros_like(a))
        one = rep(np.ones_like(a))
        scale = np.abs(ra)
        return max(_rel_err(ra + zero, ra, scale), _rel_err(ra * one, ra, scale))

    run(1, "closure under + and *", chk_closure)
    run(
        2,
        "+ commutes; a^al + b^al = (a+b)^al",
        chk_add_comm_embed,
        note_mag="a^al + b^al != (a+b)^al on magnitudes for alpha < 1",
    )
    run(3, "+ associates", chk_add_assoc)
    run(4, "* commutes; a^al * b^al = (ab)^al", chk_mul_comm_embed)
    run(5, "* associates", chk_mul_assoc)
    run(6, "* distributes over +", chk_distrib)
    run(7, "neutrals 0^al and 1^al", chk_neutral)
    return rows
