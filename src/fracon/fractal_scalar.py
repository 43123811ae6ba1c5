"""Order-alpha numbers: the order context, Gamma, and axiom conformance.

For an order 0 < alpha <= 1, the fractal set R^alpha consists of the
alpha-type numbers ``a^alpha``.  Its arithmetic identifies
``a^alpha + b^alpha`` with ``(a+b)^alpha``, which makes the set isomorphic
to the reals via the base value ``a``.  Quantitative formulas (the
``Gamma(1+k*alpha)/Gamma(1+(k+1)*alpha)`` integration table, inequality
terms, defects) are only meaningful when ``a^alpha`` denotes the real
magnitude ``sign(a)*|a|**alpha``.  There are two readings of ``a^alpha``:

* base-value semantics -- compute on the base ``a``.  The seven arithmetic
  properties of the fractal set hold exactly; this reading exists to make
  that checkable, not to do analysis.
* magnitude semantics -- ordinary real arithmetic on
  ``sign(a)*|a|**alpha``.  The package computes in these semantics on
  plain floats.

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
    "GammaDomainError",
    "gamma",
    "axiom_conformance",
    "AxiomRow",
]


class GammaDomainError(ValueError):
    """Gamma evaluated at a pole (non-positive integer) or non-finite point."""


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


@dataclass(frozen=True)
class AxiomRow:
    """Conformance of one arithmetic property under both semantics, and a
    row of ``axioms --json``.  ``iso*`` is the base-value reading,
    ``magnitude*`` the magnitude reading; a verdict is "PASS" or "DIVERGES",
    and ``note`` is set only when the magnitude reading diverges."""

    index: int
    title: str
    iso: str
    iso_err: float
    magnitude: str
    magnitude_err: float
    note: str = ""


def _verdict(err: float) -> str:
    return "PASS" if err <= 1e-12 else "DIVERGES"


def _rel_err(lhs: np.ndarray, rhs: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(np.abs(lhs - rhs) / (1.0 + scale)))


def axiom_conformance(
    alpha: float,
    triples: int = 1000,
    seed: int = 2718,
) -> list[AxiomRow]:
    """Measure the seven fractal-set arithmetic properties on random triples.

    Draws ``triples`` base triples (a, b, c) uniformly from [-10, 10] with a
    fixed seed and evaluates each property under both semantics:

    1. closure of + and * (results finite),
    2. commutativity of + and the additive embedding a^al + b^al = (a+b)^al,
    3. associativity of +,
    4. commutativity of * and the multiplicative embedding,
    5. associativity of *,
    6. distributivity,
    7. additive and multiplicative neutrals 0^al and 1^al.

    A property passes when its worst relative discrepancy is <= 1e-12.
    Base values pass everything by construction; magnitudes fail the
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
        verdict = _verdict(mag_err)
        note = note_mag if verdict == "DIVERGES" else ""
        rows.append(AxiomRow(index, title, _verdict(iso_err), iso_err, verdict, mag_err, note))

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
