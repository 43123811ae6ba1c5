"""Regenerate refs.json: mpmath reference values for the quadrature workload.

Run from the repository root (mpmath must be importable; the benchmark
itself only reads the frozen file):

    python3 perfbench/make_refs.py

Every value is computed from its definition with tanh-sinh quadrature
at 60 digits, splitting at each kink, and never touches fracon.
Order-alpha integrals over [0, 1] use the Riemann--Liouville form

    0_I_1 g = (1/Gamma(alpha)) * integral_0^1 (1 - x)**(alpha - 1) g(x) dx,

and a derivative reference is d/dx of the order-(1 - alpha) integral of
f - f(0) at x0 (the plain derivative at alpha = 1).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cases import ALPHAS, DIFF_AT, ETAS, QUAD_SHAPES  # noqa: E402

mp.mp.dps = 60
WEIGHTS = ("one", "parabolic")


def kink_of(shape: str):
    return None if shape == "x^(2a)" else float(shape.split("- ")[1].split(")")[0])


def f_of(shape: str, al):
    s = kink_of(shape)
    if s is None:
        return lambda x: abs(x) ** (2 * al)
    return lambda x: abs(x - mp.mpf(s)) ** al


def df_of(shape: str, al):
    s = kink_of(shape)
    if s is None:
        return lambda x: 2 * al * abs(x) ** (2 * al - 1)
    return lambda x: al * abs(x - mp.mpf(s)) ** (al - 1) * mp.sign(x - mp.mpf(s))


def w_of(name: str, al):
    if name == "one":
        return lambda x: mp.mpf(1)
    return lambda x: abs(x) ** al * abs(1 - x) ** al


def eta_of(name: str, al):
    if name == "difference":
        return lambda u, v: u - v
    return lambda u, v: 2**al * u + v


def kernel_integral(g, x0, order, kinks=()) -> mp.mpf:
    """integral_0^x0 (x0 - u)**(order - 1) g(u) du, split at the kinks.

    The substitution r = (x0 - u)**order removes the kernel singularity,
    which tanh-sinh cannot resolve near x0 in working precision once the
    exponent approaches -1.
    """
    inv = 1 / order
    inner = sorted({(x0 - mp.mpf(k)) ** order for k in kinks
                    if k is not None and 0 < k < x0})
    pts = [mp.mpf(0)] + inner + [x0**order]
    return mp.quad(lambda r: g(x0 - r**inv), pts) / order


def rl01(g, al, kinks=()) -> mp.mpf:
    """0_I_1 g of order al."""
    return kernel_integral(g, mp.mpf(1), al, kinks) / mp.gamma(al)


def derivative(shape: str, al, x0) -> mp.mpf:
    if al == 1:
        return df_of(shape, al)(x0)
    beta = 1 - al
    return kernel_integral(df_of(shape, al), x0, beta, (kink_of(shape),)) / mp.gamma(beta)


def build() -> dict[str, float]:
    values: dict[str, float] = {}
    for alpha in ALPHAS:
        al = mp.mpf(repr(alpha))
        for w in WEIGHTS:
            wf = w_of(w, al)
            values[f"m0|{w}|{alpha}"] = rl01(wf, al)
            values[f"m1|{w}|{alpha}"] = rl01(
                lambda t: abs(1 - 2 * t) ** (2 * al) * wf(t), al, (0.5,))
            values[f"m2|{w}|{alpha}"] = rl01(lambda t: t**al * wf(t), al)
            values[f"m3|{w}|{alpha}"] = rl01(
                lambda t: t**al * (1 - t) ** al * wf(t), al)
        for shape in QUAD_SHAPES:
            f = f_of(shape, al)
            s = kink_of(shape)
            mirror = None if s is None else 1 - s
            values[f"I|{shape}|{alpha}"] = rl01(f, al, (s,))
            for w in WEIGHTS:
                wf = w_of(w, al)
                values[f"F2|{shape}|{w}|{alpha}"] = rl01(lambda x: f(x) * wf(x), al, (s,))
                for eta in ETAS:
                    e = eta_of(eta, al)
                    values[f"L|{shape}|{eta}|{w}|{alpha}"] = rl01(
                        lambda x: e(f(1 - x), f(x)) * wf(x), al, (s, mirror)) / 2**al
            for at in DIFF_AT:
                values[f"D|{shape}|{alpha}|{at}"] = derivative(shape, al, mp.mpf(repr(at)))
    return {k: float(v) for k, v in sorted(values.items())}


def main() -> None:
    out = {
        "generator": "perfbench/make_refs.py",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "values": build(),
    }
    (HERE / "refs.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(out['values'])} values to {HERE / 'refs.json'}")


if __name__ == "__main__":
    main()
