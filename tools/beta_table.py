"""Reference values of the Beta table and of m1 on the Fejer preset grid,
from mpmath.

Usage (from the root of a checkout):

    python3 tools/beta_table.py > tests/beta_table_refs.json

The Fejer chain's exact route integrates two-endpoint normal forms term by
term with

    a_I_b (x-a)**p (b-x)**q
        = span**(p+q+alpha) * Gamma(p+1) * Gamma(q+alpha)
          / (Gamma(alpha) * Gamma(p+q+alpha+1)),

p = k*alpha and q = j*alpha.  On the preset grid (w ``one`` or
``parabolic``, f ``x^(2a)`` or ``x^(4a)``, either preset eta, on [0, 1],
so span = 1) the terms are

    m0: w's;  m2: w's times (x-a)**alpha;  m3: w's times ((x-a)(b-x))**alpha;
    F2: f's times w's;  L: (f(a+b-x)'s and f's terms) times w's,

where w = 1 is (k, j) = (0, 0), the parabolic weight (1, 1), x^(2a) is
(2, 0), x^(4a) is (4, 0), and f(a+b-x) swaps k and j.  For each alpha in
{0.3, 0.5, 0.9, 1} and each (k, j) those give, this prints the table's
value at span 1 to 30 significant digits, computed at 50 digits with alpha
the exact value of its double.

It also prints the Fejer moment m1 of one term (x-a)**p (b-x)**q at span 1,

    (1/Gamma(alpha)) int_0^1 t**p (1-t)**(q+alpha-1) |1-2t|**(2 alpha) dt,

for the two preset weights, (0, 0) and (1, 1), at the four alphas and at
alpha 0.01, and for terms with k and j up to 20 at alpha 0.01, 0.3, 0.5,
0.9 and 1.  Each m1 value is computed two ways at 50 digits, and the two
must agree to 1e-40 relative: from mpmath's ``hyp2f1`` of the halves
t < 1/2 and t > 1/2, and by mpmath's quadrature of the kernel-free form
(1/Gamma(1+alpha)) int_0^1 g(1 - v**(1/alpha)) dv, split at t = 1/2.

The output is JSON: {"beta": rows, "m1": rows}, each a list of
[alpha, k, j, value] rows, one a line, sorted.

Only the standard library and mpmath are used; fracon is never imported,
so the values are independent of the code they check.
"""

from __future__ import annotations

import json
import sys

import mpmath

ALPHAS = (0.3, 0.5, 0.9, 1.0)
WEIGHTS = {"one": (0, 0), "parabolic": (1, 1)}
FUNCTIONS = {"x^(2a)": 2, "x^(4a)": 4}
# m1 of single terms with k, j up to 20, at these alphas.
M1_ALPHAS = (0.01, 0.3, 0.5, 0.9, 1.0)
M1_TERMS = ((0, 20), (20, 0), (3, 17), (19, 17), (20, 20))


def grid_keys() -> set[tuple[int, int]]:
    """Every (k, j) the preset grid's exact integrals use."""
    keys = set()
    for wk, wj in WEIGHTS.values():
        keys |= {(wk, wj), (wk + 1, wj), (wk + 1, wj + 1)}  # m0, m2, m3
        for p in FUNCTIONS.values():
            keys |= {(wk + p, wj), (wk, wj + p)}  # F2 and L: f and f(a+b-x)
    return keys


def table_value(k: int, j: int, alpha: float) -> mpmath.mpf:
    """The Beta table's a_I_b (x-a)**(k alpha) (b-x)**(j alpha) at span 1."""
    al = mpmath.mpf(alpha)
    p, q = k * al, j * al
    return mpmath.gamma(p + 1) * mpmath.gamma(q + al) / (mpmath.gamma(al) * mpmath.gamma(p + q + al + 1))


def m1_keys() -> list[tuple[float, int, int]]:
    """(alpha, k, j) of every frozen m1 value."""
    keys = {(alpha, k, j) for alpha in ALPHAS + (0.01,) for k, j in WEIGHTS.values()}
    keys |= {(alpha, k, j) for alpha in M1_ALPHAS for k, j in M1_TERMS}
    return sorted(keys)


def m1_value(k: int, j: int, alpha: float) -> mpmath.mpf:
    """m1 of (x-a)**(k alpha) (b-x)**(j alpha) at span 1, from hyp2f1: with
    t = s/2 and t = 1 - s/2 the halves are 2**-(p+1) B(p+1, 2al+1)
    2F1(1-q-al, p+1; p+2al+2; 1/2) and 2**-(q+al) B(q+al, 2al+1)
    2F1(-p, q+al; q+3al+1; 1/2)."""
    al = mpmath.mpf(alpha)
    p, q, half = k * al, j * al, mpmath.mpf(1) / 2
    left = (2 ** (-p - 1) * mpmath.beta(p + 1, 2 * al + 1)
            * mpmath.hyp2f1(1 - q - al, p + 1, p + 2 * al + 2, half))
    right = (2 ** (-q - al) * mpmath.beta(q + al, 2 * al + 1)
             * mpmath.hyp2f1(-p, q + al, q + 3 * al + 1, half))
    return (left + right) / mpmath.gamma(al)


def m1_quadrature(k: int, j: int, alpha: float) -> mpmath.mpf:
    """The same m1 by quadrature in v = (1-t)**alpha, split at t = 1/2."""
    al = mpmath.mpf(alpha)
    p = k * al

    def g(v):
        t = 1 - v ** (1 / al)
        return t**p * v**j * abs(1 - 2 * t) ** (2 * al)

    return mpmath.quad(g, [0, 2**-al, 1]) / mpmath.gamma(al + 1)


def _rows(rows: list) -> str:
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"


def main() -> int:
    mpmath.mp.dps = 50
    beta = [[alpha, k, j, mpmath.nstr(table_value(k, j, alpha), 30)]
            for alpha in ALPHAS for k, j in sorted(grid_keys())]
    m1 = []
    for alpha, k, j in m1_keys():
        value = m1_value(k, j, alpha)
        check = m1_quadrature(k, j, alpha)
        if abs(check - value) > mpmath.mpf("1e-40") * abs(value):
            raise SystemExit(f"m1 at alpha {alpha}, (k, j) = ({k}, {j}): hyp2f1 {value} "
                             f"and quadrature {check} disagree")
        m1.append([alpha, k, j, mpmath.nstr(value, 30)])
    sys.stdout.write('{"beta": ' + _rows(beta) + ',\n"m1": ' + _rows(m1) + "}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
