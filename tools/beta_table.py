"""Reference values of the Beta table on the Fejer preset grid, from mpmath.

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
the exact value of its double.  The output is JSON: a list of
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


def main() -> int:
    mpmath.mp.dps = 50
    rows = [[alpha, k, j, mpmath.nstr(table_value(k, j, alpha), 30)]
            for alpha in ALPHAS for k, j in sorted(grid_keys())]
    sys.stdout.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
