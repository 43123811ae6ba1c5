"""The Beta table and the m1 table of the Fejer chain's exact route,
against frozen mpmath.

``tests/beta_table_refs.json`` holds 30-digit values of
a_I_b (x-a)**(k alpha) (b-x)**(j alpha) at span 1 for every (k, j) and
alpha that the preset grid's exact integrals use, and of m1 of one such
term at span 1 for the preset weights' terms and for terms with k and j up
to 20, at alpha 0.01 too; ``tools/beta_table.py`` writes them from mpmath
alone.
"""

from __future__ import annotations

import ast
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fracon import (AlphaContext, EtaSpec, FunctionSpec, GammaDomainError, NotPolynomial,
                    WeightSpec, calculus, fejer_terms, inequalities)
from fracon.presets import ETA_PRESETS, W_PRESETS

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "beta_table.py"
_REFS = Path(__file__).resolve().parent / "beta_table_refs.json"
_REF_TABLES = json.loads(_REFS.read_text())
_FROZEN = {(alpha, k, j): value for alpha, k, j, value in _REF_TABLES["beta"]}
_FROZEN_M1 = {(alpha, k, j): value for alpha, k, j, value in _REF_TABLES["m1"]}


def _grid_entries() -> tuple[set[tuple[float, int, int]], set[tuple[float, int, int]]]:
    """(alpha, k, j) of every Beta table term and of every m1 table term
    fejer_terms evaluates on the grid w one/parabolic x f x^(2a)/x^(4a) x
    alpha {0.3, 0.5, 0.9, 1} on [0, 1], with either preset eta and c in
    {0, 1}."""
    seen, seen_m1 = set(), set()
    original, original_m1 = calculus._table_integral, inequalities._m1_integral

    def recording(form, span, alpha):
        assert span == 1.0
        seen.update((alpha, k, j) for k, j in form)
        return original(form, span, alpha)

    def recording_m1(form, span, alpha):
        assert span == 1.0
        seen_m1.update((alpha, k, j) for k, j in form)
        return original_m1(form, span, alpha)

    bound = {"lo": 0.0, "hi": 1.0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "_table_integral", recording)
        mp.setattr(inequalities, "_m1_integral", recording_m1)
        for w, f, eta, alpha, c in itertools.product(
                ("one", "parabolic"), ("x^(2a)", "x^(4a)"), ETA_PRESETS.values(),
                (0.3, 0.5, 0.9, 1.0), (0.0, 1.0)):
            rep = fejer_terms(FunctionSpec.from_text(f, params=bound),
                              EtaSpec.from_text(eta, params=bound), c,
                              WeightSpec.from_text(W_PRESETS[w], params=bound),
                              0.0, 1.0, AlphaContext(alpha=alpha))
            # L of the difference at alpha 1 is 0 by symmetry: its terms
            # cancel, so the table earns no relative digit and L takes rl.
            rl = ["L_eta"] if (eta, alpha) == (ETA_PRESETS["difference"], 1.0) else []
            assert [name for name, route in rep.routes.items() if route == "rl"] == rl
    return seen, seen_m1


def test_frozen_table_covers_exactly_the_preset_grid():
    """The frozen Beta values are exactly the grid's; the frozen m1 values
    at the grid's alphas and weights are exactly the grid's, and the rest
    are the single terms up to k, j = 20 and alpha 0.01."""
    seen, seen_m1 = _grid_entries()
    assert seen == set(_FROZEN)
    assert seen_m1 == {(alpha, k, j) for alpha, k, j in _FROZEN_M1
                       if alpha in (0.3, 0.5, 0.9, 1.0) and (k, j) in ((0, 0), (1, 1))}
    assert max(max(k, j) for _, k, j in _FROZEN_M1) == 20
    assert {alpha for alpha, _, _ in _FROZEN_M1} == {0.01, 0.3, 0.5, 0.9, 1.0}


@pytest.mark.parametrize(("alpha", "k", "j"), sorted(_FROZEN))
def test_table_value_matches_mpmath(alpha, k, j):
    value, _ = calculus._table_integral({(k, j): 1.0}, 1.0, alpha)
    want = float(_FROZEN[alpha, k, j])
    assert abs(value - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize(("alpha", "k", "j"), sorted(_FROZEN_M1))
def test_m1_table_value_matches_mpmath(alpha, k, j):
    value = calculus._m1_integral({(k, j): 1.0}, 1.0, alpha)
    want = float(_FROZEN_M1[alpha, k, j])
    assert abs(value - want) <= 1e-14 * abs(want)


def test_m1_table_scales_with_span_and_sums_its_terms():
    """m1 of 2 (x-a)**al (b-x)**al + 3 at span 2: each term's unit value
    times c * span**((k+j+3) al), summed."""
    al = 0.5
    unit = {key: float(_FROZEN_M1[(al, *key)]) for key in ((0, 0), (1, 1))}
    want = 3.0 * 2.0 ** (3 * al) * unit[0, 0] + 2.0 * 2.0 ** (5 * al) * unit[1, 1]
    value = calculus._m1_integral({(0, 0): 3.0, (1, 1): 2.0}, 2.0, al)
    assert abs(value - want) <= 1e-14 * want


def test_m1_integral_declines_values_it_cannot_earn():
    """A Gamma overflow, a span power that overflows, a series past the
    term cap, and terms that cancel each raise, so that m1 takes the rl
    route."""
    with pytest.raises(GammaDomainError):
        calculus._m1_integral({(200, 0): 1.0}, 1.0, 1.0)
    with pytest.raises(OverflowError):
        calculus._m1_integral({(4, 0): 1.0}, 1e200, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "_SERIES_TERMS", 10)
        with pytest.raises(NotPolynomial, match="did not converge within 10 terms"):
            calculus._m1_integral({(1, 1): 1.0}, 1.0, 1.0)
    # At alpha 1, m1 of 1 is 1/3 and m1 of (x-a)(b-x) is 1/30.
    one, par = (calculus._m1_integral({key: 1.0}, 1.0, 1.0) for key in ((0, 0), (1, 1)))
    with pytest.raises(NotPolynomial, match="terms of m1 cancel"):
        calculus._m1_integral({(0, 0): 1.0, (1, 1): -one / par}, 1.0, 1.0)
    assert calculus._m1_integral({(0, 0): 1.0, (1, 1): -5.0}, 1.0, 1.0) \
        == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_generator_uses_only_the_standard_library_and_mpmath():
    tree = ast.parse(_TOOL.read_text())
    roots = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    roots |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "fracon" not in roots
    assert roots - {"__future__", "mpmath"} <= set(sys.stdlib_module_names)


def test_generator_reproduces_the_frozen_file_without_fracon():
    """Run with every import of fracon failing, the generator prints the
    frozen file byte for byte."""
    code = ("import runpy, sys; sys.modules['fracon'] = None; "
            f"sys.argv = [{str(_TOOL)!r}]; runpy.run_path({str(_TOOL)!r}, run_name='__main__')")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=_ROOT).stdout
    assert out == _REFS.read_text()


def test_beta_integral_declines_values_the_floats_cannot_hold():
    """Gamma(401) and 1e200**5 overflow: the table raises, so the Fejer
    integral takes the rl route instead of failing."""
    with pytest.raises(GammaDomainError):
        calculus._beta_integral({(400, 0): 1.0}, 1.0, 1.0)
    with pytest.raises(OverflowError):
        calculus._beta_integral({(4, 0): 1.0}, 1e200, 1.0)
    assert calculus._beta_integral({(1, 1): 1.0}, 1.0, 1.0) == 1.0 / 6.0
