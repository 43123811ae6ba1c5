"""The Beta table of the Fejer chain's exact route, against frozen mpmath.

``tests/beta_table_refs.json`` holds 30-digit values of
a_I_b (x-a)**(k alpha) (b-x)**(j alpha) at span 1 for every (k, j) and
alpha that the preset grid's exact integrals use, written by
``tools/beta_table.py`` from mpmath alone.
"""

from __future__ import annotations

import ast
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fracon import AlphaContext, EtaSpec, FunctionSpec, WeightSpec, calculus, fejer_terms
from fracon.presets import ETA_PRESETS, W_PRESETS

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "beta_table.py"
_REFS = Path(__file__).resolve().parent / "beta_table_refs.json"
_FROZEN = {(alpha, k, j): value for alpha, k, j, value in json.loads(_REFS.read_text())}


def _grid_entries() -> set[tuple[float, int, int]]:
    """(alpha, k, j) of every table term fejer_terms evaluates on the grid
    w one/parabolic x f x^(2a)/x^(4a) x alpha {0.3, 0.5, 0.9, 1} on [0, 1],
    with either preset eta and c in {0, 1}."""
    seen = set()
    original = calculus._table_integral

    def recording(form, span, alpha):
        assert span == 1.0
        seen.update((alpha, k, j) for k, j in form)
        return original(form, span, alpha)

    bound = {"lo": 0.0, "hi": 1.0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "_table_integral", recording)
        for w, f, eta, alpha, c in itertools.product(
                ("one", "parabolic"), ("x^(2a)", "x^(4a)"), ETA_PRESETS.values(),
                (0.3, 0.5, 0.9, 1.0), (0.0, 1.0)):
            rep = fejer_terms(FunctionSpec.from_text(f, params=bound),
                              EtaSpec.from_text(eta, params=bound), c,
                              WeightSpec.from_text(W_PRESETS[w], params=bound),
                              0.0, 1.0, AlphaContext(alpha=alpha))
            # L of the difference at alpha 1 is 0 by symmetry: its terms
            # cancel, so the table earns no relative digit and L takes rl.
            rl = ["m1", "L_eta"] if (eta, alpha) == (ETA_PRESETS["difference"], 1.0) else ["m1"]
            assert [name for name, route in rep.routes.items() if route == "rl"] == rl
    return seen


def test_frozen_table_covers_exactly_the_preset_grid():
    assert _grid_entries() == set(_FROZEN)


@pytest.mark.parametrize(("alpha", "k", "j"), sorted(_FROZEN))
def test_table_value_matches_mpmath(alpha, k, j):
    value, _ = calculus._table_integral({(k, j): 1.0}, 1.0, alpha)
    want = float(_FROZEN[alpha, k, j])
    assert abs(value - want) <= 1e-14 * abs(want)


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
    """Gamma(401) and 1e200**5 overflow: no table value, so the Fejer
    integral takes the rl route instead of failing."""
    assert calculus._beta_integral({(400, 0): 1.0}, 1.0, 1.0) is None
    assert calculus._beta_integral({(4, 0): 1.0}, 1e200, 1.0) is None
    assert calculus._beta_integral({(1, 1): 1.0}, 1.0, 1.0) == 1.0 / 6.0
