"""Every exported name resolves: a stale ``__all__`` entry breaks ``import *``."""

import importlib
import inspect
import pkgutil

import pytest

import fracon

_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(fracon.__path__)
    if info.name != "__main__"
)


def test_package_all_resolves():
    missing = [name for name in fracon.__all__ if not hasattr(fracon, name)]
    assert missing == []


@pytest.mark.parametrize("module", _MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"fracon.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_interval_functions_take_a_b_ctx_in_that_order():
    """Every public function that takes an interval and an order context
    lists them as ``a, b, ctx``, one after the other."""
    takers = {}
    for name in fracon.__all__:
        obj = getattr(fracon, name)
        if inspect.isfunction(obj):
            params = list(inspect.signature(obj).parameters)
            if {"a", "b", "ctx"} <= set(params):
                i = params.index("a")
                takers[name] = params[i : i + 3]
    assert sorted(takers) == ["certify_gsc", "check_eta_necessary", "check_symmetry",
                              "estimate_eta_sup", "fejer_terms", "hh_terms", "lf_integral"]
    assert all(order == ["a", "b", "ctx"] for order in takers.values()), takers
