"""Every exported name resolves: a stale ``__all__`` entry breaks ``import *``."""

import importlib
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
