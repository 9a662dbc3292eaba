"""Every public name resolves.

Tooling such as ``bench/spans.py`` looks up each name in a layer module's
``__all__`` with ``getattr``; a stale name would only fail there.
"""

import importlib

import pytest

import strata0

LAYER_MODULES = ("strata", "intersection", "divisors", "local_family")


@pytest.mark.parametrize("module", LAYER_MODULES)
def test_layer_exports_resolve(module):
    mod = importlib.import_module(f"strata0.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"strata0.{module}.__all__ names missing {name!r}"


def test_package_exports_resolve():
    for name in strata0.__all__:
        assert hasattr(strata0, name), f"strata0.__all__ names missing {name!r}"
