"""Every name a module exports resolves: ``from geomforge.<module> import *``
fails on an ``__all__`` entry the module no longer defines."""

import pkgutil

import pytest

import geomforge

MODULES = sorted(info.name for info in pkgutil.iter_modules(geomforge.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    exec(f"from geomforge.{module} import *", {})
