"""Every name a module exports through __all__ exists in that module, so
`from hypercast import *` (and the same on a submodule) cannot raise."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import hypercast

MODULES = ["hypercast"] + [
    f"hypercast.{info.name}" for info in pkgutil.iter_modules(hypercast.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
