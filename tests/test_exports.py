"""Every name a module exports through __all__ exists in that module, so
`from hypercast import *` (and the same on a submodule) cannot raise; and
the package imports nothing that pyproject's `dependencies` leave out."""
from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_src_imports_only_its_declared_dependencies():
    """Every import in src/hypercast comes from the standard library, numpy
    or hypercast itself: pyproject's `dependencies` declare numpy alone, and
    networkx, scipy and hypothesis stay test-only."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "hypercast"}
    outside = []
    for path in sorted(Path(hypercast.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a relative one within the package
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert outside == []
