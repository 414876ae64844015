"""Every name a package module imports is used in that module.

No linter ships with the package's dependencies, so the check parses each
module with the standard-library ast and compares the names bound by its
import statements with the names it reads.
"""

import ast
from pathlib import Path

import pytest

import picard_eisenstein

PACKAGE_DIR = Path(picard_eisenstein.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's import statements that no expression of
    the module reads, with the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "eisenstein.py", "h3.py",
                                         "lseries.py", "specfun.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import exp, log\n"
              "x = np.zeros(1) + log(2.0)\n")
    assert unused_imports(source) == [(2, "os"), (4, "exp")]
