"""Every name a package module imports is used in that module, and every
public name the package defines has a caller outside the tests.

No linter ships with the package's dependencies, so the checks parse each
module with the standard-library ast and compare the names bound by its
import statements and top-level definitions with the names it reads.
"""

import ast
from pathlib import Path

import pytest

import picard_eisenstein

PACKAGE_DIR = Path(picard_eisenstein.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))

# public names whose only callers are the tests today; each should move into
# the tests or gain a caller, and then leave this list
TEST_ONLY = {
    "gaussian": {"complete_to_sl2", "residues_mod"},
    "h3": {"GROUP_IDENTITY", "hyperbolic_distance", "in_fundamental_domain",
           "mobius_act"},
    "lseries": {"zeta_K"},
    "microlocal": {"band_coefficient", "fiber_coefficients"},
    "specfun": {"bessel_k_complex", "bessel_k_half", "kk_mellin_integral"},
    "su2": {"wigner_D_euler"},
}


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


def public_names(source: str) -> set:
    """Names the module binds at top level without a leading underscore."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            out.add(node.target.id)
    return {name for name in out if not name.startswith("_")}


def read_names(source: str) -> set:
    """Names the source reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def uncalled_names() -> dict:
    """Module stem -> public names no package module reads (the command-line
    module is the package's outside caller)."""
    read = set()
    for path in MODULES:
        read |= read_names(path.read_text())
    out = {}
    for path in MODULES:
        names = public_names(path.read_text()) - read
        if names:
            out[path.stem] = names
    return out


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


def test_public_names_have_callers():
    # a listed name that gains a caller must leave the list too
    assert uncalled_names() == TEST_ONLY


def test_detects_uncalled_names():
    source = ("import numpy as np\n"
              "LIMIT = 3\n_HIDDEN = 4\nnp.LIMIT = LIMIT\n"
              "def used():\n    return 1\n"
              "def unused():\n    return used()\n"
              "class Shape:\n    pass\n")
    assert public_names(source) == {"LIMIT", "used", "unused", "Shape"}
    assert public_names(source) - read_names(source) == {"unused", "Shape"}
