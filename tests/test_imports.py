"""Every name a package module imports is used in that module, every
public name the package defines has a caller outside the tests, and every
parameter default is overridden by some caller outside the tests.

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
    "microlocal": {"fiber_coefficients"},
    "specfun": {"bessel_k_complex", "bessel_k_half", "kk_mellin_integral"},
    "su2": {"wigner_D_euler"},
}

# defaulted parameters that no package caller passes: those of TEST_ONLY
# functions and the command-line entry point's argv, which only the tests
# set. Any other default that no caller overrides is a constant in its
# function; a listed parameter that gains a caller must leave the list too
UNSET_DEFAULTS = {
    ("cli", "main"): {"argv"},
    ("h3", "in_fundamental_domain"): {"tol"},
    ("lseries", "zeta_K"): {"truncation"},
    ("microlocal", "fiber_coefficients"): {"cross_check", "grid", "tol"},
    ("specfun", "bessel_k_complex"): {"tol"},
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


def defaulted_parameters(source: str) -> dict:
    """Function name -> {parameter: the number of positional arguments a
    call needs to reach it, or None for keyword-only} over the parameters
    with a default of the top-level functions and the methods (whose self
    a call does not pass). Nested functions are left out: their defaults
    bind values of the enclosing scope (such as _ev=series), not options."""
    tree = ast.parse(source)
    defs = [(node, 0) for node in tree.body]
    defs += [(node, 1) for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body]
    out = {}
    for node, bound in defs:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        pos = args.posonlyargs + args.args
        first = len(pos) - len(args.defaults)
        params = {a.arg: i + 1 - bound for i, a in enumerate(pos)
                  if i >= first}
        params.update({a.arg: None for a, d in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                       if d is not None})
        if params:
            out[node.name] = params
    return out


def call_shapes(source: str) -> list:
    """(called name, positional count, keyword names) of every call, bare
    or as an attribute; a call that splats *args or **kwargs counts as
    passing every parameter."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        kws = {k.arg for k in node.keywords}
        if None in kws or any(isinstance(a, ast.Starred) for a in node.args):
            out.append((name, float("inf"), {"*"}))
        else:
            out.append((name, len(node.args), kws))
    return out


def unset_defaults(sources: dict) -> dict:
    """(module stem, function) -> parameters with a default that no call
    in the sources passes, by keyword or by position."""
    calls = [c for src in sources.values() for c in call_shapes(src)]
    out = {}
    for stem, src in sources.items():
        for func, params in defaulted_parameters(src).items():
            unset = {p for p, need in params.items()
                     if not any(name == func and ("*" in kws or p in kws
                                                  or need is not None
                                                  and count >= need)
                                for name, count, kws in calls)}
            if unset:
                out[(stem, func)] = unset
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


def test_parameter_defaults_have_callers():
    # a default no caller overrides is a constant, not an option
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unset_defaults(sources) == UNSET_DEFAULTS


def test_detects_unset_defaults():
    source = ("def f(a, b=1, *, c=2):\n    return a\n"
              "def g(x, y=0):\n"
              "    def inner(v, _k=x):\n        return v\n"
              "    return f(x, 3) + inner(1)\n"
              "class C:\n    def m(self, p=1, q=2):\n        return p\n"
              "    def n(self, r=0):\n        return r\n"
              "C().m(5)\nC().n(*[1])\n")
    assert defaulted_parameters(source) == {
        "f": {"b": 2, "c": None}, "g": {"y": 2}, "m": {"p": 1, "q": 2},
        "n": {"r": 1}}
    assert unset_defaults({"mod": source}) == {
        ("mod", "f"): {"c"}, ("mod", "g"): {"y"}, ("mod", "m"): {"q"}}
