"""tests/oracles.py must not import the package it is a reference for."""

from __future__ import annotations

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
PACKAGE = "twistsurvey"


def package_imports(source):
    """(line, module) for every import of the package in source, at any
    depth: import statements, relative imports and __import__ /
    importlib.import_module calls with a literal name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called not in ("__import__", "import_module") or not node.args:
                continue
            arg = node.args[0]
            if not isinstance(arg, ast.Constant) or not isinstance(arg.value, str):
                continue
            names = [arg.value]
        else:
            continue
        for name in names:
            if name.startswith(".") or name.split(".")[0] == PACKAGE:
                found.append((node.lineno, name))
    return found


def test_oracles_do_not_import_the_package():
    assert package_imports(ORACLES.read_text()) == []


def test_guard_catches_each_import_form():
    forms = [
        "import twistsurvey",
        "import numpy, twistsurvey.cli as c",
        "from twistsurvey import catalog",
        "from twistsurvey.waldspurger import is_square",
        "def f():\n    from twistsurvey.sieve import factorize\n",
        "from . import sieve",
        "m = __import__('twistsurvey.stats')",
        "import importlib\nm = importlib.import_module('twistsurvey')",
    ]
    for source in forms:
        assert package_imports(source), source
    clean = "import numpy\nfrom scipy.integrate import quad\nx = 'twistsurvey'\n"
    assert package_imports(clean) == []
