"""tests/oracles.py must not import the package it is a reference for,
and the package's own slow path, bsd_oracle, must not import qseries or
waldspurger, the production modules it checks, directly or through the
modules it imports."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ORACLES = Path(__file__).with_name("oracles.py")
BSD_ORACLE = Path(__file__).parents[1] / "src" / "twistsurvey" / "bsd_oracle.py"
PACKAGE = "twistsurvey"


def package_imports(source):
    """(line, name) for every import of the package in source, at any
    depth: import statements, relative imports and __import__ /
    importlib.import_module calls with a literal name.  A from-import
    gives one dotted name per imported item, so `from . import qseries`
    reads as '.qseries'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            names = [base + sep + alias.name for alias in node.names]
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


def module_imports(source, module):
    """The package imports in source that name the given module."""
    return [
        (line, name) for line, name in package_imports(source)
        if module in name.split(".")
    ]


def loaded_by_bsd_oracle(module):
    """Whether a fresh `import twistsurvey.bsd_oracle` loads the module:
    the module graph, not only bsd_oracle's own imports."""
    probe = (
        "import sys, twistsurvey.bsd_oracle; "
        f"print('twistsurvey.{module}' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(BSD_ORACLE.parents[1])},
    )
    return out.stdout.strip() == "True"


def test_qseries_guard_catches_each_import_form():
    forms = [
        "from .qseries import coefficient_rows",
        "from . import qseries",
        "from twistsurvey import catalog, qseries",
        "import twistsurvey.qseries as q",
        "def f():\n    from .qseries import theta_difference\n",
    ]
    for source in forms:
        assert module_imports(source, "qseries"), source
    assert module_imports("from .sieve import factorize", "qseries") == []


def test_bsd_oracle_does_not_import_qseries():
    source = BSD_ORACLE.read_text()
    assert package_imports(source)  # the guard sees its package imports
    assert module_imports(source, "qseries") == []


def test_importing_bsd_oracle_loads_no_qseries():
    # catalog, sieve and errors, which it imports, must not pull qseries in
    assert not loaded_by_bsd_oracle("qseries")


def test_bsd_oracle_does_not_import_waldspurger():
    # its Tamagawa root count and square test are its own
    source = BSD_ORACLE.read_text()
    assert module_imports("from .waldspurger import is_square", "waldspurger")
    assert module_imports(source, "waldspurger") == []


def test_importing_bsd_oracle_loads_no_waldspurger():
    assert not loaded_by_bsd_oracle("waldspurger")
    assert loaded_by_bsd_oracle("catalog")  # the probe sees loaded modules


def test_baseline_selmer_needs_no_qseries(monkeypatch):
    from twistsurvey import bsd_oracle, catalog, qseries

    def refuse(*args, **kwargs):
        raise AssertionError("bsd_oracle reached qseries")

    monkeypatch.setattr(qseries, "coefficient_rows", refuse)
    monkeypatch.setattr(qseries, "theta_difference", refuse)
    spec = catalog.curve("11a1")
    want = catalog.baseline(spec, 3)
    coeffs = bsd_oracle.weight_two_table(spec, [(want.n0_effective, 1e-9)])
    got = bsd_oracle.baseline_selmer(spec, 3, coeffs)
    assert got.l_n0 == pytest.approx(want.l_n0, rel=1e-9)
    assert replace(got, l_n0=want.l_n0) == want
