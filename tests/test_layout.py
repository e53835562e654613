"""The boundary between the package and the code that tests it.

``src/oscwit`` is the product; reference implementations and fixtures live
in ``tests/oracles.py``.  The package must run without the test
dependencies, and the Q_K-on-the-+-mode layout has a single owner,
``protocol.score_operator``.
"""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import oscwit
from oscwit.protocol import score_operator
from oscwit.sdp import build_problem
from oscwit.witness import witness_matrix

PACKAGE_DIR = Path(oscwit.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")
FORBIDDEN = ("scipy.integrate", "scipy.special", "pytest", "hypothesis", "oracles")


def imported_modules(path: Path) -> set:
    """Every module an ``import`` statement in the file names, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def defined_public_names(path: Path) -> set:
    """Top-level functions, classes and assignments without a leading underscore."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_no_test_code(path):
    bad = {m for m in imported_modules(path)
           if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)}
    assert not bad, f"{path.name} imports {sorted(bad)}"


def test_oracles_are_not_package_names():
    modules = [oscwit] + [importlib.import_module(f"oscwit.{info.name}")
                          for info in pkgutil.iter_modules(oscwit.__path__)]
    names = defined_public_names(ORACLES)
    assert names  # the scan found the module's definitions
    leaked = sorted(f"{m.__name__}.{n}" for m in modules for n in names if hasattr(m, n))
    assert not leaked


@pytest.mark.parametrize("K, n_max", [(3, 2), (3, 4), (5, 6)])
def test_problem_score_is_the_score_operator(K, n_max):
    prob = build_problem(K, math.pi / 4, 0.5, n_max)
    assert np.array_equal(prob._q_small, score_operator(K, n_max).matrix.real)


@pytest.mark.parametrize("n_max", [0, 3, 6])
def test_witness_is_bound_minus_score_operator(n_max):
    d = (n_max + 1) ** 2
    expected = 2.0 / 3.0 * np.eye(d) - score_operator(3, n_max).matrix
    assert np.array_equal(witness_matrix(3, n_max).matrix, expected)
