"""The boundary between the package and the code that tests it.

``src/oscwit`` is the product; reference implementations and fixtures live
in ``tests/oracles.py``.  The package must run without the test
dependencies, and the Q_K-on-the-+-mode layout has a single owner,
``protocol.score_operator``.  The package namespace is lazy: each command
loads only the layers it runs, and every public name still resolves.
"""

import ast
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscwit
from oscwit.protocol import score_operator
from oscwit.sdp import build_problem
from oscwit.witness import witness_matrix

PACKAGE_DIR = Path(oscwit.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
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


# every name the package exported when it imported its submodules eagerly,
# as "submodule.name"
PUBLIC_NAMES = [
    "errors.ConfigError", "errors.DegenerateAngle", "errors.DimensionMismatch",
    "errors.EvenK", "errors.InfeasibleTarget", "errors.NonzeroFirstMoments",
    "errors.NormalizationError", "errors.NotHermitian", "errors.NumericalFailure",
    "errors.OscwitError", "errors.PsiZeroUnit", "errors.SameBasis",
    "errors.SearchFailed", "errors.TruncationInsufficient", "errors.Unstable",
    "errors.WrongBasisTag",
    "fock.NORMAL", "fock.PHYSICAL", "fock.FockOperator", "fock.TwoModeState",
    "fock.annihilation_matrix", "fock.coherent_state", "fock.eig_hermitian",
    "fock.log_negativity",
    "modes.NormalModeSpec", "modes.fold_theta", "modes.mode_rotation_unitary",
    "modes.normal_coordinates", "modes.normal_mode_params", "modes.transform_state",
    "protocol.ProtocolSpec", "protocol.ScoreEstimate", "protocol.classical_bound",
    "protocol.max_score", "protocol.pos_x_matrix", "protocol.qk_matrix",
    "protocol.score_state",
    "classical.ClassicalDistribution", "classical.simulate_classical_score",
    "sdp.SdpProblem", "sdp.SdpSolution", "sdp.build_problem", "sdp.solve", "sdp.sweep",
    "criteria.FamilyState", "criteria.MomentTable", "criteria.abiuso_margin",
    "criteria.duan_margin", "criteria.family_state", "criteria.hillery_zubairy_detects",
    "criteria.moments", "criteria.zhang_detects",
    "witness.coherent_expectation", "witness.nondecomposability_check",
    "witness.optimality_probe", "witness.witness_matrix",
]

# the layers a command may or may not load
LAYERS = ("oscwit.sdp", "oscwit.criteria", "oscwit.witness", "scipy")
PRINT_LAYERS = f"\nimport json, sys\nprint(json.dumps([m for m in {LAYERS!r} if m in sys.modules]))"

# command -> (its bundled config, the layers running it loads)
COMMAND_LAYERS = {
    "bounds": (None, []),
    "simulate": ("simulate_gaussian.json", []),
    "compare": ("compare_family.json", ["oscwit.criteria"]),
    "witness": ("witness_default.json", ["oscwit.witness"]),
    "certify": ("certify_small.json", ["oscwit.sdp", "scipy"]),
}


def run_fresh(code: str, *argv) -> str:
    """Standard output of ``code`` in a new interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_layers(code: str, *argv) -> list:
    """Which of ``LAYERS`` are in ``sys.modules`` once ``code`` has run."""
    return json.loads(run_fresh(code + PRINT_LAYERS, *argv).splitlines()[-1])


@pytest.mark.parametrize("qualified", PUBLIC_NAMES)
def test_public_name_is_the_submodule_object(qualified):
    module, name = qualified.split(".")
    assert getattr(oscwit, name) is getattr(importlib.import_module(f"oscwit.{module}"), name)
    assert getattr(oscwit, module) is importlib.import_module(f"oscwit.{module}")
    assert name in dir(oscwit)


def test_star_import_is_the_public_names():
    namespace = {}
    exec("from oscwit import *", namespace)
    assert set(namespace) - {"__builtins__"} == {q.split(".")[1] for q in PUBLIC_NAMES}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        oscwit.no_such_name  # noqa: B018
    # moved to tests/oracles.py, so it must not read as a package name
    assert not hasattr(oscwit, "partial_transpose")


def test_cli_import_loads_no_optional_layer():
    assert loaded_layers("import oscwit.cli") == []


def test_submodule_after_bare_package_import():
    out = run_fresh("import sys, oscwit\n"
                    "print('oscwit.sdp' in sys.modules, oscwit.sdp.sweep is oscwit.sweep)")
    assert out.split() == ["False", "True"]


@pytest.mark.parametrize("command", list(COMMAND_LAYERS))
def test_command_loads_only_its_layers(tmp_path, command):
    config, layers = COMMAND_LAYERS[command]
    argv = [command, "--out", str(tmp_path)]
    if config is not None:
        argv += ["--config", str(ROOT / "configs" / config)]
    code = "import sys\nfrom oscwit.cli import main\nassert main(sys.argv[1:]) == 0"
    assert loaded_layers(code, *argv) == layers
