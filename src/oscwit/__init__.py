"""Entanglement certification for coupled harmonic oscillators.

Building blocks for the precession protocol on a normal mode of two
coupled oscillators: truncated Fock-space operators, normal-mode
decomposition, the protocol operator with its classical bounds and quantum
maxima, a Monte-Carlo classical oracle, a semidefinite certifier of minimum
logarithmic negativity, rival second-moment entanglement criteria, and the
canonical-witness analysis toolkit.

The package imports its submodules on first use (PEP 562): ``oscwit.sweep``
or ``oscwit.sdp`` loads the certifier, and a command that needs only the
classical bound never compiles it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "errors": (
        "ConfigError", "DegenerateAngle", "DimensionMismatch", "EvenK",
        "InfeasibleTarget", "NonzeroFirstMoments", "NormalizationError",
        "NotHermitian", "NumericalFailure", "OscwitError", "PsiZeroUnit",
        "SameBasis", "SearchFailed", "TruncationInsufficient", "Unstable",
        "WrongBasisTag",
    ),
    "fock": (
        "NORMAL", "PHYSICAL", "FockOperator", "TwoModeState",
        "annihilation_matrix", "coherent_state", "eig_hermitian",
        "log_negativity",
    ),
    "modes": (
        "NormalModeSpec", "fold_theta", "mode_rotation_unitary",
        "normal_coordinates", "normal_mode_params", "transform_state",
    ),
    "protocol": (
        "ProtocolSpec", "ScoreEstimate", "classical_bound", "max_score",
        "pos_x_matrix", "qk_matrix", "score_state",
    ),
    "classical": ("ClassicalDistribution", "simulate_classical_score"),
    "sdp": ("SdpProblem", "SdpSolution", "build_problem", "solve", "sweep"),
    "criteria": (
        "FamilyState", "MomentTable", "abiuso_margin", "duan_margin",
        "family_state", "hillery_zubairy_detects", "moments", "zhang_detects",
    ),
    "witness": (
        "coherent_expectation", "nondecomposability_check",
        "optimality_probe", "witness_matrix",
    ),
}

_SUBMODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name):
    # no caching: the attribute always reads the submodule's current binding
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SUBMODULE_OF:
        module = importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
