"""Entanglement certification for coupled harmonic oscillators.

Building blocks for the precession protocol on a normal mode of two
coupled oscillators: truncated Fock-space operators, normal-mode
decomposition, the protocol operator with its classical bounds and quantum
maxima, a Monte-Carlo classical oracle, a semidefinite certifier of minimum
logarithmic negativity, rival second-moment entanglement criteria, and the
canonical-witness analysis toolkit.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateAngle,
    DimensionMismatch,
    EvenK,
    InfeasibleTarget,
    NonzeroFirstMoments,
    NormalizationError,
    NotHermitian,
    NumericalFailure,
    OscwitError,
    PsiZeroUnit,
    SameBasis,
    SearchFailed,
    TruncationInsufficient,
    Unstable,
    WrongBasisTag,
)
from .fock import (
    NORMAL,
    PHYSICAL,
    FockOperator,
    TwoModeState,
    annihilation_matrix,
    coherent_state,
    eig_hermitian,
    log_negativity,
)
from .modes import (
    NormalModeSpec,
    fold_theta,
    mode_rotation_unitary,
    normal_coordinates,
    normal_mode_params,
    transform_state,
)
from .protocol import (
    ProtocolSpec,
    ScoreEstimate,
    classical_bound,
    max_score,
    pos_x_matrix,
    qk_matrix,
    score_state,
)
from .classical import (
    ClassicalDistribution,
    simulate_classical_score,
)
from .sdp import (
    SdpProblem,
    SdpSolution,
    build_problem,
    solve,
    sweep,
)
from .criteria import (
    FamilyState,
    MomentTable,
    abiuso_margin,
    duan_margin,
    family_state,
    hillery_zubairy_detects,
    moments,
    zhang_detects,
)
from .witness import (
    coherent_expectation,
    nondecomposability_check,
    optimality_probe,
    witness_matrix,
)
