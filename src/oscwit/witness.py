"""Canonical witness built from the protocol operator, and its structure.

For odd K the operator W = (1 + 1/K)/2 - Q_K acting on the + normal mode
(identity on the - mode) has nonnegative expectation on every state that
respects the classical bound; at mixing angle pi/4 that includes all
separable states, so a negative expectation witnesses entanglement.

The module evaluates W on two-mode coherent states (where the expectation
has an erf closed form), probes optimality by beating any candidate
improvement with a far-displaced coherent state, and checks
nondecomposability by diagonalizing a low-level projection of the partial
transpose of W in the physical basis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvenK, SearchFailed, TruncationInsufficient
from .fock import (
    NORMAL,
    PHYSICAL,
    FockOperator,
    coherent_state,
    minimum_coherent_cutoff,
    partial_transpose_matrix,
)
from .modes import transform_operator
from .protocol import classical_bound, qk_matrix, score_operator


def witness_matrix(K: int, n_max: int) -> FockOperator:
    """W = classical_bound * 1 - Q_K on the + slot; odd K only."""
    if K % 2 == 0:
        raise EvenK("the witness construction needs the odd-K classical bound")
    d = n_max + 1
    w = float(classical_bound(K)) * np.eye(d * d) - score_operator(K, n_max).matrix
    return FockOperator(w, n_max, 2, NORMAL)


def coherent_witness_erf(r: float, K: int = 3) -> float:
    """Closed form of <r|W|r> for the double coherent state |-r>|-r>.

    Valid for K = 3: (1 - 2 erf(r) + erf(2r)) / 6.
    """
    if K != 3:
        raise ValueError("closed form recorded for K = 3 only")
    return (1.0 - 2.0 * math.erf(r) + math.erf(2.0 * r)) / 6.0


def coherent_expectation(r: float, n_max: int | None = None, K: int = 3,
                         tail_tol: float = 1e-12) -> float:
    """Numeric <r|W|r> via the + mode coherent state of amplitude -sqrt(2) r.

    Picks the cutoff automatically when n_max is None; raises
    TruncationInsufficient when an explicit cutoff cannot carry the
    displaced state.
    """
    if K % 2 == 0:
        raise EvenK("the witness construction needs the odd-K classical bound")
    amp = -math.sqrt(2.0) * r
    if n_max is None:
        n_max = minimum_coherent_cutoff(amp, tol=tail_tol, margin=8)
    vec = coherent_state(amp, n_max, tol=tail_tol)
    q = qk_matrix(K, n_max).matrix
    return float(classical_bound(K)) - float(np.vdot(vec, q @ vec).real)


def _probe_state_expectation(p_op: FockOperator, r: float, tail_tol: float) -> float:
    """<r|P|r> in whichever basis P is tagged with.

    In the normal basis the probe is |-sqrt(2) r>|0>, whose support is the
    levels (i, 0): every d-th row and column of P, read as a view.  A
    single-mode P is that + mode block itself.
    """
    d = p_op.n_max + 1
    if p_op.modes == 1 or p_op.basis_tag == NORMAL:
        plus = coherent_state(-math.sqrt(2.0) * r, p_op.n_max, tol=tail_tol)
        block = p_op.matrix if p_op.modes == 1 else p_op.matrix[::d, ::d]
        return float(np.vdot(plus, block @ plus).real)
    single = coherent_state(-r, p_op.n_max, tol=tail_tol)
    vec = np.kron(single, single)
    return float(np.vdot(vec, p_op.matrix @ vec).real)


def optimality_probe(p_op: FockOperator, epsilon: float, K: int = 3,
                     r_step: float = 0.05, tail_tol: float = 1e-10):
    """Displacement r at which (1+eps) W - eps P fails on a separable state.

    P acts on the two-mode space, or on the + mode alone with the - mode
    in vacuum.  Walks r upward until the verified expectation turns
    negative; raises SearchFailed when the truncation of P cannot carry the
    required displacement, and ValueError for P = 0 (W itself is a witness
    and no r exists).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if p_op.modes not in (1, 2):
        raise ValueError("P must act on the + mode or on the two-mode space")
    if not p_op.matrix.any():
        raise ValueError("P = 0 leaves the witness intact; no probe exists")
    r = r_step
    while True:
        try:
            p_exp = _probe_state_expectation(p_op, r, tail_tol)
            w_exp = coherent_expectation(r, K=K)
        except TruncationInsufficient as exc:
            raise SearchFailed(
                f"needed displacement beyond the truncation (r={r:.2f})"
            ) from exc
        value = (1.0 + epsilon) * w_exp - epsilon * p_exp
        if value < 0.0:
            return r, value
        # erf-based hint for how far the walk can possibly have to go
        if r > 20.0:
            raise SearchFailed("no sign change found below r = 20")
        r += r_step


def nondecomposability_check(K: int, proj_level: int, n_max: int | None = None) -> float:
    """Smallest eigenvalue of the level-projected partial transpose of W.

    W is rotated to the physical basis at theta = pi/4, partial-transposed,
    and both modes are projected onto levels <= proj_level.  A negative
    eigenvalue rules out W = (PSD)^{Gamma_2}, hence decomposability of this
    optimal witness.
    """
    if K % 2 == 0:
        raise EvenK("the witness construction needs the odd-K classical bound")
    if n_max is None:
        n_max = 2 * proj_level + 2
    if n_max < proj_level:
        raise ValueError("n_max must be at least proj_level")
    w_phys = transform_operator(witness_matrix(K, n_max), math.pi / 4, PHYSICAL)
    pt = partial_transpose_matrix(w_phys.matrix, n_max + 1)
    d = n_max + 1
    keep = [i * d + j for i in range(proj_level + 1) for j in range(proj_level + 1)]
    block = pt[np.ix_(keep, keep)]
    return float(np.linalg.eigvalsh((block + block.conj().T) / 2.0)[0])
