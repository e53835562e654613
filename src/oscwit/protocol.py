"""Precession-protocol operator, classical bounds and quantum maxima.

The protocol measures the sign of one harmonic coordinate at a uniformly
random one of K equally spaced times per period and scores the weighted
positive-outcome frequency

    P_K = (1/K) sum_k { Pr[X(t_k) > 0] + Pr[X(t_k) = 0] / 2 }.

Quantum mechanically P_K = tr(rho Q_K) with
Q_K = (1/K) sum_k pos(X(t_k)), and in the Fock basis Q_K is the half-line
overlap matrix masked to index pairs m = n (mod K).  The zero-outcome term
vanishes identically for the exact quantum score and is kept only in the
Monte-Carlo estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import WrongBasisTag
from .fock import NORMAL, FockOperator, TwoModeState, eig_hermitian
from .modes import NormalModeSpec


@dataclass(frozen=True)
class ProtocolSpec:
    """Measurement schedule: K slots per period of the chosen normal mode."""

    K: int
    sigma: str = "+"
    t0: float = 0.0  # offset in units of the period

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.sigma not in ("+", "-"):
            raise ValueError("sigma must be '+' or '-'")

    def times(self, spec: NormalModeSpec) -> np.ndarray:
        period = spec.period(self.sigma)
        k = np.arange(self.K)
        return (k / self.K + self.t0) * period


@dataclass(frozen=True)
class ScoreEstimate:
    """Protocol score with per-slot outcome tallies.

    counts[k] = (positive, zero, negative) tallies for time slot k; the
    estimate weights exact zeros by 1/2.
    """

    p_value: float
    stderr: float
    counts: tuple


def classical_bound(K: int) -> Fraction:
    """Largest score any classical precessing system attains."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if K % 2 == 1:
        return Fraction(1, 2) * (1 + Fraction(1, K))
    return Fraction(1, 2)


def _psi_at_zero(n_max: int):
    """psi_n(0) for even n and psi_n'(0) for odd n (zero otherwise)."""
    psi = np.zeros(n_max + 1)
    dpsi = np.zeros(n_max + 1)
    psi[0] = math.pi ** -0.25
    for n in range(2, n_max + 1, 2):
        psi[n] = -math.sqrt((n - 1) / n) * psi[n - 2]
    for n in range(1, n_max + 1, 2):
        dpsi[n] = math.sqrt(2 * n) * psi[n - 1]
    return psi, dpsi


def pos_x_matrix(n_max: int) -> FockOperator:
    """Half-line matrix <m| pos(X) |n> = integral_0^inf psi_m psi_n.

    Closed form from the Wronskian identity
    2(m - n) psi_m psi_n = d/dx (psi_m psi_n' - psi_n psi_m'):
    the integral collapses to the boundary values at the origin.  Diagonal
    entries are exactly 1/2; same-parity off-diagonal entries vanish.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    psi, dpsi = _psi_at_zero(n_max)
    p = 0.5 * np.eye(n_max + 1)
    m, n = np.indices(p.shape)
    odd = (m + n) % 2 == 1
    # the even index e and the odd index o of each opposite-parity pair
    e, o = np.where(m % 2 == 0, (m, n), (n, m))[:, odd]
    p[odd] = -psi[e] * dpsi[o] / (2.0 * (e - o))
    return FockOperator(p, n_max, 1)


def qk_matrix(K: int, n_max: int, t0: float = 0.0) -> FockOperator:
    """Protocol operator Q_K on the truncated single-mode space.

    The K-fold phase average kills every entry with m != n (mod K); a time
    offset t0 (in radians of precession angle) only attaches phases
    exp(i (m-n) t0) to the survivors.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    pos = pos_x_matrix(n_max).matrix
    idx = np.arange(n_max + 1)
    diff = idx[:, None] - idx[None, :]
    mask = (diff % K) == 0
    q = pos * mask
    if t0 != 0.0:
        q = q * np.exp(1j * diff * t0)
    return FockOperator(q, n_max, 1)


def max_score(K: int, n_max: int):
    """Top eigenpair of Q_K within the truncation."""
    q = qk_matrix(K, n_max)
    w, v = eig_hermitian(q)
    return float(w[-1]), v[:, -1]


def score_operator(K: int, n_max: int, sigma: str = "+") -> FockOperator:
    """Q_K acting on the chosen normal mode of the two-mode space.

    The + mode is the slow (first) index of the two-mode basis.
    """
    if sigma not in ("+", "-"):
        raise ValueError("sigma must be '+' or '-'")
    q = qk_matrix(K, n_max).matrix
    eye = np.eye(n_max + 1)
    m = np.kron(q, eye) if sigma == "+" else np.kron(eye, q)
    return FockOperator(m, n_max, 2, NORMAL)


def score_state(rho: TwoModeState, K: int, sigma: str = "+") -> float:
    """tr(rho (Q_K on the sigma mode)); requires the normal-mode tag."""
    if rho.basis_tag != NORMAL:
        raise WrongBasisTag("score is evaluated in the normal-mode basis")
    op = score_operator(K, rho.n_max, sigma)
    return float(np.trace(rho.matrix @ op.matrix).real)
