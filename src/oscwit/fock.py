"""Truncated Fock-space operator algebra.

Dense matrices over single- or two-mode Fock bases with a hard cutoff
``n_max`` (levels 0..n_max per mode).  Natural units hbar = mu = omega = 1
throughout; physical prefactors of position operators are positive and drop
out of every sign-level quantity, so they never enter matrix elements.

Two-mode operators carry a ``basis_tag`` recording which mode labels index
the matrix: the physical oscillators or the normal modes.  The partial
transpose (and therefore the logarithmic negativity) is only defined with
respect to the physical split, so those operations refuse normal-mode-tagged
input instead of silently producing a basis-dependent answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHermitian,
    TruncationInsufficient,
    WrongBasisTag,
)

#: basis tag for the physical oscillator modes {a1, a2}
PHYSICAL = "a1,a2"
#: basis tag for the normal modes {a+, a-}
NORMAL = "a+,a-"

HERMITICITY_TOL = 1e-10


def _as_complex(m) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(m, dtype=complex))


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest entrywise deviation |M - M^dag|."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on a truncated Fock space.

    Attributes:
        matrix: square complex matrix, dimension (n_max+1)**modes.
        n_max: highest retained Fock level per mode.
        modes: 1 or 2.
        basis_tag: PHYSICAL or NORMAL for two-mode operators; single-mode
            operators default to the mode-agnostic tag "single".
    """

    matrix: np.ndarray
    n_max: int
    modes: int = 1
    basis_tag: str = "single"

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex(self.matrix))
        d = (self.n_max + 1) ** self.modes
        if self.matrix.shape != (d, d):
            raise DimensionMismatch(
                f"matrix shape {self.matrix.shape} != ({d}, {d}) for "
                f"n_max={self.n_max}, modes={self.modes}"
            )
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class TwoModeState:
    """Density operator over a truncated two-mode Fock space."""

    matrix: np.ndarray
    n_max: int
    basis_tag: str
    validate: bool = field(default=True, repr=False, compare=False)

    TRACE_TOL = 1e-9
    EIG_FLOOR = -1e-9

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex(self.matrix))
        d = (self.n_max + 1) ** 2
        if self.matrix.shape != (d, d):
            raise DimensionMismatch(
                f"state shape {self.matrix.shape} != ({d}, {d}) for n_max={self.n_max}"
            )
        if self.basis_tag not in (PHYSICAL, NORMAL):
            raise WrongBasisTag(f"unknown basis tag {self.basis_tag!r}")
        if self.validate:
            tr = np.trace(self.matrix)
            if abs(tr - 1.0) > self.TRACE_TOL:
                raise ValueError(f"trace {tr} deviates from 1 beyond {self.TRACE_TOL}")
            if hermiticity_defect(self.matrix) > 1e-8:
                raise NotHermitian("density matrix is not Hermitian")
            w = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2.0)
            if w[0] < self.EIG_FLOOR:
                raise ValueError(f"minimum eigenvalue {w[0]} below {self.EIG_FLOOR}")
        self.matrix.setflags(write=False)

    @classmethod
    def from_pure(cls, vec: np.ndarray, n_max: int, basis_tag: str) -> "TwoModeState":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), n_max, basis_tag)


def annihilation_matrix(n_max: int) -> FockOperator:
    """Ladder operator a with entries sqrt(n) at (n-1, n)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(1, n_max + 1):
        a[n - 1, n] = np.sqrt(n)
    return FockOperator(a, n_max, 1)


def identity_matrix(n_max: int, modes: int = 1, basis_tag: str = "single") -> FockOperator:
    return FockOperator(np.eye((n_max + 1) ** modes, dtype=complex), n_max, modes, basis_tag)


def coherent_tail_mass(alpha: complex, n_max: int) -> float:
    """Probability weight of the truncated-away levels of |alpha>.

    The Poisson tail P(X > n_max), X ~ Poisson(|alpha|^2), summed term by
    term.  Past the mode (n_max + 1 > lam) the terms from k = n_max + 1 fall
    at least geometrically: the first is taken in the log domain, each next
    one is the previous times lam / k, and the sum stops once a term drops
    below 1e-17 of it.  Otherwise the tail is 1 minus the head sum over
    k = n_max .. 0, formed the same way downward, clamped at 0.
    """
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    upward = n_max + 1 > lam
    k = n_max + 1 if upward else n_max
    term = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1.0))
    total = 0.0
    while term > 1e-17 * total:
        total += term
        if upward:
            k += 1
            term *= lam / k
        elif k == 0:
            break
        else:
            term *= k / lam
            k -= 1
    return total if upward else max(0.0, 1.0 - total)


def coherent_state(alpha: complex, n_max: int, tol: float = 1e-10) -> np.ndarray:
    """Normalized truncated coherent-state vector.

    Amplitudes are formed in the log domain, with log n! from
    ``math.lgamma``.  Raises TruncationInsufficient when the Poisson tail
    beyond n_max exceeds ``tol``.
    """
    tail = coherent_tail_mass(alpha, n_max)
    if tail > tol:
        raise TruncationInsufficient(
            f"tail mass {tail:.3e} beyond n_max={n_max} exceeds tol={tol:.1e} "
            f"for |alpha|={abs(alpha):.3f}"
        )
    n = np.arange(n_max + 1)
    # log-domain to avoid overflow in alpha^n / sqrt(n!)
    if alpha == 0:
        vec = np.zeros(n_max + 1, dtype=complex)
        vec[0] = 1.0
        return vec
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])
    logmod = n * np.log(abs(alpha)) - 0.5 * log_fact - abs(alpha) ** 2 / 2.0
    phase = np.exp(1j * np.angle(alpha) * n)
    vec = np.exp(logmod) * phase
    return vec / np.linalg.norm(vec)


def minimum_coherent_cutoff(alpha: complex, tol: float = 1e-10, margin: int = 2) -> int:
    """Smallest n_max whose coherent tail mass is below tol, plus margin."""
    lam = abs(alpha) ** 2
    n = max(8, int(lam + 12.0 * np.sqrt(lam + 1.0)))
    while coherent_tail_mass(alpha, n) > tol:
        n = int(1.5 * n) + 4
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if coherent_tail_mass(alpha, mid) > tol:
            lo = mid + 1
        else:
            hi = mid
    return lo + margin


def partial_transpose_matrix(matrix: np.ndarray, dim_per_mode: int) -> np.ndarray:
    d = dim_per_mode
    return (
        matrix.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    )


def eig_hermitian(op: FockOperator | np.ndarray, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending.

    Symmetrizes (M + M^dag)/2 before solving to absorb rounding from
    products; raises NotHermitian beyond ``tol`` (relative to the largest
    entry).
    """
    m = op.matrix if isinstance(op, FockOperator) else np.asarray(op, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if hermiticity_defect(m) > tol * scale:
        raise NotHermitian(f"Hermiticity defect {hermiticity_defect(m):.2e} above tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w, v


def trace_norm_hermitian(matrix: np.ndarray) -> float:
    w = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)
    return float(np.sum(np.abs(w)))


def log_negativity(rho: TwoModeState, clamp: float = 1e-9) -> float:
    """log tr|rho^{Gamma_2}| (natural log), clamped to 0 within ``clamp``."""
    if rho.basis_tag != PHYSICAL:
        raise WrongBasisTag("logarithmic negativity is defined for the physical split")
    pt = partial_transpose_matrix(rho.matrix, rho.n_max + 1)
    val = float(np.log(trace_norm_hermitian(pt)))
    if abs(val) <= clamp:
        return 0.0
    return val
