"""Second-moment entanglement criteria and the states that evade them.

The family states are products of an arbitrary single-mode state in the +
normal mode with vacuum in the - mode; after rotating to the physical
basis they are entangled whenever theta is strictly inside (0, pi/2) and
the + state has any excitation.  All four criteria below are evaluated
from one moment table so that closed forms and numeric traces share a
single code path.

Sign conventions: the EPR pair is u = |c| x1~ + x2~/c, v = |c| p1~ - p2~/c
in hbar = 1 quadratures x~ = (a + a^dag)/sqrt(2), p~ = (a - a^dag)/(i
sqrt(2)).  For the family states both cross covariances <x1~ x2~> and
<p1~ p2~> equal sin(theta)cos(theta)<n>, so the v cross term cancels the
u one and the excess over the separability threshold is
sin(2 theta) <n> (c^2/tan(theta) + tan(theta)/c^2), strictly positive for
every admissible c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonzeroFirstMoments,
    NormalizationError,
    PsiZeroUnit,
    WrongBasisTag,
)
from .fock import NORMAL, PHYSICAL, TwoModeState, annihilation_matrix
from .modes import transform_state

FIRST_MOMENT_TOL = 1e-9


@dataclass(frozen=True)
class MomentTable:
    """First, second and the one fourth-order moment used by the criteria."""

    a1: complex
    a2: complex
    a1_sq: complex
    a2_sq: complex
    a1_a2: complex
    n1: float
    n2: float
    a1d_a2: complex
    n1_n2: float

    def __post_init__(self):
        if self.n1 < -1e-10 or self.n2 < -1e-10 or self.n1_n2 < -1e-10:
            raise ValueError("number moments must be nonnegative")

    @property
    def first_moments_vanish(self) -> bool:
        return max(abs(self.a1), abs(self.a2)) <= FIRST_MOMENT_TOL


@dataclass(frozen=True)
class FamilyState:
    """Single-mode state in the + slot, vacuum in the - slot."""

    psi: np.ndarray
    K: int
    theta: float
    n_max: int
    support_mode: str
    state_normal: TwoModeState
    state_physical: TwoModeState


def family_state(
    psi,
    K: int,
    theta: float,
    n_max: int,
    support_mode: str = "levels",
) -> FamilyState:
    """Assemble a family state and realize it in both mode bases.

    support_mode places coefficient psi_j at level j ("levels") or at level
    j*K ("multiples").  Both placements are separable across the
    normal-mode split and entangled across the physical one, but the
    vanishing first and pair moments (and with them the closed-form
    criteria results) hold only when occupied levels are spaced by at least
    3, as with the multiples placement: mode operators connect levels one
    or two apart.
    """
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise NormalizationError("psi must be normalized")
    if abs(abs(psi[0]) - 1.0) < 1e-12:
        raise PsiZeroUnit("psi concentrated on the vacuum carries no excitation")
    if support_mode not in ("levels", "multiples"):
        raise ValueError("support_mode must be 'levels' or 'multiples'")
    step = K if support_mode == "multiples" else 1
    top = (len(psi) - 1) * step
    if top > n_max:
        raise DimensionMismatch(
            f"support up to level {top} exceeds n_max={n_max}"
        )
    d = n_max + 1
    vec = np.zeros(d * d, dtype=complex)
    for j, c in enumerate(psi):
        vec[(j * step) * d + 0] = c  # tensor with vacuum in the - slot
    normal = TwoModeState.from_pure(vec, n_max, NORMAL)
    physical = transform_state(normal, theta, PHYSICAL)
    return FamilyState(
        psi=psi, K=K, theta=theta, n_max=n_max, support_mode=support_mode,
        state_normal=normal, state_physical=physical,
    )


def moments(rho: TwoModeState) -> MomentTable:
    """Moment table by direct traces in the physical basis."""
    if rho.basis_tag != PHYSICAL:
        raise WrongBasisTag("moments are defined for the physical mode labels")
    d = rho.n_max + 1
    a = annihilation_matrix(rho.n_max).matrix
    eye = np.eye(d)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    n1op = a1.conj().T @ a1
    n2op = a2.conj().T @ a2
    m = rho.matrix

    def ev(op):
        return complex(np.trace(m @ op))

    return MomentTable(
        a1=ev(a1),
        a2=ev(a2),
        a1_sq=ev(a1 @ a1),
        a2_sq=ev(a2 @ a2),
        a1_a2=ev(a1 @ a2),
        n1=ev(n1op).real,
        n2=ev(n2op).real,
        a1d_a2=ev(a1.conj().T @ a2),
        n1_n2=ev(n1op @ n2op).real,
    )


def _as_moments(source) -> MomentTable:
    if isinstance(source, MomentTable):
        return source
    if isinstance(source, FamilyState):
        return moments(source.state_physical)
    if isinstance(source, TwoModeState):
        return moments(source)
    raise TypeError(f"cannot extract moments from {type(source)!r}")


# ---------------------------------------------------------------------------
# quadrature second moments shared by the criteria


def _x_sq(n, a_sq):
    return 0.5 * (1.0 + 2.0 * n + 2.0 * a_sq.real)


def _p_sq(n, a_sq):
    return 0.5 * (1.0 + 2.0 * n - 2.0 * a_sq.real)


def _x1_x2(m: MomentTable) -> float:
    return (m.a1_a2 + m.a1d_a2).real


def _p1_p2(m: MomentTable) -> float:
    return (m.a1d_a2 - m.a1_a2).real


def duan_margin(m: MomentTable, c: float) -> float:
    """<(Du)^2> + <(Dv)^2> - (c^2 + 1/c^2); negative flags entanglement."""
    if c == 0:
        raise ValueError("c must be nonzero")
    cc = c * c
    u_mean = abs(c) * math.sqrt(2.0) * m.a1.real + math.sqrt(2.0) / c * m.a2.real
    v_mean = abs(c) * math.sqrt(2.0) * (m.a1.imag) - math.sqrt(2.0) / c * (m.a2.imag)
    u_sq = (
        cc * _x_sq(m.n1, m.a1_sq)
        + _x_sq(m.n2, m.a2_sq) / cc
        + 2.0 * (abs(c) / c) * _x1_x2(m)
    )
    v_sq = (
        cc * _p_sq(m.n1, m.a1_sq)
        + _p_sq(m.n2, m.a2_sq) / cc
        - 2.0 * (abs(c) / c) * _p1_p2(m)
    )
    return (u_sq - u_mean ** 2) + (v_sq - v_mean ** 2) - (cc + 1.0 / cc)


def duan_detects(m: MomentTable, c_grid=None):
    """Scan c over a signed log grid; detected when any margin is negative."""
    if c_grid is None:
        mags = np.logspace(-1, 1, 21)
        c_grid = np.concatenate([mags, -mags])
    margins = {float(c): duan_margin(m, float(c)) for c in c_grid}
    best = min(margins.values())
    return best < 0.0, best, margins


class ZhangResult(NamedTuple):
    detected: bool
    slack_pair: float      # 4 n1 n2 - 4 |<a1 a2>|^2
    slack_exchange: float  # 4 n1 n2 - 4 |<a1^dag a2>|^2


def zhang_detects(m: MomentTable) -> ZhangResult:
    """Simplified product-moment test, valid for zero first moments.

    Detected when either 4 n1 n2 < 4 |<a1 a2>|^2 or
    4 n1 n2 < 4 |<a1^dag a2>|^2.
    """
    if not m.first_moments_vanish:
        raise NonzeroFirstMoments(
            "the simplified inequalities require vanishing first moments"
        )
    lhs = 4.0 * m.n1 * m.n2
    s1 = lhs - 4.0 * abs(m.a1_a2) ** 2
    s2 = lhs - 4.0 * abs(m.a1d_a2) ** 2
    # strict inequalities: exact saturation (the family states saturate the
    # exchange one) must not register through rounding noise
    floor = -1e-11 * max(1.0, lhs)
    return ZhangResult(detected=(s1 < floor or s2 < floor), slack_pair=s1,
                       slack_exchange=s2)


class HzResult(NamedTuple):
    detected: bool
    slack: float  # <n1 n2> - |<a1 a2^dag>|^2


def hillery_zubairy_detects(m: MomentTable) -> HzResult:
    """Detected when |<a1 a2^dag>|^2 exceeds <n1 n2> strictly."""
    slack = m.n1_n2 - abs(m.a1d_a2) ** 2
    floor = -1e-11 * max(1.0, m.n1_n2)
    return HzResult(detected=slack < floor, slack=slack)


def abiuso_margin(source, kappa: float, sigma_src: float) -> float:
    """Coherent-source quadrature criterion margin; negative would flag
    entanglement.

    The trusted source emits coherent states with Gaussian amplitude spread
    sigma_src on two ancilla modes; averaging the squared joint quadratures
    over the source reduces, for arbitrary system states, to

        (k^2 + 1/k^2)/2 * (1 + (3 - 2 sqrt(2)) sigma^2) + system part

    with the system part the raw second moment of the same +-/- quadrature
    combinations.  Detection threshold: (k^2+1/k^2)/2 * sigma^2/(1+sigma^2).
    """
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    if sigma_src <= 0:
        raise ValueError("sigma_src must be positive")
    m = _as_moments(source)
    k2 = kappa * kappa
    coef = 0.5 * (k2 + 1.0 / k2)
    sys_u = (
        0.5 * k2 * _x_sq(m.n1, m.a1_sq)
        + 0.5 / k2 * _x_sq(m.n2, m.a2_sq)
        - _x1_x2(m)
    )
    sys_v = (
        0.5 * k2 * _p_sq(m.n1, m.a1_sq)
        + 0.5 / k2 * _p_sq(m.n2, m.a2_sq)
        + _p1_p2(m)
    )
    lhs = coef * (1.0 + (3.0 - 2.0 * math.sqrt(2.0)) * sigma_src ** 2) + sys_u + sys_v
    rhs = coef * sigma_src ** 2 / (1.0 + sigma_src ** 2)
    return lhs - rhs
