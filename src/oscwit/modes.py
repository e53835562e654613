"""Normal-mode decomposition of two coupled oscillators.

Hamiltonian convention:

    H = p1^2/(2 m1) + p2^2/(2 m2)
        + m1 w1^2 x1^2 / 2 + m2 w2^2 x2^2 / 2 + g x1 x2 / 2

With mu = sqrt(m1 m2) and mixing angle
theta = arctan2(g, mu (w1^2 - w2^2)) / 2, the coordinates

    x+ = (m1/m2)^{1/4} cos(theta) x1 + (m2/m1)^{1/4} sin(theta) x2
    x- = (m2/m1)^{1/4} cos(theta) x2 - (m1/m2)^{1/4} sin(theta) x1

decouple H into two oscillators of mass mu and frequencies
w_pm^2 = (w1^2 + w2^2)/2 +- sqrt(((w1^2 - w2^2)/2)^2 + g^2/(4 mu^2)),
the + sign belonging to x+.  The momentum rows carry the reciprocal mass
weights so the map is symplectic; uniform precession of (x_s, p_s) needs
the canonical pairing.  On Fock states the rotation is the unitary of
``mode_rotation_unitary``, built one total-number block at a time.

Note the sign of the cross term: with coupling -g x1 x2 / 2 the angle and
frequency assignment above would fail to diagonalize H; the three formulas
are mutually consistent only for +g x1 x2 / 2, which is the convention
used everywhere in this package (g may be negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngle, SameBasis, Unstable
from .fock import NORMAL, PHYSICAL, FockOperator, TwoModeState

#: below this scale (relative to mu * max(w1,w2)^2) both arctan2 arguments
#: count as zero and the angle is caller-supplied
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class NormalModeSpec:
    """Physical parameters plus derived normal-mode data."""

    m1: float
    m2: float
    omega1: float
    omega2: float
    g: float
    theta: float
    omega_plus: float
    omega_minus: float
    mu: float

    def period(self, sigma: str = "+") -> float:
        w = self.omega_plus if sigma == "+" else self.omega_minus
        return 2.0 * math.pi / w


def fold_theta(theta: float) -> float:
    """Map any mixing angle into [0, pi/4].

    theta -> -theta is a sign flip of x2 and theta -> pi/2 - theta a
    relabelling of the two oscillators; both are local operations on the
    physical split, so every entanglement quantity agrees at the folded
    angle.
    """
    t = math.fmod(theta, math.pi)
    if t < 0:
        t += math.pi
    if t > math.pi / 2:
        t = math.pi - t
    if t > math.pi / 4:
        t = math.pi / 2 - t
    return t


def normal_mode_params(
    m1: float,
    m2: float,
    omega1: float,
    omega2: float,
    g: float,
    theta: float | None = None,
) -> NormalModeSpec:
    """Derive (theta, omega_pm, mu) from the physical parameters.

    ``theta`` may only be supplied in the degenerate case g = 0,
    omega1 = omega2, where any angle is a valid normal-mode choice.
    """
    if min(m1, m2) <= 0 or min(omega1, omega2) <= 0:
        raise ValueError("masses and frequencies must be positive")
    mu = math.sqrt(m1 * m2)
    y = g
    x = mu * (omega1 ** 2 - omega2 ** 2)
    scale = mu * max(omega1, omega2) ** 2
    degenerate = abs(y) <= DEGENERATE_TOL * scale and abs(x) <= DEGENERATE_TOL * scale
    if degenerate:
        if theta is None:
            raise DegenerateAngle(
                "g = 0 and omega1 = omega2: every angle is a normal-mode "
                "choice, pass theta explicitly"
            )
        angle = float(theta)
    else:
        if theta is not None:
            raise ValueError("theta may only be supplied in the degenerate case")
        angle = math.atan2(y, x) / 2.0
    avg = (omega1 ** 2 + omega2 ** 2) / 2.0
    shift = math.hypot((omega1 ** 2 - omega2 ** 2) / 2.0, g / (2.0 * mu))
    wp2 = avg + shift
    wm2 = avg - shift
    if wm2 <= 0:
        raise Unstable(f"omega_minus^2 = {wm2:.3e} <= 0: coupling beyond stability")
    return NormalModeSpec(
        m1=m1, m2=m2, omega1=omega1, omega2=omega2, g=g,
        theta=angle, omega_plus=math.sqrt(wp2), omega_minus=math.sqrt(wm2), mu=mu,
    )


def normal_coordinates(x1, p1, x2, p2, spec: NormalModeSpec):
    """Map phase-space points to normal coordinates (x+, p+, x-, p-).

    Accepts scalars or arrays; the momentum rows use reciprocal mass
    weights so the transformation is symplectic.
    """
    c, s = math.cos(spec.theta), math.sin(spec.theta)
    r = (spec.m1 / spec.m2) ** 0.25
    xp = r * c * np.asarray(x1) + (1.0 / r) * s * np.asarray(x2)
    xm = (1.0 / r) * c * np.asarray(x2) - r * s * np.asarray(x1)
    pp = (1.0 / r) * c * np.asarray(p1) + r * s * np.asarray(p2)
    pm = r * c * np.asarray(p2) - (1.0 / r) * s * np.asarray(p1)
    return xp, pp, xm, pm


def mode_rotation_unitary(theta: float, n_max: int) -> FockOperator:
    """Two-mode unitary U with U^dag a1 U = cos(t) a1 + sin(t) a2 etc.

    U = exp(theta G), G = a1^dag a2 - a2^dag a1, conserves the total number
    N, so it is built one N block at a time and is exactly zero between
    blocks.  On the levels |k, N-k>, G[k+1, k] = -G[k, k+1] = sqrt((k+1)(N-k))
    and G = -i D J D^dag with D = diag(i^k) and J real symmetric, so
    U[a, b] = sum over J's eigenpairs (w, v) of Re(i^(a-b) e^(-i theta w)) v_a v_b.
    Blocks with N > n_max keep only the levels inside the cutoff, as the
    truncated ladder operators do, so U is exact on every complete block.
    The real blocks fill one complex matrix, the one the operator holds.
    Normal-mode Fock states map to physical ones via |m,k>_{+-} = U^dag |m,k>_{12}.
    """
    d = n_max + 1
    u = np.zeros((d * d, d * d), dtype=complex)
    for total in range(2 * n_max + 1):
        k = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        off = np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
        w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        c = (v * np.cos(theta * w)) @ v.T
        s = (v * np.sin(theta * w)) @ v.T
        # i^(a-b) is 1, i, -1 or -i
        quarter = np.subtract.outer(k, k) % 4
        idx = k * d + total - k
        u[np.ix_(idx, idx)] = np.choose(quarter, [c, s, -c, -s])
    return FockOperator(u, n_max, 2, PHYSICAL)


def _rotate(m: np.ndarray, theta: float, n_max: int, target_basis: str) -> np.ndarray:
    """A normal-mode matrix M becomes U^dag M U on physical labels; a
    physical one becomes U M U^dag on normal-mode labels."""
    u = mode_rotation_unitary(theta, n_max).matrix
    if target_basis == PHYSICAL:
        return u.conj().T @ m @ u
    return u @ m @ u.conj().T


def transform_state(rho: TwoModeState, theta: float, target_basis: str) -> TwoModeState:
    """Re-express a two-mode state in the other mode basis.

    Exact whenever the state's total-excitation support fits inside the
    cutoff (always true for states built within the truncation from
    normal-mode data of total number <= n_max).
    """
    if target_basis not in (PHYSICAL, NORMAL):
        raise ValueError(f"unknown target basis {target_basis!r}")
    if rho.basis_tag == target_basis:
        raise SameBasis(f"state already tagged {target_basis!r}")
    m = _rotate(rho.matrix, theta, rho.n_max, target_basis)
    return TwoModeState(m, rho.n_max, target_basis, validate=rho.validate)


def transform_operator(op: FockOperator, theta: float, target_basis: str) -> FockOperator:
    """Same basis change for operators (no trace/positivity checks)."""
    if op.modes != 2:
        raise SameBasis("basis change needs a two-mode operator")
    if op.basis_tag == target_basis:
        raise SameBasis(f"operator already tagged {target_basis!r}")
    m = _rotate(op.matrix, theta, op.n_max, target_basis)
    return FockOperator(m, op.n_max, 2, target_basis)
