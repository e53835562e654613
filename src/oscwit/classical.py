"""Classical baselines: Monte-Carlo protocol rounds and integration oracles.

Each Monte-Carlo round draws one phase-space point, picks one of the K
measurement times uniformly at random, rotates the chosen normal coordinate
there exactly, and tallies its sign.  The momentum enters in position units,
p~_s = p_s / (mu w_s), so that (x_s, p~_s) precesses uniformly.

Exact zeros get weight 1/2; the zero threshold is literal 0.0 because
continuous samplers hit it with probability zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnstableStep
from .modes import NormalModeSpec, normal_coordinates
from .protocol import ProtocolSpec, ScoreEstimate


@dataclass(frozen=True)
class ClassicalDistribution:
    """Phase-space sampler plus a label recorded in outputs.

    sampler(rng, size) returns four arrays (x1, p1, x2, p2).
    """

    sampler: Callable
    descriptor: str


def gaussian_cloud(scale: float = 1.0, center=(0.0, 0.0, 0.0, 0.0)) -> ClassicalDistribution:
    c = tuple(float(v) for v in center)

    def sample(rng, size):
        pts = rng.normal(0.0, scale, size=(4, size))
        return tuple(pts[i] + c[i] for i in range(4))

    return ClassicalDistribution(sample, f"gaussian(scale={scale},center={c})")


def point_mass(x1: float = 1.0, p1: float = 0.0, x2: float = 1.0,
               p2: float = 0.0) -> ClassicalDistribution:
    vals = (x1, p1, x2, p2)

    def sample(rng, size):
        return tuple(np.full(size, v) for v in vals)

    return ClassicalDistribution(sample, f"point{vals}")


def ring(radius: float = 1.0) -> ClassicalDistribution:
    """Both oscillators on circles of the given radius, random phases."""

    def sample(rng, size):
        ph1 = rng.uniform(0.0, 2.0 * math.pi, size)
        ph2 = rng.uniform(0.0, 2.0 * math.pi, size)
        return (radius * np.cos(ph1), radius * np.sin(ph1),
                radius * np.cos(ph2), radius * np.sin(ph2))

    return ClassicalDistribution(sample, f"ring(radius={radius})")


def bimodal(offset: float = 1.5, scale: float = 0.3) -> ClassicalDistribution:
    """Equal mixture of two displaced Gaussian clouds (x1 shifted by +-offset)."""

    def sample(rng, size):
        signs = rng.choice((-1.0, 1.0), size)
        pts = rng.normal(0.0, scale, size=(4, size))
        pts[0] += signs * offset
        return tuple(pts)

    return ClassicalDistribution(sample, f"bimodal(offset={offset},scale={scale})")


def uniform_box(half_width: float = 1.0) -> ClassicalDistribution:
    def sample(rng, size):
        pts = rng.uniform(-half_width, half_width, size=(4, size))
        return tuple(pts)

    return ClassicalDistribution(sample, f"uniform_box(half_width={half_width})")


def bundled_distributions() -> list:
    """The scenarios exercised by the no-false-positive checks."""
    return [
        gaussian_cloud(1.0),
        gaussian_cloud(0.4, center=(1.0, 0.0, -0.5, 0.2)),
        point_mass(1.0, 0.0, 1.0, 0.0),
        ring(1.3),
        bimodal(),
        uniform_box(2.0),
    ]


def simulate_classical_score(
    dist: ClassicalDistribution,
    spec: NormalModeSpec,
    protocol: ProtocolSpec,
    n_rounds: int,
    seed: int,
) -> ScoreEstimate:
    """Estimate the protocol score of a classical phase-space distribution.

    Seed-reproducible: identical seed gives identical counts.  The returned
    stderr is the i.i.d. standard error of the per-round score (values in
    {0, 1/2, 1}).
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    rng = np.random.default_rng(seed)
    x1, p1, x2, p2 = dist.sampler(rng, n_rounds)
    ks = rng.integers(0, protocol.K, n_rounds)
    xp, pp, xm, pm = normal_coordinates(x1, p1, x2, p2, spec)
    if protocol.sigma == "+":
        x0, p0, w = xp, pp, spec.omega_plus
    else:
        x0, p0, w = xm, pm, spec.omega_minus
    times = protocol.times(spec)
    phase = w * times[ks]
    xt = x0 * np.cos(phase) + (p0 / (spec.mu * w)) * np.sin(phase)
    counts = []
    for k in range(protocol.K):
        sel = xt[ks == k]
        pos = int(np.count_nonzero(sel > 0.0))
        zero = int(np.count_nonzero(sel == 0.0))
        counts.append((pos, zero, len(sel) - pos - zero))
    tot_pos = sum(c[0] for c in counts)
    tot_zero = sum(c[1] for c in counts)
    p_hat = (tot_pos + 0.5 * tot_zero) / n_rounds
    mean_sq = (tot_pos + 0.25 * tot_zero) / n_rounds
    var = max(mean_sq - p_hat ** 2, 0.0)
    stderr = math.sqrt(var / n_rounds)
    return ScoreEstimate(p_value=float(p_hat), stderr=float(stderr), counts=tuple(counts))


def _forces(x1: float, x2: float, spec: NormalModeSpec):
    f1 = -spec.m1 * spec.omega1 ** 2 * x1 - 0.5 * spec.g * x2
    f2 = -spec.m2 * spec.omega2 ** 2 * x2 - 0.5 * spec.g * x1
    return f1, f2


def energy(x1, p1, x2, p2, spec: NormalModeSpec) -> float:
    return float(
        p1 ** 2 / (2 * spec.m1)
        + p2 ** 2 / (2 * spec.m2)
        + 0.5 * spec.m1 * spec.omega1 ** 2 * x1 ** 2
        + 0.5 * spec.m2 * spec.omega2 ** 2 * x2 ** 2
        + 0.5 * spec.g * x1 * x2
    )


def evolve_exact(x1, p1, x2, p2, spec: NormalModeSpec, t: float):
    """Closed-form evolution through the normal-mode rotations."""
    from .modes import physical_coordinates

    xp, pp, xm, pm = normal_coordinates(x1, p1, x2, p2, spec)
    out = []
    for x0, p0, w in ((xp, pp, spec.omega_plus), (xm, pm, spec.omega_minus)):
        c, s = math.cos(w * t), math.sin(w * t)
        x_t = x0 * c + (p0 / (spec.mu * w)) * s
        p_t = p0 * c - spec.mu * w * x0 * s
        out.extend((x_t, p_t))
    return physical_coordinates(out[0], out[1], out[2], out[3], spec)


def integrate_trajectory(
    x1: float, p1: float, x2: float, p2: float,
    spec: NormalModeSpec, t: float, dt: float,
):
    """Velocity-Verlet integration of the coupled Hamiltonian up to time t.

    Raises UnstableStep unless dt < 0.1 / omega_plus.  Global error is
    O(dt^2) against the exact normal-mode rotation.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt >= 0.1 / spec.omega_plus:
        raise UnstableStep(f"dt={dt} violates dt < 0.1/omega_plus = {0.1 / spec.omega_plus:.3e}")
    n_full = int(math.floor(t / dt + 1e-12))
    rem = t - n_full * dt
    m1, m2 = spec.m1, spec.m2
    f1, f2 = _forces(x1, x2, spec)
    for _ in range(n_full):
        ph1 = p1 + 0.5 * dt * f1
        ph2 = p2 + 0.5 * dt * f2
        x1 += dt * ph1 / m1
        x2 += dt * ph2 / m2
        f1, f2 = _forces(x1, x2, spec)
        p1 = ph1 + 0.5 * dt * f1
        p2 = ph2 + 0.5 * dt * f2
    if rem > 1e-15 * max(1.0, abs(t)):
        ph1 = p1 + 0.5 * rem * f1
        ph2 = p2 + 0.5 * rem * f2
        x1 += rem * ph1 / m1
        x2 += rem * ph2 / m2
        f1, f2 = _forces(x1, x2, spec)
        p1 = ph1 + 0.5 * rem * f1
        p2 = ph2 + 0.5 * rem * f2
    return x1, p1, x2, p2


def oscillator_eigenfunction(n: int, x) -> np.ndarray:
    """psi_n(x) in natural units, by the stable three-term recursion."""
    x = np.asarray(x, dtype=float)
    h_prev = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n == 0:
        return h_prev
    h = math.sqrt(2.0) * x * h_prev
    for k in range(2, n + 1):
        h_prev, h = h, np.sqrt(2.0 / k) * x * h - np.sqrt((k - 1.0) / k) * h_prev
    return h


def hermite_overlap_quadrature(m: int, n: int) -> float:
    """integral_0^inf psi_m psi_n dx by adaptive quadrature (abs err <= 1e-12).

    Ground-truth oracle for the half-line matrix elements of pos(X).
    """
    from scipy.integrate import quad

    if m < 0 or n < 0:
        raise ValueError("indices must be >= 0")

    def integrand(x):
        return float(oscillator_eigenfunction(m, x) * oscillator_eigenfunction(n, x))

    # split at the outer turning point; the tail is a clean decaying integral
    split = math.sqrt(2.0 * max(m, n) + 1.0) + 1.0
    v1, e1 = quad(integrand, 0.0, split, epsabs=5e-14, epsrel=1e-13, limit=400)
    v2, e2 = quad(integrand, split, np.inf, epsabs=5e-14, epsrel=1e-13, limit=400)
    if e1 + e2 > 1e-12:
        raise ArithmeticError(f"quadrature error estimate {e1 + e2:.2e} above 1e-12")
    return v1 + v2
