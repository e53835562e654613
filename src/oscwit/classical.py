"""Classical baselines: Monte-Carlo protocol rounds.

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
    # per-slot tallies (positive, zero, the rest) in one pass each
    total = np.bincount(ks, minlength=protocol.K)
    pos = np.bincount(ks[xt > 0.0], minlength=protocol.K)
    zero = np.bincount(ks[xt == 0.0], minlength=protocol.K)
    counts = tuple(zip(pos.tolist(), zero.tolist(), (total - pos - zero).tolist()))
    tot_pos, tot_zero = int(pos.sum()), int(zero.sum())
    p_hat = (tot_pos + 0.5 * tot_zero) / n_rounds
    mean_sq = (tot_pos + 0.25 * tot_zero) / n_rounds
    var = max(mean_sq - p_hat ** 2, 0.0)
    stderr = math.sqrt(var / n_rounds)
    return ScoreEstimate(p_value=float(p_hat), stderr=float(stderr), counts=counts)
