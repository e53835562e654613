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

SLICE = 1 << 14  # rounds scored at a time by simulate_classical_score


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
        pts += np.asarray(c)[:, None]
        return tuple(pts)

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

    All rounds are drawn first, the sampler then the slots, and then scored
    in consecutive slices of ``SLICE`` rounds: the normal coordinates of one
    slice, its x_sigma(t_k), and its tallies added into per-slot counts.  A
    round's phase w t_k takes one of only K values, since ``times[ks]``
    reads K times, so cos and sin are taken once per slot and gathered per
    round: the same values a per-round cos and sin give.  Working memory is
    the draws, 40 bytes per round (four float64 coordinates and an int64
    slot), plus about 2 MB for one slice's arrays.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    rng = np.random.default_rng(seed)
    x1, p1, x2, p2 = dist.sampler(rng, n_rounds)
    ks = rng.integers(0, protocol.K, n_rounds)
    plus = protocol.sigma == "+"
    w = spec.omega_plus if plus else spec.omega_minus
    phase = w * protocol.times(spec)
    cos_k, sin_k = np.cos(phase), np.sin(phase)
    mu_w = spec.mu * w
    pos = np.zeros(protocol.K, dtype=np.int64)
    zero = np.zeros(protocol.K, dtype=np.int64)
    for a in range(0, n_rounds, SLICE):
        cut = slice(a, a + SLICE)
        xp, pp, xm, pm = normal_coordinates(x1[cut], p1[cut], x2[cut], p2[cut], spec)
        x0, p0 = (xp, pp) if plus else (xm, pm)
        k = ks[cut]
        xt = x0 * cos_k[k] + (p0 / mu_w) * sin_k[k]
        pos += np.bincount(k[xt > 0.0], minlength=protocol.K)
        zero += np.bincount(k[xt == 0.0], minlength=protocol.K)
    total = np.bincount(ks, minlength=protocol.K)
    counts = tuple(zip(pos.tolist(), zero.tolist(), (total - pos - zero).tolist()))
    tot_pos, tot_zero = int(pos.sum()), int(zero.sum())
    p_hat = (tot_pos + 0.5 * tot_zero) / n_rounds
    mean_sq = (tot_pos + 0.25 * tot_zero) / n_rounds
    var = max(mean_sq - p_hat ** 2, 0.0)
    stderr = math.sqrt(var / n_rounds)
    return ScoreEstimate(p_value=float(p_hat), stderr=float(stderr), counts=counts)
