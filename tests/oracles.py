"""Reference implementations the tests compare the package against, and
fixtures they build inputs with.  Nothing in ``oscwit`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oscwit.classical import (
    bimodal,
    gaussian_cloud,
    point_mass,
    ring,
    uniform_box,
)
from oscwit.criteria import FamilyState, MomentTable
from oscwit.errors import DimensionMismatch, OscwitError, WrongBasisTag
from oscwit.fock import NORMAL, PHYSICAL, FockOperator, TwoModeState, partial_transpose_matrix
from oscwit.modes import (
    NormalModeSpec,
    fold_theta,
    mode_rotation_unitary,
    normal_coordinates,
    transform_state,
)
from oscwit.protocol import (
    ScoreEstimate,
    _psi_at_zero,
    classical_bound,
    pos_x_matrix,
    score_operator,
    score_state,
)


class UnstableStep(OscwitError):
    """Integrator step size violates the stability bound."""


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


def pos_x_matrix_reference(n_max: int) -> np.ndarray:
    """The half-line matrix of ``pos_x_matrix`` entry by entry: the Python
    double loop over index pairs the package replaced by array operations."""
    psi, dpsi = _psi_at_zero(n_max)
    p = 0.5 * np.eye(n_max + 1)
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            if (m + n) % 2 == 1:
                if m % 2 == 0:
                    p[m, n] = -psi[m] * dpsi[n] / (2.0 * (m - n))
                else:
                    p[m, n] = -psi[n] * dpsi[m] / (2.0 * (n - m))
    return p


@dataclass(frozen=True)
class HermitianBasis:
    """Trace-orthonormal Hermitian basis with element 0 proportional to 1."""

    elements: tuple
    n_max: int

    def __len__(self) -> int:
        return len(self.elements)

    def expand(self, matrix: np.ndarray) -> np.ndarray:
        """Real coefficients c_j = tr(B_j M) of a Hermitian matrix."""
        return np.array([np.trace(b @ matrix).real for b in self.elements])

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(self.elements[0])
        for c, b in zip(coeffs, self.elements):
            out = out + c * b
        return out


def hermitian_basis(n_max: int) -> HermitianBasis:
    """Orthonormal Hermitian basis (normalized generalized Gell-Mann set).

    Element 0 is 1/sqrt(d); then all symmetric and antisymmetric pair
    matrices, then the diagonal traceless ladder.  tr(B_j B_k) = delta_jk
    holds exactly by construction.
    """
    d = n_max + 1
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            mats.append(m)
    for l in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag) / np.sqrt(l * (l + 1.0)))
    assert len(mats) == d * d
    for m in mats:
        m.setflags(write=False)
    return HermitianBasis(tuple(mats), n_max)


def embed_state(rho: TwoModeState, n_max_new: int) -> TwoModeState:
    """Isometric embedding into a larger per-mode cutoff.

    Needed before basis rotations whenever the state's total excitation can
    exceed the current cutoff: rotation is exact only on complete
    total-number blocks.
    """
    if n_max_new < rho.n_max:
        raise DimensionMismatch("target cutoff below current one")
    if n_max_new == rho.n_max:
        return rho
    d_old, d_new = rho.n_max + 1, n_max_new + 1
    out = np.zeros((d_new * d_new, d_new * d_new), dtype=complex)
    r4 = rho.matrix.reshape(d_old, d_old, d_old, d_old)
    out.reshape(d_new, d_new, d_new, d_new)[
        :d_old, :d_old, :d_old, :d_old
    ] = r4
    return TwoModeState(out, n_max_new, rho.basis_tag, validate=rho.validate)


def stiffness_matrix(spec: NormalModeSpec) -> np.ndarray:
    """Mass-weighted potential matrix in coordinates xi_j = sqrt(m_j) x_j."""
    return np.array(
        [
            [spec.omega1 ** 2, spec.g / (2.0 * spec.mu)],
            [spec.g / (2.0 * spec.mu), spec.omega2 ** 2],
        ]
    )


def physical_coordinates(xp, pp, xm, pm, spec: NormalModeSpec):
    """Inverse of normal_coordinates."""
    c, s = math.cos(spec.theta), math.sin(spec.theta)
    r = (spec.m1 / spec.m2) ** 0.25
    x1 = (1.0 / r) * (c * np.asarray(xp) - s * np.asarray(xm))
    x2 = r * (s * np.asarray(xp) + c * np.asarray(xm))
    p1 = r * (c * np.asarray(pp) - s * np.asarray(pm))
    p2 = (1.0 / r) * (s * np.asarray(pp) + c * np.asarray(pm))
    return x1, p1, x2, p2


def qk_matrix_timeavg(K: int, n_max: int, t0: float = 0.0) -> FockOperator:
    """Brute-force oracle: (1/K) sum_k R(t_k) pos(X) R(t_k)^dag.

    R(t) = diag(exp(i n t)) is the free-rotation phase matrix.  Kept
    independent of qk_matrix as a cross-check of the mod-K mask.
    """
    pos = pos_x_matrix(n_max).matrix
    n = np.arange(n_max + 1)
    acc = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for k in range(K):
        t = 2.0 * math.pi * k / K + t0
        r = np.exp(1j * n * t)
        acc += (r[:, None] * pos) * r.conj()[None, :]
    return FockOperator(acc / K, n_max, 1)


def partial_transpose(op: FockOperator) -> FockOperator:
    """Transpose the second-mode indices; defined in the physical basis only."""
    if op.modes != 2:
        raise DimensionMismatch("partial transpose needs a two-mode operator")
    if op.basis_tag != PHYSICAL:
        raise WrongBasisTag(
            "partial transpose is taken in the physical {a1,a2} basis; "
            "rotate the operator first"
        )
    return FockOperator(
        partial_transpose_matrix(op.matrix, op.n_max + 1), op.n_max, 2, PHYSICAL
    )


def product_anchors(K: int, n_max: int, theta: float) -> list:
    """(score, state) of the four product states with z = 1 that start a
    certify row, from their own rotation at the cutoff n_max and their own
    Q: for each physical mode, the bottom and the top eigenvector of Q on
    that mode's levels <= n_max, with the other mode in vacuum."""
    d = n_max + 1
    u = mode_rotation_unitary(theta, n_max).matrix.real
    q = score_operator(K, n_max).matrix.real
    anchors = []
    # the columns of U at |k, 0> and at |0, k> of the physical modes
    for cols in (np.arange(d) * d, np.arange(d)):
        basis = u[:, cols]
        w, v = np.linalg.eigh(basis.T @ q @ basis)
        for k in (0, -1):
            x = basis @ v[:, k]
            anchors.append((float(w[k]), np.outer(x, x)))
    return anchors


def _residue_groups_reference(keys: np.ndarray, count: int, reduce: bool) -> list:
    if not reduce:
        return [np.arange(len(keys))]
    return [g for g in (np.nonzero(keys == k)[0] for k in range(count)) if len(g)]


def _flat_positions(groups: list, dim: int, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Where entry (r, c) of a dim x dim matrix sits among the row-major
    blocks m[g][:, g] of the index ``groups`` laid end to end; -1 for
    entries outside every block."""
    sizes = np.array([len(g) for g in groups])
    offsets = np.concatenate([[0], np.cumsum(sizes ** 2)])
    block, loc = np.full(dim, -1), np.zeros(dim, dtype=int)
    for k, g in enumerate(groups):
        block[g] = k
        loc[g] = np.arange(len(g))
    br, bc = block[r], block[c]
    pos = offsets[br] + loc[r] * sizes[br] + loc[c]
    return np.where((br == bc) & (br >= 0), pos, -1)


def phi_data_reference(K: int, theta: float, n_max: int, reduce: bool) -> tuple:
    """(Phi's data, the big blocks' multiplicities) of the theta row of
    ``sdp._row_data``, built term pair by term pair: the sectors, the big
    blocks and the doubled-space levels from n_max alone, and every term
    pair of a big block's basis vectors finding its slot positions through
    a slot lookup of its own (``_flat_positions``)."""
    d1, D1 = n_max + 1, 2 * n_max + 1
    i_idx, j_idx = np.divmod(np.arange(d1 * d1), d1)
    a, b = np.divmod(np.arange(D1 * D1), D1)
    t_sign = None
    if reduce and fold_theta(theta) == math.pi / 4:
        t_sign = -1 if theta % math.pi > math.pi / 2 else 1
    # the rho sectors: N_tot mod K, split by the parity of N_- under the swap
    n_small = i_idx + j_idx
    keys = n_small % K if t_sign is None else 2 * (n_small % K) + j_idx % 2
    sectors = _residue_groups_reference(keys, 2 * K, reduce)
    residues = [set((n_small[g] % K).tolist()) for g in sectors]
    # the big blocks, as (states, coefs, multiplicity)
    if t_sign is None:
        held = [(g[None], np.ones((1, len(g))), 1.0)
                for g in _residue_groups_reference((a - b) % K, K, reduce)]
    else:
        h = math.sqrt(0.5)
        held = []
        for r in range(K):
            g = np.nonzero((a - b) % K == r)[0]
            if (-r) % K > r:
                held.append((g[None], np.ones((1, len(g))), 2.0))
            elif (-r) % K == r:
                diag, up = g[a[g] == b[g]], g[a[g] < b[g]]
                low = b[up] * D1 + a[up]
                s = h * float(t_sign) ** (a[up] + b[up])
                one, half = np.ones(len(diag)), np.full(len(up), h)
                held.append((np.array([np.r_[diag, up], np.r_[diag, low]]),
                             np.array([np.r_[one, half], np.r_[0.0 * one, s]]), 1.0))
                held.append((np.array([up, low]), np.array([half, -s]), 1.0))
        held = [blk for blk in held if blk[0].shape[1]]
    rows = mode_rotation_unitary(theta, 2 * n_max).matrix.real[i_idx * D1 + j_idx]
    n_tot = a + b
    slots = list(dict.fromkeys(frozenset(res) for res in residues))
    cols = [np.nonzero((n_tot <= 2 * n_max) & np.isin(n_tot % K, list(res)))[0]
            for res in slots]
    slot_of = [slots.index(frozenset(res)) for res in residues]
    big_starts = np.cumsum([0] + [states.shape[1] ** 2 for states, _, _ in held])
    parts = []
    for k, (states, coefs, _) in enumerate(held):
        for sx, cx in zip(states, coefs):
            for sy, cy in zip(states, coefs):
                pos = _flat_positions(cols, D1 * D1, a[sx][:, None] * D1 + b[sy],
                                      a[sy] * D1 + b[sx][:, None]).ravel()
                coef = np.outer(cx, cy).ravel()
                live = np.nonzero((pos >= 0) & (coef != 0.0))[0]
                parts.append((big_starts[k] + live, pos[live], coef[live]))
    phi = ([rows[np.ix_(g, cols[s])] for g, s in zip(sectors, slot_of)],
           slot_of, np.cumsum([len(c) ** 2 for c in cols]),
           tuple(np.concatenate(part) for part in zip(*parts)))
    return phi, [mult for _, _, mult in held]


def n_rounds(est: ScoreEstimate) -> int:
    """The rounds an estimate's per-slot tallies count."""
    return int(sum(sum(c) for c in est.counts))


def slot_counts_by_mask(dist, spec: NormalModeSpec, protocol, n_rounds: int,
                        seed: int) -> tuple:
    """``simulate_classical_score``'s per-slot (positive, zero, negative)
    tallies, drawn the same way and counted with one boolean mask per slot."""
    rng = np.random.default_rng(seed)
    x1, p1, x2, p2 = dist.sampler(rng, n_rounds)
    ks = rng.integers(0, protocol.K, n_rounds)
    xp, pp, xm, pm = normal_coordinates(x1, p1, x2, p2, spec)
    if protocol.sigma == "+":
        x0, p0, w = xp, pp, spec.omega_plus
    else:
        x0, p0, w = xm, pm, spec.omega_minus
    phase = w * protocol.times(spec)[ks]
    xt = x0 * np.cos(phase) + (p0 / (spec.mu * w)) * np.sin(phase)
    counts = []
    for k in range(protocol.K):
        sel = xt[ks == k]
        pos = int(np.count_nonzero(sel > 0.0))
        zero = int(np.count_nonzero(sel == 0.0))
        counts.append((pos, zero, len(sel) - pos - zero))
    return tuple(counts)


def counts_consistent(est: ScoreEstimate) -> bool:
    """The tallies reproduce the estimate, exact zeros weighted by 1/2."""
    pos = sum(c[0] for c in est.counts)
    zero = sum(c[1] for c in est.counts)
    n = n_rounds(est)
    return n > 0 and abs(est.p_value - (pos + 0.5 * zero) / n) < 1e-12


def family_levels(fs: FamilyState) -> np.ndarray:
    """The + mode level of each amplitude of a family state."""
    step = fs.K if fs.support_mode == "multiples" else 1
    return step * np.arange(len(fs.psi))


def mean_n(fs: FamilyState) -> float:
    return float(np.sum(family_levels(fs) * np.abs(fs.psi) ** 2))


def mean_n_sq(fs: FamilyState) -> float:
    return float(np.sum(family_levels(fs) ** 2 * np.abs(fs.psi) ** 2))


def family_moments_closed_form(fs: FamilyState) -> MomentTable:
    """The analytic moments of a family state (for cross-validation)."""
    c, s = math.cos(fs.theta), math.sin(fs.theta)
    n = mean_n(fs)
    return MomentTable(
        a1=0.0, a2=0.0, a1_sq=0.0, a2_sq=0.0, a1_a2=0.0,
        n1=c * c * n, n2=s * s * n, a1d_a2=s * c * n,
        n1_n2=(s * c) ** 2 * (mean_n_sq(fs) - n),
    )


def duan_family_margin_closed_form(fs: FamilyState, c: float) -> float:
    """Analytic family-state margin: sin(2t) <n> (c^2/tan t + tan t / c^2)."""
    t = fs.theta
    cc = c * c
    return math.sin(2 * t) * mean_n(fs) * (cc / math.tan(t) + math.tan(t) / cc)


def abiuso_family_margin_closed_form(fs: FamilyState, kappa: float,
                                     sigma_src: float) -> float:
    """Analytic family margin; reduces to the kappa = 1 display formula."""
    k2 = kappa * kappa
    coef = 0.5 * (k2 + 1.0 / k2)
    c, s = math.cos(fs.theta), math.sin(fs.theta)
    lhs = (
        coef * ((3.0 - 2.0 * math.sqrt(2.0)) * sigma_src ** 2 + 2.0)
        + mean_n(fs) * (k2 * c * c + s * s / k2)
    )
    return lhs - coef * sigma_src ** 2 / (1.0 + sigma_src ** 2)


def witness_expectation(K: int, rho: TwoModeState, theta: float = math.pi / 4) -> float:
    """tr(W rho) = classical_bound - score, evaluated exactly.

    Physical-basis states are embedded into the doubled cutoff before the
    rotation so the basis change is exact for any support.
    """
    if rho.basis_tag == NORMAL:
        score = score_state(rho, K)
    else:
        big = embed_state(rho, 2 * rho.n_max)
        score = score_state(transform_state(big, theta, NORMAL), K)
    return float(classical_bound(K)) - score


def erfinv_probe_hint(p_expectation: float, epsilon: float) -> float:
    """Displacement beyond which the witness expectation must lose to eps P."""
    from scipy.special import erfinv

    arg = 1.0 - 6.0 * epsilon * p_expectation / (1.0 + epsilon)
    arg = min(max(arg, -1.0 + 1e-15), 1.0 - 1e-15)
    return float(erfinv(arg))
