"""Minimum certifiable entanglement for an observed protocol score.

Solves, over density operators rho on the truncated two-mode normal-mode
space (levels <= n per mode),

    minimize  tr(varrho_+)   subject to   tr(rho Q_K) = P,
    rho^{Gamma_2} = varrho_+ - varrho_-,   rho, varrho_± >= 0,

where the partial transpose is taken after re-expressing rho in the
physical basis on the doubled space (levels <= 2n per mode).  The optimum z
gives the minimum logarithmic negativity S_N = log(2z - 1) of any state
compatible with the score.

Reported values are honest certificates independent of solver internals:

* the primal value comes from an exactly feasible state (projected, score
  repaired by mixing), evaluated by eigendecomposition;
* the dual bound comes from a feasible dual triple (Lambda in [0,1],
  scalars via a one-dimensional concave search), so weak duality holds at
  every recorded iterate by construction.

Both engines offer their iterates to one certificate keeper,
``_Certificates``, which makes both bounds, keeps the best of each with
its state and Lambda, records their history and decides when the gap is
closed.  A splitting polish after the interior point continues on the same
keeper and warm-starts from its best state and Lambda.

``dual_gap`` is reported in the same (log) units as ``s_n``; a positive
certification means s_n - dual_gap = log(2 z_lb - 1) > 0.  A z-domain gap
would overstate certainty near z = 1 where the logarithm is steep.

Two engines: a primal-dual interior-point method (HKM search direction,
Mehrotra predictor-corrector, dense block linear algebra) and a
primal-dual splitting fallback for spaces too large for the Schur
complement.

An exact discrete symmetry shrinks every solve: conjugation by
exp(i phi N_tot) with phi = 2 pi k / K fixes the constraints (Q_K couples
only levels equal mod K) and, being a product of local phase unitaries on
the physical split, preserves the partial-transpose spectrum.  Averaging
over the K phases therefore maps feasible points to feasible points
without raising the objective, so the optimum is attained on states
block-diagonal in N_tot mod K, and varrho_± can be taken block-diagonal in
(n_1 - n_2) mod K.  The reduction is exact, not a truncation; tests
compare reduced and unreduced solves.  Both engines work per sector and
share one sector-blocked map, the problem's own ``SdpProblem.phi`` (embed,
rotate, partial-transpose) and its adjoint ``SdpProblem.phi_adjoint``.  The
splitting engine holds rho and its dual variable as sector blocks, applies
Phi and Phi* through them, and clips and projects block by block.  The
interior-point engine runs one loop over one list of PSD sector blocks
(rho, varrho_+, varrho_-); its partial-transpose match rows are the svec
matrix of the same map.  The certificate
keeper works in the same sector blocks: it projects a state block by block,
repairs its score inside one sector and takes its primal value from the
spectra of the big sector blocks.  An eigenspace face is spanned sector by
sector, so it keeps the blocks too.  The full density matrix is built once,
for the returned solution.

At theta = pi/4 (after ``fold_theta``, exactly) a second exact symmetry
halves the blocks.  Let P_- = (-1)^N_- and T = SWAP of the physical modes
at theta = pi/4 (mod pi), T = SWAP (-1)^(N_1 + N_2) at -pi/4 (mod pi).
Then Phi(P_- rho P_-) = T Phi(rho) T^T, so P_- keeps the objective, and it
keeps the trace and the score (Q_K acts on the + mode alone).  The same
averaging argument puts the optimum on states even under P_-: each rho
sector splits by the parity of N_-, and Phi(rho) commutes with T.  T maps
the big sector r onto -r, so one sector of each pair is held, with
multiplicity 2, and a sector that T maps onto itself splits into its T-even
and T-odd parts, (|a, b> +- T|a, b>)/sqrt 2; ``phi`` forms them by its
fixed gather.  The multiplicity weights every sum over the big blocks: the
primal value tr|Phi(rho)|, the inner product in which ``phi_adjoint`` is
the adjoint, and the interior point's objective and Lambda = -y/m.  Both
certificates stay honest.  A state even under P_- is a state, and
tr|Phi(rho)| counts every sector of its image, since sector -r is T times
sector r.  A Lambda held in these blocks is a T-invariant 0 <= Lambda <= 1,
whose Phi*(Lambda) commutes with P_-, so the minimum of <rho, Phi*(Lambda)>
over all feasible states is attained on P_- even ones, where the dual bound
takes it.  Any other angle, even one within rounding of pi/4, keeps the
mod-K blocks.

A sweep certifies each theta row as a unit.  z(rho) = tr Phi(rho)_+ is
convex in rho and the score is linear in it.  So the mix of two feasible
states ("anchors") that bracket a score p, in the proportion that hits p,
is a feasible state whose z is at most the larger anchor z.  When the
anchors have z = 1 up to the tolerance, the mix meets the trivial dual
bound z_lb = 1 at once and the cell costs no iterations.  The vacuum is
always such an anchor (Phi maps it onto itself), and every cell of the row
that ends with z_lb = 1 adds its state; the row is solved in descending p,
so only its first z = 1 cell runs an engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleTarget, NumericalFailure
from .fock import NORMAL, TwoModeState
from .modes import fold_theta, mode_rotation_unitary
from .protocol import qk_matrix, score_operator

FACE_TOL = 1e-9
ENGINES = ("auto", "interior-point", "first-order")


# ---------------------------------------------------------------------------
# symmetric-vector packing


def _svec_data(d: int):
    """Index arrays packing Sym(d) isometrically into R^{d(d+1)/2}."""
    rows, cols = np.triu_indices(d)
    scale = np.where(rows == cols, 1.0, math.sqrt(2.0))
    return rows, cols, scale


def _svec(m: np.ndarray, data) -> np.ndarray:
    rows, cols, scale = data
    return m[..., rows, cols] * scale


def _smat(v: np.ndarray, d: int, data) -> np.ndarray:
    rows, cols, scale = data
    m = np.zeros(v.shape[:-1] + (d, d))
    vals = v / scale
    m[..., rows, cols] = vals
    m[..., cols, rows] = vals
    return m


def _symkron(a: np.ndarray, b: np.ndarray, svec_data) -> np.ndarray:
    """svec-basis matrix of M -> (a M b^T + b M a^T)/2 for symmetric a, b.

    Entry ((r1, c1), (r2, c2)) of the symmetrized Kronecker product, folded
    over the swap (r2, c2) -> (c2, r2), with the entries of a and b
    gathered through the svec indices ``svec_data = _svec_data(len(a))``
    alone (Alizadeh, Haeberly & Overton, SIAM J. Optim. 8, 746 (1998))."""
    rows, cols, scale = svec_data
    a_r, a_c, b_r, b_c = a[rows], a[cols], b[rows], b[cols]
    sub = (0.5 * (a_r[:, rows] * b_c[:, cols] + b_r[:, rows] * a_c[:, cols])
           + 0.5 * (a_r[:, cols] * b_c[:, rows] + b_r[:, cols] * a_c[:, rows]))
    sub *= 0.5 * np.outer(scale, scale)
    return sub


# ---------------------------------------------------------------------------
# problem data


@dataclass
class _BlockSpace:
    """A direct sum of symmetric blocks given by index groups.

    ``pack`` and ``unpack`` broadcast over leading axes."""

    dim: int                       # ambient flat dimension
    groups: list                   # list of index arrays
    svec_data: list = field(init=False)
    svec_sizes: list = field(init=False)

    def __post_init__(self):
        self.svec_data = [_svec_data(len(g)) for g in self.groups]
        self.svec_sizes = [len(g) * (len(g) + 1) // 2 for g in self.groups]

    @property
    def total(self) -> int:
        return int(sum(self.svec_sizes))

    def blocks_from_full(self, m: np.ndarray) -> list:
        return [m[g[:, None], g] for g in self.groups]

    def full_from_blocks(self, blocks: list) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for g, b in zip(self.groups, blocks):
            m[g[:, None], g] = b
        return m

    def pack(self, blocks: list) -> np.ndarray:
        return np.concatenate(
            [_svec(b, sd) for b, sd in zip(blocks, self.svec_data)], axis=-1
        ) if self.groups else np.zeros(0)

    def unpack(self, v: np.ndarray) -> list:
        out, ofs = [], 0
        for g, sd, sz in zip(self.groups, self.svec_data, self.svec_sizes):
            out.append(_smat(v[..., ofs:ofs + sz], len(g), sd))
            ofs += sz
        return out

    def eye(self, scale: float = 1.0) -> list:
        return [scale * np.eye(len(g)) for g in self.groups]


def _residue_groups(labels: np.ndarray, K: int, reduce: bool,
                    parity: np.ndarray | None = None) -> list:
    """The indices of each residue of ``labels`` mod K, in residue order and
    split by ``parity`` mod 2 (even first) when it is given; one group of
    every index when not reducing."""
    if not reduce:
        return [np.arange(len(labels))]
    keys = labels % K if parity is None else 2 * (labels % K) + parity % 2
    groups = (np.nonzero(keys == k)[0] for k in range(K if parity is None else 2 * K))
    return [g for g in groups if len(g)]


def _held_blocks(n_max: int, K: int, reduce: bool, t_sign: int | None) -> list:
    """The blocks of the big variable, as (states, coefs, multiplicity).

    Column p of a block is the unit vector sum_t coefs[t, p] |states[t, p]>
    of the doubled physical space, in the basis |a, b> of index a D1 + b.
    Without ``t_sign`` the blocks are the (a - b) mod K sectors, one term
    with coefficient 1 and multiplicity 1 each.  With it, T|a, b> =
    t_sign^(a + b) |b, a> maps sector r onto sector -r, and a T-invariant
    matrix is held as one sector of each pair (r, -r), with multiplicity 2,
    and the T-even and T-odd parts of each sector T maps onto itself:
    |a, a> and (|a, b> + s|b, a>)/sqrt 2, and (|a, b> - s|b, a>)/sqrt 2,
    for a < b and s = t_sign^(a + b).
    """
    D1 = 2 * n_max + 1
    a, b = np.divmod(np.arange(D1 * D1), D1)
    if t_sign is None:
        return [(g[None], np.ones((1, len(g))), 1.0)
                for g in _residue_groups(a - b, K, reduce)]
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
    return [blk for blk in held if blk[0].shape[1]]


def _flat_positions(groups: list, dim: int, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Where entry (r, c) of a dim x dim matrix sits among the row-major
    blocks m[g][:, g] of the index ``groups`` laid end to end; entries
    outside every block point at the slot just past the end, which holds a
    zero."""
    sizes = np.array([len(g) for g in groups])
    offsets = np.concatenate([[0], np.cumsum(sizes ** 2)])
    block, loc = np.full(dim, -1), np.zeros(dim, dtype=int)
    for k, g in enumerate(groups):
        block[g] = k
        loc[g] = np.arange(len(g))
    br, bc = block[r], block[c]
    pos = offsets[br] + loc[r] * sizes[br] + loc[c]
    return np.where((br == bc) & (br >= 0), pos, offsets[-1])


def _gather(flat: np.ndarray, terms: list) -> np.ndarray:
    """sum of coef * flat[..., idx] over the (idx, coef) terms; a coef of
    None reads the entries as they are."""
    out = None
    for idx, coef in terms:
        part = flat[idx] if flat.ndim == 1 else np.take(flat, idx, axis=-1)
        if coef is not None:
            part *= coef
        out = part if out is None else out + part
    return out


def _unit_or(coef: np.ndarray):
    """None for coefficients that are all 1, else the coefficients."""
    return None if np.all(coef == 1.0) else coef


def _phi_data(rows: np.ndarray, in_space: _BlockSpace, in_residues: list,
              held: list, n_max: int, K: int) -> tuple:
    """The per-sector rows, the slot of each sector, the end of each slot,
    and the gather terms of ``SdpProblem.phi`` with the one array of slot
    positions they are views of, from the rows of U at the levels of the
    solver variable, the residues mod K of its sectors and the blocks of
    the big variable (``_held_blocks``)."""
    D1 = 2 * n_max + 1
    a, b = np.divmod(np.arange(D1 * D1), D1)
    n_tot = a + b
    # sectors of the same residues reach the same big columns: one slot each
    slots = list(dict.fromkeys(frozenset(res) for res in in_residues))
    cols = [np.nonzero((n_tot <= 2 * n_max) & np.isin(n_tot % K, list(res)))[0]
            for res in slots]
    slot_of = [slots.index(frozenset(res)) for res in in_residues]
    # block k of Phi(X) is B_k^T PT(M) B_k, one term per pair of the terms
    # of its basis vectors; entry (p, q) of PT(M) is entry
    # ((a_xp, b_yq), (a_yq, b_xp)) of M
    pairs = [(k, sx, cx, sy, cy) for k, (states, coefs, _) in enumerate(held)
             for sx, cx in zip(states, coefs) for sy, cy in zip(states, coefs)]
    sizes = [len(sx) * len(sy) for _, sx, _, sy, _ in pairs]
    pos = np.empty(sum(sizes), dtype=int)
    terms = [[] for _ in held]
    for (k, sx, cx, sy, cy), end, size in zip(pairs, np.cumsum(sizes), sizes):
        idx = pos[end - size:end].reshape(len(sx), len(sy))
        idx[...] = _flat_positions(cols, D1 * D1, a[sx][:, None] * D1 + b[sy],
                                   a[sy] * D1 + b[sx][:, None])
        terms[k].append((idx, _unit_or(np.outer(cx, cy))))
    return ([rows[np.ix_(g, cols[s])] for g, s in zip(in_space.groups, slot_of)],
            slot_of, np.cumsum([len(c) ** 2 for c in cols]), pos, terms)


def _clip_eig(m: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Clip the spectrum of the symmetric part of m into [lo, hi]."""
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    return (v * np.clip(w, lo, hi)) @ v.T


@dataclass
class SdpSolution:
    """Certified result of one solve.

    ``z`` is the objective value at an exactly feasible state; ``z_lb`` the
    best feasible dual bound; ``s_n`` / ``s_n_lb`` their log-domain images
    and ``dual_gap`` their difference, so s_n - dual_gap > 0 certifies
    entanglement.  A sweep cell that could not be solved has NaN values,
    status ``infeasible`` or ``failed`` and the error's message as its
    ``reason``.
    """

    z: float
    s_n: float
    z_lb: float
    s_n_lb: float
    dual_gap: float
    iterations: int
    status: str
    rho: TwoModeState | None = None
    # the best (z, z_lb) after every certificate harvest
    history: list = field(default_factory=list)
    wall_time: float = 0.0
    reason: str = ""

    @property
    def solved(self) -> bool:
        return self.status in ("optimal", "max-iter")

    @property
    def certified(self) -> bool:
        """s_n_lb > 0 on a solved cell: the one test of certified entanglement.
        It agrees with s_n - dual_gap = min(s_n, s_n_lb) > 0 unless z < z_lb,
        which weak duality rules out up to rounding."""
        return self.solved and self.s_n_lb > 0.0


def _sn_from_z(z: float, tol: float = 1e-12) -> float:
    t = 2.0 * z - 1.0
    if t <= 1.0 + tol:
        return 0.0
    return math.log(t)


@dataclass
class SdpProblem:
    """Assembled certification instance (see module docstring)."""

    K: int
    theta: float
    p_target: float
    n_max: int
    # internal solver data
    _q_small: np.ndarray = field(repr=False)
    _rho_space: _BlockSpace = field(repr=False)
    _big_space: _BlockSpace = field(repr=False)
    _face_basis: np.ndarray | None = field(repr=False)
    _score_active: bool = field(repr=False)
    # the multiplicity of every big block: 2 for a sector held for its swap
    # partner at theta = pi/4, else 1 (module docstring)
    _big_mult: list = field(repr=False)
    # Phi's rows per rho sector, the slot of its big columns, the end of
    # each slot among the slots laid end to end, and the gather terms of
    # every big block, views into the one array of their slot positions
    # (see ``phi``); and Q on the rho sectors (None when the score is
    # inactive)
    _phi_rows: list = field(repr=False)
    _phi_slot: list = field(repr=False)
    _phi_ends: np.ndarray = field(repr=False)
    _phi_pos: np.ndarray = field(repr=False)
    _phi_terms: list = field(repr=False)
    _q_blocks: list | None = field(repr=False)
    # (eigenvalue, sector blocks of its projector) at the bottom and the top
    # of the spectrum of Q: the unit-trace states that repair the score of a
    # projected iterate (None when the score is inactive)
    _q_edges: list | None = field(repr=False)

    # -- linear maps ------------------------------------------------------

    def to_state_matrix(self, m: np.ndarray) -> np.ndarray:
        """Solver-variable matrix -> density matrix on the small space."""
        if self._face_basis is None:
            return m
        return self._face_basis @ m @ self._face_basis.T

    def phi(self, blocks: list) -> list:
        """Phi(X) = PT(R^T X R) from solver-variable sector blocks to big
        blocks: embed, rotate to the physical basis, partial-transpose.

        R holds the rows of the rotation U at the levels of the small space,
        with the face basis folded in; U is exactly zero between total
        numbers.  Rho sector r reaches only the big columns of total number
        <= 2 n_max in its residues mod K, so R^T X_r R is one small dense
        product (``_phi_rows``), summed over the sectors of one residue (the
        two N_- parities at theta = pi/4); the partial transpose then moves
        its entries into the big blocks by a fixed gather, which also forms
        the T-even and T-odd combinations at theta = pi/4.  Every product
        and gather broadcasts over leading axes of the blocks.
        """
        prods = [None] * len(self._phi_ends)
        for r, x, k in zip(self._phi_rows, blocks, self._phi_slot):
            m = r.T @ x @ r
            prods[k] = m if prods[k] is None else prods[k] + m
        lead = prods[0].shape[:-2]
        flat = np.concatenate(
            [m.reshape(lead + (-1,)) for m in prods] + [np.zeros(lead + (1,))], axis=-1)
        return [_gather(flat, terms) for terms in self._phi_terms]

    def phi_adjoint(self, blocks: list) -> list:
        """Phi*: the terms of ``phi`` read backwards, one ``np.bincount``
        of every block entry times its coefficient and multiplicity into
        the slot positions, then R_r (.) R_r^T; the adjoint in the inner
        product that weights each big block by its multiplicity."""
        weights = np.concatenate([((m if coef is None else m * coef) * y).ravel()
                                  for y, m, terms in zip(blocks, self._big_mult, self._phi_terms)
                                  for _, coef in terms])
        flat = np.bincount(self._phi_pos, weights, minlength=self._phi_ends[-1] + 1)
        w = np.split(flat, self._phi_ends)
        return [r @ w[k].reshape(r.shape[1], -1) @ r.T
                for r, k in zip(self._phi_rows, self._phi_slot)]

    def score_of(self, rho_small: np.ndarray) -> float:
        return float(np.tensordot(self._q_small, rho_small, 2))


def build_problem(
    K: int,
    theta: float,
    p_target: float,
    n_max: int,
    symmetry_reduction: bool = True,
) -> SdpProblem:
    """Assemble the certification SDP.

    ``symmetry_reduction`` blocks it by the exact symmetries of the module
    docstring: the mod-K sectors, and at theta = pi/4 also the swap parity.
    Raises InfeasibleTarget when no state within the truncation attains
    ``p_target``.  Targets exactly at the spectral edge are reduced to the
    corresponding eigenspace face, where the score constraint holds
    identically; the face basis is taken from the spectrum of Q in every
    sector, so the solver variable keeps the sector blocks.
    """
    if not 0.0 <= p_target <= 1.0:
        raise ValueError("p_target must lie in [0, 1]")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    d1 = n_max + 1
    ds = d1 * d1
    q_small = score_operator(K, n_max).matrix.real

    # sector labels: N_tot mod K on the small space, split by the parity of
    # N_- where the swap symmetry holds (module docstring)
    i_idx, j_idx = np.divmod(np.arange(ds), d1)
    rho_labels = i_idx + j_idx
    t_sign = None
    if symmetry_reduction and fold_theta(theta) == math.pi / 4:
        # T = SWAP at theta = pi/4 (mod pi), SWAP (-1)^(N1 + N2) at -pi/4
        t_sign = -1 if theta % math.pi > math.pi / 2 else 1
    D1 = 2 * n_max + 1

    # Q couples only levels equal mod K, and acts on the + mode alone, so
    # its spectrum is taken sector by sector
    sectors = _residue_groups(rho_labels, K, symmetry_reduction,
                              None if t_sign is None else j_idx)
    spectra = [np.linalg.eigh(q_small[np.ix_(g, g)]) for g in sectors]
    lam_min = min(w[0] for w, _ in spectra)
    lam_max = max(w[-1] for w, _ in spectra)
    if p_target > lam_max + FACE_TOL or p_target < lam_min - FACE_TOL:
        raise InfeasibleTarget(
            f"p_target={p_target} outside the attainable range "
            f"[{lam_min:.9f}, {lam_max:.9f}] at n_max={n_max}"
        )

    # Q is exactly (1/2) identity below the first coupling level, and the
    # score holds identically on an eigenspace face
    on_face = None
    degenerate_q = lam_max - lam_min < 1e-13
    if not degenerate_q and p_target > lam_max - FACE_TOL:
        on_face = [w > lam_max - FACE_TOL for w, _ in spectra]
    elif not degenerate_q and p_target < lam_min + FACE_TOL:
        on_face = [w < lam_min + FACE_TOL for w, _ in spectra]
    score_active = not degenerate_q and on_face is None

    residues = [set((rho_labels[g] % K).tolist()) for g in sectors]
    face_basis, q_edges = None, None
    if on_face is None:
        rho_space = _BlockSpace(ds, sectors)
    else:
        # the face is spanned sector by sector, so its coordinates keep the
        # sector blocks
        kept = [k for k, sel in enumerate(on_face) if sel.any()]
        vecs = [spectra[k][1][:, on_face[k]] for k in kept]
        ends = np.cumsum([v.shape[1] for v in vecs])
        rho_space = _BlockSpace(int(ends[-1]), [
            np.arange(end - v.shape[1], end) for v, end in zip(vecs, ends)])
        face_basis = np.zeros((ds, rho_space.dim))
        for k, v, cols in zip(kept, vecs, rho_space.groups):
            face_basis[np.ix_(sectors[k], cols)] = v
        residues = [residues[k] for k in kept]
    if score_active:
        # the states that repair the score: one sector's bottom and top
        # eigenvector, as sector blocks
        q_edges = []
        for pick, col in ((min, 0), (max, -1)):
            k = pick(range(len(sectors)), key=lambda k: spectra[k][0][col])
            v = spectra[k][1][:, col]
            blocks = rho_space.eye(0.0)
            blocks[k] = np.outer(v, v)
            q_edges.append((spectra[k][0][col], blocks))
    held = _held_blocks(n_max, K, symmetry_reduction, t_sign)
    # the blocks take consecutive coordinates of their own: T-even and
    # T-odd blocks are not index sets of the big space
    ends = np.cumsum([states.shape[1] for states, _, _ in held])
    big_space = _BlockSpace(int(ends[-1]), np.split(np.arange(ends[-1]), ends[:-1]))

    u_big = mode_rotation_unitary(theta, 2 * n_max).matrix.real
    u_rows = u_big[i_idx * D1 + j_idx]  # the small space embedded in the big one
    rows = u_rows if face_basis is None else face_basis.T @ u_rows
    phi_rows, phi_slot, phi_ends, phi_pos, phi_terms = _phi_data(
        rows, rho_space, residues, held, n_max, K)
    return SdpProblem(
        K=K, theta=theta, p_target=p_target, n_max=n_max,
        _q_small=q_small, _rho_space=rho_space, _big_space=big_space,
        _face_basis=face_basis, _score_active=score_active,
        _big_mult=[mult for _, _, mult in held],
        _phi_rows=phi_rows, _phi_slot=phi_slot, _phi_ends=phi_ends, _phi_pos=phi_pos,
        _phi_terms=phi_terms,
        _q_blocks=rho_space.blocks_from_full(q_small) if score_active else None,
        _q_edges=q_edges,
    )


def _assemble_constraint_rows(prob: SdpProblem):
    """The rho-side svec rows of every linear constraint of the interior
    point.

    Returns ``(t_rows, g_rows)``.  ``t_rows``: trace, then score when
    active.  ``g_rows``: the svec matrix of Phi from the rho sectors to the
    big blocks, whose column j is Phi of the j-th svec basis element of
    rho, from one ``phi`` call on the stacked basis; these are the rho parts
    of the partial-transpose match rows.  The varrho_± parts of those rows
    are -/+ the svec identity, so they never need storing.
    """
    rs, bs = prob._rho_space, prob._big_space
    g_rows = np.ascontiguousarray(bs.pack(prob.phi(rs.unpack(np.eye(rs.total)))).T)
    t_rows = [rs.pack(rs.eye())]
    if prob._score_active:
        t_rows.append(rs.pack(prob._q_blocks))
    return np.array(t_rows), g_rows


# ---------------------------------------------------------------------------
# honest certificates


def _project_feasible(prob: SdpProblem, blocks: list) -> list:
    """Nearest convenient exactly feasible state, as solver-variable sector
    blocks: PSD clip and renormalize every block, then repair the score by
    mixing with a spectral-edge state."""
    eigs = (np.linalg.eigh((b + b.T) / 2.0) for b in blocks)
    rho = [(v * np.maximum(w, 0.0)) @ v.T for w, v in eigs]
    trace = sum(np.trace(b) for b in rho)
    if trace <= 0.0:
        rho = prob._rho_space.eye(1.0 / prob._rho_space.dim)
    else:
        rho = [b / trace for b in rho]
    if not prob._score_active:
        return rho
    p_now = sum(np.vdot(q, b) for q, b in zip(prob._q_blocks, rho))
    p_want = prob.p_target
    if abs(p_now - p_want) < 1e-15:
        return rho
    (lam_lo, state_lo), (lam_hi, state_hi) = prob._q_edges
    ref_lam, ref = (lam_hi, state_hi) if p_want > p_now else (lam_lo, state_lo)
    t = (p_want - p_now) / (ref_lam - p_now)
    t = min(max(t, 0.0), 1.0)
    return [(1.0 - t) * b + t * e for b, e in zip(rho, ref)]


def _primal_value(prob: SdpProblem, blocks: list) -> float:
    """z = tr (Phi(rho))_+ = (tr|Phi(rho)| + 1)/2 at a feasible state given
    as solver-variable sector blocks.

    tr|A| >= tr A = 1, so z >= 1; the clamp, the same as z_lb gets, keeps
    rounding in the trace from reading z one ulp below 1.  A big block held
    for its swap partner counts twice."""
    w = np.concatenate([m * np.abs(np.linalg.eigvalsh(b))
                        for m, b in zip(prob._big_mult, prob.phi(blocks))])
    return max(0.5 * (float(np.sum(w)) + 1.0), 1.0)


def _dual_bound(prob: SdpProblem, lam_blocks: list) -> float:
    """Feasible dual value from Lambda given as big sector blocks, each
    clipped into [0, 1].

    z >= min_{rho feasible} <rho, Phi*(Lambda)> for any 0 <= Lambda <= 1.
    Phi*(Lambda) = H and Q are block-diagonal over the rho sectors, so the
    inner minimum is the maximum over the score multiplier mu of the concave

        g(mu) = min_b lambda_min(H_b - mu Q_b) + mu p

    (or the bare smallest eigenvalue when the score constraint is inactive).
    Every mu gives a valid bound; the search only tightens it.

    The search is a bracketed cutting-plane method.  Each evaluation of g
    also gives the supergradient p - v^T Q_b v from the bottom eigenvector v
    of the minimizing block.  Doubling finds a bracket whose left end
    climbs and whose right end descends; the tangents there bound max g from
    above, and g is next evaluated where they meet, which replaces the end
    with the same slope sign.  The search stops once that upper bound is
    within 1e-15 (1 + |g|) of the best value found, so the returned value
    is provably within that of the maximum (up to rounding in the
    eigenvalues).
    """
    h = prob.phi_adjoint([_clip_eig(b, 0.0, 1.0) for b in lam_blocks])
    if not prob._score_active:
        return min(float(np.linalg.eigvalsh(hb)[0]) for hb in h)
    p = prob.p_target

    def g(mu):
        # the value at mu and the supergradient of the minimizing block
        low = None
        for hb, qb in zip(h, prob._q_blocks):
            w, v = np.linalg.eigh(hb - mu * qb)
            if low is None or w[0] < low[0]:
                low = w[0], v[:, 0], qb
        w0, v0, qb = low
        return float(w0) + mu * p, p - float(v0 @ qb @ v0)

    lo, hi = -1.0, 1.0
    (g_lo, s_lo), (g_hi, s_hi) = g(lo), g(hi)
    while s_lo < 0.0 and lo > -1e8:
        hi, g_hi, s_hi = lo, g_lo, s_lo
        lo *= 2.0
        g_lo, s_lo = g(lo)
    while s_hi > 0.0 and hi < 1e8:
        lo, g_lo, s_lo = hi, g_hi, s_hi
        hi *= 2.0
        g_hi, s_hi = g(hi)
    best = max(g_lo, g_hi)
    for _ in range(100):
        if not s_lo > s_hi:
            break
        # where the tangents at the bracket ends meet, and their value there
        mu = (g_hi - g_lo + s_lo * lo - s_hi * hi) / (s_lo - s_hi)
        upper = g_lo + s_lo * (mu - lo)
        if upper - best <= 1e-15 * (1.0 + abs(best)) or not lo < mu < hi:
            break
        g_mu, s_mu = g(mu)
        best = max(best, g_mu)
        if s_mu > 0.0:
            lo, g_lo, s_lo = mu, g_mu, s_mu
        elif s_mu < 0.0:
            hi, g_hi, s_hi = mu, g_mu, s_mu
        else:
            break
    return best


class _Certificates:
    """The best honest bounds found by either engine on one problem.

    Each offered iterate is taken to an exactly feasible state, whose primal
    value bounds z from above, and to a clipped dual, whose value bounds it
    from below.  The best of each is kept with the state or Lambda that gave
    it, and ``history`` records the best pair after every offer.
    """

    def __init__(self, prob: SdpProblem, tol: float):
        self.prob = prob
        self.tol = tol
        self.z_up, self.z_lb = np.inf, -np.inf
        self.rho = None   # best feasible state, as solver-variable sector blocks
        self.lam = None   # best Lambda, as big sector blocks
        self.history = []

    @property
    def gap(self) -> float:
        return self.z_up - self.z_lb

    @property
    def converged(self) -> bool:
        return self.gap <= self.tol * (1.0 + abs(self.z_up))

    def offer(self, rho_blocks: list, lam_blocks: list | None = None) -> bool:
        """Harvest solver-variable rho sector blocks and Lambda big sector
        blocks; without Lambda the dual bound is the trivial z_lb = 1
        (tr|A| >= tr A = 1).  True once the gap meets the tolerance."""
        prob = self.prob
        rho = _project_feasible(prob, rho_blocks)
        z_up = _primal_value(prob, rho)
        z_lb = 1.0 if lam_blocks is None else max(_dual_bound(prob, lam_blocks), 1.0)
        if z_up < self.z_up:
            self.z_up, self.rho = z_up, rho
        if z_lb > self.z_lb:
            self.z_lb, self.lam = z_lb, lam_blocks
        self.history.append((self.z_up, self.z_lb))
        return self.converged


# ---------------------------------------------------------------------------
# interior-point engine


def _sym_inv(s: np.ndarray) -> np.ndarray:
    inv = np.linalg.inv(s)
    return (inv + inv.T) / 2.0


class _SchurSolver:
    """Cholesky of the Schur complement with one refinement pass."""

    def __init__(self, schur: np.ndarray):
        from scipy.linalg import cho_factor

        self.schur = schur
        scale = max(np.trace(schur) / schur.shape[0], 1e-300)
        for jitter in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            # the shifted copy is built only after a failed factorization
            shifted = schur if jitter == 0.0 else schur + jitter * scale * np.eye(len(schur))
            try:
                self.factor = cho_factor(shifted, lower=True)
                return
            except np.linalg.LinAlgError:
                pass
        raise NumericalFailure("Schur factorization failed")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        from scipy.linalg import cho_solve

        x = cho_solve(self.factor, rhs)
        # one step of iterative refinement; the Schur complement becomes
        # severely ill-conditioned as the barrier parameter shrinks
        resid = rhs - self.schur @ x
        x += cho_solve(self.factor, resid)
        return x


def _max_step(block: np.ndarray, direction: np.ndarray) -> float:
    """sup alpha with block + alpha * direction PSD."""
    try:
        l = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        l = np.linalg.cholesky(block + 1e-12 * np.eye(block.shape[0]))
    t = np.linalg.solve(l, direction)
    t = np.linalg.solve(l, t.T)
    wmin = np.linalg.eigvalsh((t + t.T) / 2.0)[0]
    if wmin >= 0.0:
        return np.inf
    return -1.0 / wmin


def _solve_ipm(prob: SdpProblem, certs: _Certificates, max_iters: int):
    """HKM predictor-corrector on the block formulation.

    One list of PSD blocks: the rho sectors, then the varrho_+ sectors, then
    the varrho_- sectors.  Constraints: trace, (score), and the
    partial-transpose match in the svec basis of every big sector, where
    rho enters through the stored rows and varrho_± as -/+ the identity.
    The objective weights each varrho_+ block by its multiplicity m, so the
    dual slack of the pair keeps -y between 0 and m on its match rows.
    Each iterate, and the one the last step leaves, is offered to ``certs``
    with Lambda = -y/m on the match rows.  Returns (iterations, status).
    """
    from scipy.linalg import block_diag

    t_rows, g_rows = _assemble_constraint_rows(prob)
    rs, bs = prob._rho_space, prob._big_space
    nr, nb = len(rs.groups), len(bs.groups)
    svec_data = rs.svec_data + bs.svec_data + bs.svec_data
    a_rho = np.vstack([t_rows, g_rows])
    n_t = t_rows.shape[0]
    # the match rows of each big sector: its varrho_± pair's Schur block
    starts = n_t + np.cumsum([0] + bs.svec_sizes)
    big_slices = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]

    b_vec = np.zeros(a_rho.shape[0])
    b_vec[0] = 1.0
    if prob._score_active:
        b_vec[1] = prob.p_target

    def a_apply(blocks):
        xr = rs.pack(blocks[:nr])
        return np.concatenate([
            t_rows @ xr,
            g_rows @ xr - bs.pack(blocks[nr:nr + nb]) + bs.pack(blocks[nr + nb:])])

    def at_apply(y):
        y_big = bs.unpack(y[n_t:])
        return (rs.unpack(t_rows.T @ y[:n_t] + g_rows.T @ y[n_t:])
                + [-b for b in y_big] + y_big)

    # objective: tr of every varrho_+ block, times its multiplicity
    mult = prob._big_mult
    c = rs.eye(0.0) + [m * np.eye(len(g)) for m, g in zip(mult, bs.groups)] + bs.eye(0.0)
    zeros = [np.zeros_like(cb) for cb in c]
    x = rs.eye(1.0 / rs.dim if rs.dim else 1.0) + bs.eye(2.0) + bs.eye(1.0)
    s = [np.eye(len(cb)) for cb in c]
    y = np.zeros(a_rho.shape[0])
    dim_total = sum(len(cb) for cb in c)

    def inner(blocks_a, blocks_b):
        return sum(np.tensordot(a, b, 2) for a, b in zip(blocks_a, blocks_b))

    def step_len(blocks, dirs):
        return min([1.0] + [_max_step(b, d) for b, d in zip(blocks, dirs)])

    status = "max-iter"
    it = 0
    stalls = 0
    for it in range(1, max_iters + 1):
        rp = b_vec - a_apply(x)
        rd = [cb - ab - sb for cb, ab, sb in zip(c, at_apply(y), s)]
        mu = inner(x, s) / dim_total

        if certs.offer(x[:nr], [-b / m for b, m in zip(bs.unpack(y[n_t:]), mult)]):
            status = "optimal"
            break

        s_inv = [_sym_inv(sb) for sb in s]
        # Schur complement M = A (X (.) S^-1) A^T: the rho blocks through the
        # stored rows, the varrho_± blocks (incidence -/+ I) straight onto
        # the diagonal of the match rows
        k = [_symkron(xb, si, sd) for xb, si, sd in zip(x, s_inv, svec_data)]
        schur = a_rho @ block_diag(*k[:nr]) @ a_rho.T
        for sl, kp, kq in zip(big_slices, k[nr:nr + nb], k[nr + nb:]):
            schur[sl, sl] += kp + kq
        try:
            schur_solver = _SchurSolver(schur)
        except NumericalFailure:
            break

        def solve_newton(sigma_mu, corr):
            # standard HKM right-hand side, with the optional Mehrotra
            # correction folded into corr
            e = [xb @ rb @ si - sigma_mu * si + xb + cb @ si
                 for xb, rb, si, cb in zip(x, rd, s_inv, corr)]
            dy = schur_solver.solve(rp + a_apply(e))
            ds = [rb - ab for rb, ab in zip(rd, at_apply(dy))]
            dx = [sigma_mu * si - xb - xb @ dsb @ si - cb @ si
                  for xb, si, dsb, cb in zip(x, s_inv, ds, corr)]
            return dy, [(v + v.T) / 2.0 for v in dx], ds

        _, dx_aff, ds_aff = solve_newton(0.0, zeros)
        ap_aff, ad_aff = step_len(x, dx_aff), step_len(s, ds_aff)
        mu_aff = inner([xb + ap_aff * d for xb, d in zip(x, dx_aff)],
                       [sb + ad_aff * d for sb, d in zip(s, ds_aff)]) / dim_total
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        # do not let complementarity outrun feasibility: a small barrier
        # parameter with large residuals strands the iterate off-path
        infeas = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b_vec))
        sigma = max(sigma, min(0.99, (infeas / (infeas + mu)) ** 3))

        dy, dx, ds = solve_newton(
            sigma * mu, [dxb @ dsb for dxb, dsb in zip(dx_aff, ds_aff)])

        tau = 0.9 if it < 8 else 0.98

        def lengths(dx, ds):
            return min(1.0, tau * step_len(x, dx)), min(1.0, tau * step_len(s, ds))

        ap, ad = lengths(dx, ds)
        if min(ap, ad) < 1e-4:
            # direction blocked by the cone boundary: fall back to a pure
            # centering step to recover interiority
            dy, dx, ds = solve_newton(mu, zeros)
            ap, ad = lengths(dx, ds)
            stalls += 1
        else:
            stalls = 0
        if stalls >= 4 or (ap < 1e-10 and ad < 1e-10):
            break
        x = [xb + ap * d for xb, d in zip(x, dx)]
        s = [sb + ad * d for sb, d in zip(s, ds)]
        y = y + ad * dy

    certs.offer(x[:nr], [-b / m for b, m in zip(bs.unpack(y[n_t:]), mult)])
    return it, status


# ---------------------------------------------------------------------------
# first-order fallback engine


def _simplex_shift(w: np.ndarray) -> float:
    """The a with sum(max(w - a, 0)) = 1, from the sorted spectrum w."""
    s = np.sort(w)[::-1]
    shifts = (np.cumsum(s) - 1.0) / np.arange(1, len(s) + 1)
    return float(shifts[np.nonzero(s > shifts)[0][-1]])


def _project_spectrahedron(prob: SdpProblem, blocks: list, warm):
    """Frobenius projection of rho sector blocks onto {rho >= 0, tr = 1,
    (score = p)}, and the next warm pair.

    The projection is (S - a I - b Q)_+ in every block, with multipliers
    (a, b) shared by all blocks; at a fixed b, a is the closed-form
    ``_simplex_shift`` of the joint spectrum of S - b Q.  The dual
    psi(a, b) = ||(S - a I - b Q)_+||^2 / 2 + a + b p is jointly convex, so
    its minimum over a is convex in b with derivative -r(b), the score
    residual at b: r never rises with b, and its root is the projection's
    b.  Secant steps find it from ``warm`` = (b, slope < 0), the previous
    projection's root and last secant slope.  Until r changes sign each move
    is capped at a reach that starts at 1 + |b| and doubles after every
    step; then steps stay inside the bracket, bisecting when a secant step
    leaves it.  Without the score constraint Q reads 0, so b stays put.
    """
    sym = [(m + m.T) / 2.0 for m in blocks]
    qs, p = ((prob._q_blocks, prob.p_target) if prob._score_active
             else ([np.zeros_like(m) for m in sym], 0.0))

    def at(b):
        eigs = [np.linalg.eigh(m - b * q) for m, q in zip(sym, qs)]
        a = _simplex_shift(np.concatenate([w for w, _ in eigs]))
        x = [(v * np.maximum(w - a, 0.0)) @ v.T for w, v in eigs]
        return x, float(sum(np.vdot(q, xb) for q, xb in zip(qs, x))) - p

    b, slope = warm
    x, r = at(b)
    lo, hi, reach = -math.inf, math.inf, 1.0 + abs(b)
    for _ in range(100):
        if abs(r) < 1e-12:
            break
        # r(lo) > 0 > r(hi)
        lo, hi = (b, hi) if r > 0.0 else (lo, b)
        step = r / -slope if slope < 0.0 else math.copysign(math.inf, r)
        if math.isinf(lo) or math.isinf(hi):
            b_new = b + min(max(step, -reach), reach)
            reach *= 2.0
        else:
            b_new = b + step if lo < b + step < hi else 0.5 * (lo + hi)
        if b_new == b:
            break
        x, r_new = at(b_new)
        slope = (r_new - r) / (b_new - b)
        b, r = b_new, r_new
    return x, (b, slope)


def _solve_pdhg(prob: SdpProblem, certs: _Certificates, max_iters: int):
    """Primal-dual splitting on min_rho max_{|Y|<=1} <Phi(rho), Y>.

    The linear map Phi is a Hilbert-Schmidt isometry, so unit step-size
    products are admissible.  rho and Y are held as their sector blocks,
    where the optimum lies (module docstring), so the dual clip and the
    projection work one block at a time.  Each projection starts its search
    for the score multiplier from the last one's (b, slope), from (0, -1) at
    the first.  Iterates are offered to ``certs`` periodically, and the
    start itself when the budget is 0.  When ``certs`` already holds bounds
    from another engine, the run warm-starts from its best rho and its best
    Lambda.  Returns (iterations, status).
    """
    rs, bs = prob._rho_space, prob._big_space
    if certs.rho is None:
        rho = rs.eye(1.0 / rs.dim)
        y_big = bs.eye(0.0)
    else:
        rho = certs.rho
        y_big = [2.0 * _clip_eig(lam, 0.0, 1.0) - np.eye(len(lam)) for lam in certs.lam]
    rho_bar = rho
    warm = (0.0, -1.0)
    taus = 0.95
    status = "max-iter"
    it = 0
    last_gap = np.inf
    stagnant = 0
    if max_iters == 0:
        certs.offer(rho, [(y + np.eye(len(y))) / 2.0 for y in y_big])

    for it in range(1, max_iters + 1):
        y_big = [_clip_eig(y + taus * f, -1.0, 1.0)
                 for y, f in zip(y_big, prob.phi(rho_bar))]
        grad = prob.phi_adjoint(y_big)
        rho_new, warm = _project_spectrahedron(
            prob, [r - taus * g for r, g in zip(rho, grad)], warm)
        rho_bar = [2.0 * rn - r for rn, r in zip(rho_new, rho)]
        rho = rho_new
        if it % 25 == 0 or it == max_iters:
            # Y in [-1, 1] maps to Lambda = (Y + 1)/2 in [0, 1]
            if certs.offer(rho, [(y + np.eye(len(y))) / 2.0 for y in y_big]):
                status = "optimal"
                break
            gap = certs.gap
            # stop honestly once the certificates stop improving
            if gap > last_gap - 1e-4 * max(last_gap, 1e-12):
                stagnant += 1
                if stagnant >= 12:
                    break
            else:
                stagnant = 0
            last_gap = gap
    return it, status


# ---------------------------------------------------------------------------
# public solve


def solve(
    prob: SdpProblem,
    tol: float = 1e-7,
    max_iters: int | None = None,
    engine: str = "auto",
    start: np.ndarray | None = None,
) -> SdpSolution:
    """Run the certification SDP and return certified bounds.

    engine: "interior-point", "first-order", or "auto" (interior point
    unless the Schur complement would be unreasonably large).  When
    ``max_iters`` is omitted, engine defaults apply (200 interior-point
    iterations plus up to 8000 splitting polish iterations, or 20000
    splitting iterations); when given, it caps the total of both engines,
    must be >= 0, and a budget of 0 reports the honest bounds of the
    engine's starting point.

    start: a density matrix on the small space with the target score.  It
    is pinched to the N_tot mod K sectors, and at theta = pi/4 also to the
    parity of N_-, which keeps its trace and score and cannot raise its z.
    If that z is within the tolerance of the trivial bound z_lb = 1, the
    start is the answer, after 0 iterations; otherwise the engines run as
    without it.  Face problems ignore it.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if max_iters is not None and max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if engine == "auto":
        m = prob._big_space.total + 2
        engine = "interior-point" if m <= 2600 else "first-order"
    t0 = time.perf_counter()
    rs = prob._rho_space
    certs = _Certificates(prob, tol)
    if start is not None and prob._face_basis is None and certs.offer(rs.blocks_from_full(start)):
        iters, status = 0, "optimal"
    else:
        # a start that falls short leaves no trace: the engines run on a
        # fresh keeper, exactly as without it
        certs = _Certificates(prob, tol)
        if engine == "interior-point":
            iters, status = _solve_ipm(prob, certs, 200 if max_iters is None else max_iters)
            polish = 8000 if max_iters is None else max_iters - iters
            if not certs.converged and certs.rho is not None and polish > 0:
                # interior-point runs can leave the primal side loose when the
                # optimal face is degenerate; polish it with splitting
                # iterations warm-started from the same certificates (the
                # dual bound is usually tight already)
                extra, pstatus = _solve_pdhg(prob, certs, polish)
                iters += extra
                status = pstatus if pstatus == "optimal" else status
        else:
            iters, status = _solve_pdhg(prob, certs, 20000 if max_iters is None else max_iters)
    wall = time.perf_counter() - t0
    z_up, z_lb = certs.z_up, max(certs.z_lb, 1.0)
    if not math.isfinite(z_up):
        raise NumericalFailure("no feasible primal point was recovered")
    s_up, s_lb = _sn_from_z(z_up), _sn_from_z(z_lb)
    rho_state = None
    if certs.rho is not None:
        rho = prob.to_state_matrix(rs.full_from_blocks(certs.rho))
        rho_state = TwoModeState(rho.astype(complex), prob.n_max, NORMAL, validate=False)
    return SdpSolution(
        z=z_up, s_n=s_up, z_lb=z_lb, s_n_lb=s_lb,
        dual_gap=max(s_up - s_lb, 0.0),
        iterations=iters, status=status, rho=rho_state,
        history=certs.history, wall_time=wall,
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepResult:
    """One (theta, p_target, SdpSolution) cell per grid point, in grid order."""

    cells: list

    COLUMNS = ("theta", "p_target", "z", "s_n", "dual_gap", "status",
               "iterations", "wall_time")

    def monotonicity_violations(self, slack: float = 1e-6) -> list:
        """Certified values should not decrease along theta or p.

        Compares lower-bounded values against upper values so solver gaps
        cannot produce spurious reports.
        """
        solved = [c for c in self.cells if c[2].solved]
        out = []
        for label, along, fixed in (("p", 1, 0), ("theta", 0, 1)):
            lines = {}
            for c in solved:
                lines.setdefault(round(c[fixed], 12), []).append(c)
            for key, cells in lines.items():
                cells = sorted(cells, key=lambda c: c[along])
                for a, b in zip(cells, cells[1:]):
                    sa, sb = a[2], b[2]
                    if sb.s_n_lb < sa.s_n_lb - (sa.dual_gap + sb.dual_gap + slack):
                        out.append((label, key, a[along], b[along]))
        return out

    def to_csv(self) -> str:
        """The cells as CSV; ``wall_time`` reads 0.000, so reruns write the same bytes."""
        lines = [",".join(self.COLUMNS)]
        for theta, p, sol in self.cells:
            lines.append(
                f"{theta:.12g},{p:.12g},{sol.z:.12g},{sol.s_n:.12g},"
                f"{sol.dual_gap:.12g},{sol.status},{sol.iterations},0.000"
            )
        return "\n".join(lines) + "\n"


def _row_start(anchors: list, p: float) -> np.ndarray | None:
    """The mix of the nearest (score, state) anchors below and above p
    that hits p, or None when no two anchors bracket p."""
    below = [a for a in anchors if a[0] <= p]
    above = [a for a in anchors if a[0] >= p]
    if not below or not above:
        return None
    s_lo, lo = max(below, key=lambda a: a[0])
    s_hi, hi = min(above, key=lambda a: a[0])
    if s_hi == s_lo:
        return lo
    t = (p - s_lo) / (s_hi - s_lo)
    return (1.0 - t) * lo + t * hi


def _solve_cell(K, n_max, theta, p, tol, anchors) -> tuple:
    """One row cell, started from its anchors; a solve that ends optimal
    with z_lb = 1 adds its state to them."""
    try:
        problem = build_problem(K, theta, p, n_max)
        sol = solve(problem, tol=tol, start=_row_start(anchors, p))
    except (InfeasibleTarget, NumericalFailure) as exc:
        status = "infeasible" if isinstance(exc, InfeasibleTarget) else "failed"
        nan = float("nan")
        return theta, p, SdpSolution(nan, nan, nan, nan, nan, 0, status, reason=str(exc))
    if sol.status == "optimal" and sol.z_lb == 1.0:
        rho = sol.rho.matrix.real
        anchors.append((problem.score_of(rho), rho))
    return theta, p, sol


def _solve_row(args) -> list:
    """The cells of one theta row, solved in descending p and returned in
    grid order.  The anchors start with the vacuum, which Phi maps to
    itself at every theta."""
    K, n_max, theta, p_grid, tol = args
    vacuum = np.zeros(((n_max + 1) ** 2,) * 2)
    vacuum[0, 0] = 1.0
    anchors = [(float(qk_matrix(K, n_max).matrix.real[0, 0]), vacuum)]
    cells = [None] * len(p_grid)
    for i in sorted(range(len(p_grid)), key=lambda i: -p_grid[i]):
        cells[i] = _solve_cell(K, n_max, theta, p_grid[i], tol, anchors)
    return cells


def sweep(
    theta_grid,
    p_grid,
    K: int,
    n_max: int,
    tol: float = 1e-7,
    threads: int = 1,
) -> SweepResult:
    """One (theta, p, SdpSolution) cell per grid point, in grid order; a cell
    that raises ``InfeasibleTarget`` or ``NumericalFailure`` keeps its
    status and reason in its solution.

    Each theta row is certified as a unit, in descending p, with a list of
    anchors: (score, state) pairs of feasible states with z = 1, starting
    with the vacuum.  z(rho) = tr Phi(rho)_+ is convex in rho and the score
    is linear, so the mix of two anchors that hits a cell's p exactly has
    z no larger than the larger anchor z.  Such a start usually closes the
    gap at once (``solve``'s ``start``), and the cell costs no iterations;
    a cell without a bracket, or whose start falls short, is solved as a
    stand-alone cell would be.  Rows keep grid order, and each row is
    deterministic, so ``threads`` spreads whole rows over threads without
    changing an output byte.
    """
    p_grid = [float(p) for p in p_grid]
    jobs = [(K, n_max, float(th), p_grid, tol) for th in theta_grid]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_solve_row, jobs))
    else:
        rows = [_solve_row(j) for j in jobs]
    return SweepResult([cell for row in rows for cell in row])
