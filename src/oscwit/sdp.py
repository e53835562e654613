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
its state and Lambda, records their history and decides when both engines
stop: the gap is closed, or 12 offers in a row each shrank it by less than
1e-4 of it.  The engines return only their iteration count, and ``solve``
reports ``optimal`` exactly when the keeper's gap is closed.  The interior
point offers each point once and stops also at its first step that the
cone blocks; a splitting polish finishes on the same keeper, warm-started
from its best state and Lambda.

A solution stores only the certified interval [z_lb, z]; ``s_n``,
``s_n_lb`` and ``dual_gap`` are read from it in log units, so a positive
certification means s_n - dual_gap = log(2 z_lb - 1) > 0.  A z-domain gap
would overstate certainty near z = 1 where the logarithm is steep.

Two engines: a primal-dual interior-point method (HKM search direction,
Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6, 342 (1996);
Mehrotra predictor-corrector) and a primal-dual splitting fallback for
spaces too large for the Schur complement.  The interior point solves its
Newton system sector by sector, as SDPT3 (Toh, Todd & Tütüncü, Optim.
Methods Softw. 11, 545 (1999)) and DSDP (Benson, Ye & Zhang, SIAM J.
Optim. 10, 443 (2000)) exploit the structure of theirs: one Cholesky
factor per varrho_± pair block, and a Woodbury capacitance system of the
size svec(rho) for the rho side, in place of the dense m x m Schur matrix
(``_SectorSchur``).  Its Newton right-hand side is symmetrized before
packing, as its Schur matrix and recovered step are, so a full step meets
the primal constraints; it factors each X and S block once per
iteration, the X blocks and the S blocks of each size as a stack of their
own, and S^-1 and both step lengths read that factor, as SDPT3 keeps one
factor of each.  Every triangular solve is LAPACK ``dtrtrs``.

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

A sweep certifies each theta row as a unit.  It builds the row's
score-independent data once (``_row_data``: Q's sector spectra, Phi and
the anchors below, from one rotation) and builds every cell's problem
from it.  z(rho) = tr Phi(rho)_+ is convex in rho and the score is
linear in it.  So the mix of two feasible states ("anchors") that
bracket a score p, in the proportion that hits p, is a feasible state
whose z is at most the larger anchor z.  When the anchors have z = 1 up
to the tolerance, the mix meets the trivial dual bound z_lb = 1 at once
and the cell costs no iterations.  Every row starts from four product
states with one physical mode in vacuum: they lie exactly inside the
cutoff and are their own partial transpose, so z = 1 (Peres, PRL 77,
1413 (1996)), and every cell between their lowest and highest score, the
vacuum's 1/2 among them, starts from a separable mix.  The row is solved
in descending p, and a cell above the top anchor that ends with z_lb = 1
adds its state, so of the cells that do not certify, only the first
above it runs an engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

import numpy as np

from .errors import InfeasibleTarget, NumericalFailure
from .fock import NORMAL, TwoModeState
from .modes import fold_theta, mode_rotation_unitary
from .protocol import score_operator

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

    def __post_init__(self):
        self.svec_data = [_svec_data(len(g)) for g in self.groups]

    @property
    def total(self) -> int:
        return sum(len(rows) for rows, _, _ in self.svec_data)

    def blocks_from_full(self, m: np.ndarray) -> list:
        return [m[g[:, None], g] for g in self.groups]

    def full_from_blocks(self, blocks: list) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for g, b in zip(self.groups, blocks):
            m[g[:, None], g] = b
        return m

    def pack(self, blocks: list) -> np.ndarray:
        return np.concatenate(
            [_svec(b, sd) for b, sd in zip(blocks, self.svec_data)], axis=-1)

    def unpack(self, v: np.ndarray) -> list:
        out, ofs = [], 0
        for g, sd in zip(self.groups, self.svec_data):
            sz = len(sd[0])
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


def _held_blocks(a: np.ndarray, b: np.ndarray, K: int, reduce: bool,
                 t_sign: int | None) -> list:
    """The blocks of the big variable, as (states, coefs, multiplicity).

    ``a`` and ``b`` are the levels of every index of the doubled physical
    space, in the basis |a, b> of index a D1 + b.  Column p of a block is
    the unit vector sum_t coefs[t, p] |states[t, p]>.
    Without ``t_sign`` the blocks are the (a - b) mod K sectors, one term
    with coefficient 1 and multiplicity 1 each.  With it, T|a, b> =
    t_sign^(a + b) |b, a> maps sector r onto sector -r, and a T-invariant
    matrix is held as one sector of each pair (r, -r), with multiplicity 2,
    and the T-even and T-odd parts of each sector T maps onto itself:
    |a, a> and (|a, b> + s|b, a>)/sqrt 2, and (|a, b> - s|b, a>)/sqrt 2,
    for a < b and s = t_sign^(a + b).
    """
    if t_sign is None:
        return [(g[None], np.ones((1, len(g))), 1.0)
                for g in _residue_groups(a - b, K, reduce)]
    D1 = a[-1] + 1
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


def _phi_data(rows: np.ndarray, in_space: _BlockSpace, in_residues: list,
              held: list, a: np.ndarray, b: np.ndarray, K: int) -> tuple:
    """The per-sector rows, the slot of each sector, the end of each slot
    and the entries of ``SdpProblem.phi``, from the rows of U at the levels
    of the solver variable, the residues mod K of its sectors, the blocks
    of the big variable (``_held_blocks``) and the levels ``a, b`` of the
    doubled space.

    An entry (i, j, c) adds c times entry j of the slots laid end to end to
    entry i of the big blocks laid end to end, both row-major.  Block k of
    Phi(X) is B_k^T PT(M) B_k, one term per pair of the terms of its basis
    vectors, and entry (p, q) of PT(M) is entry ((a_xp, b_yq), (a_yq, b_xp))
    of M.  One lookup, built once, gives every doubled-space index its slot
    (-1 outside every slot) and its place in that slot, and every term pair
    reads its positions from it.  Only the entries that fall inside a slot
    with c != 0 are kept, in term order; the rest add zeros."""
    D1 = a[-1] + 1
    n_tot = a + b
    # sectors of the same residues reach the same big columns: one slot each
    slots = list(dict.fromkeys(frozenset(res) for res in in_residues))
    cols = [np.nonzero((n_tot < D1) & np.isin(n_tot % K, list(res)))[0] for res in slots]
    slot_of = [slots.index(frozenset(res)) for res in in_residues]
    sizes = np.array([len(c) for c in cols])
    offsets = np.concatenate([[0], np.cumsum(sizes ** 2)])
    slot, place = np.full(D1 * D1, -1), np.zeros(D1 * D1, dtype=int)
    for k, c in enumerate(cols):
        slot[c], place[c] = k, np.arange(len(c))
    big_starts = np.cumsum([0] + [states.shape[1] ** 2 for states, _, _ in held])
    parts = []
    for k, (states, coefs, _) in enumerate(held):
        for sx, cx in zip(states, coefs):
            for sy, cy in zip(states, coefs):
                r, c = a[sx][:, None] * D1 + b[sy], a[sy] * D1 + b[sx][:, None]
                sr = slot[r]
                pos = np.where((sr == slot[c]) & (sr >= 0),
                               offsets[sr] + place[r] * sizes[sr] + place[c], -1).ravel()
                coef = np.outer(cx, cy).ravel()
                live = np.nonzero((pos >= 0) & (coef != 0.0))[0]
                parts.append((big_starts[k] + live, pos[live], coef[live]))
    return ([rows[np.ix_(g, cols[s])] for g, s in zip(in_space.groups, slot_of)],
            slot_of, offsets[1:], tuple(np.concatenate(part) for part in zip(*parts)))


def _clip_eig(m: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Clip the spectrum of the symmetric part of m into [lo, hi]."""
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    return (v * np.clip(w, lo, hi)) @ v.T


@dataclass
class SdpSolution:
    """Certified result of one solve.

    ``z`` is the objective value at an exactly feasible state and ``z_lb``
    the best feasible dual bound: the certified interval, which is all the
    solution stores.  ``s_n`` / ``s_n_lb`` are read-only log-domain images
    of its ends and ``dual_gap`` their difference, so s_n - dual_gap > 0
    certifies entanglement.  A sweep cell that could not be solved has NaN
    values, status ``infeasible`` or ``failed`` and the error's message as
    its ``reason``.
    """

    z: float
    z_lb: float
    iterations: int
    status: str
    rho: TwoModeState | None = None
    # the best (z, z_lb) after every certificate harvest
    history: list = field(default_factory=list)
    wall_time: float = 0.0
    reason: str = ""

    @property
    def s_n(self) -> float:
        return _sn_from_z(self.z)

    @property
    def s_n_lb(self) -> float:
        return _sn_from_z(self.z_lb)

    @property
    def dual_gap(self) -> float:
        return max(self.s_n - self.s_n_lb, 0.0)

    @property
    def solved(self) -> bool:
        return self.status in ("optimal", "max-iter")

    @property
    def certified(self) -> bool:
        """s_n_lb > 0 on a solved cell: the one test of certified entanglement.
        It agrees with s_n - dual_gap = min(s_n, s_n_lb) > 0 unless z < z_lb,
        which weak duality rules out up to rounding."""
        return self.solved and self.s_n_lb > 0.0


def _sn_from_z(z: float) -> float:
    """log(2 z - 1), read as 0 within 1e-12 of z = 1; NaN stays NaN."""
    t = 2.0 * z - 1.0
    return 0.0 if t <= 1.0 + 1e-12 else math.log(t)


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
    # the multiplicity of every big block: 2 for a sector held for its swap
    # partner at theta = pi/4, else 1 (module docstring)
    _big_mult: list = field(repr=False)
    # Phi's rows per rho sector, the slot of its big columns, the end of
    # each slot among the slots laid end to end, and the (big entry, slot
    # entry, coefficient) arrays of its entries (``_phi_data``); a face
    # holds its own rows and slots
    _phi: tuple = field(repr=False)
    # the score row: Q on the rho sectors, and the (eigenvalue, sector
    # blocks of its projector) at the bottom and the top of Q's spectrum,
    # the unit-trace states that repair the score of a projected iterate.
    # None where the score holds identically: on a face, or where Q = I/2
    _score: tuple | None = field(repr=False)

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
        product (the rows of ``_phi``), summed over the sectors of one
        residue (the two N_- parities at theta = pi/4); the partial
        transpose then moves its entries into the big blocks by one
        ``np.bincount`` over the fixed entries of ``_phi``, which also form
        the T-even and T-odd combinations at theta = pi/4.  Every product broadcasts over
        leading axes of the blocks, and the scatter runs once per leading
        index.
        """
        rows, slots, slot_ends, (src, pos, coef) = self._phi
        prods = [None] * len(slot_ends)
        for r, x, k in zip(rows, blocks, slots):
            m = r.T @ x @ r
            prods[k] = m if prods[k] is None else prods[k] + m
        lead = prods[0].shape[:-2]
        flat = np.concatenate([m.reshape(lead + (-1,)) for m in prods], axis=-1)
        dims = [len(g) for g in self._big_space.groups]
        ends = np.cumsum([d * d for d in dims])
        out = np.array([np.bincount(src, f[pos] * coef, minlength=ends[-1])
                        for f in flat.reshape(-1, flat.shape[-1])]).reshape(lead + (-1,))
        return [out[..., e - d * d:e].reshape(lead + (d, d)) for d, e in zip(dims, ends)]

    def phi_adjoint(self, blocks: list) -> list:
        """Phi*: the entries of ``phi`` read backwards, one ``np.bincount``
        of the big block entries, each times its multiplicity and the
        entry's coefficient, into the slots, then R_r (.) R_r^T; the adjoint
        in the inner product that weights each big block by its
        multiplicity."""
        rows, slots, slot_ends, (src, pos, coef) = self._phi
        flat = np.concatenate([m * y.ravel() for y, m in zip(blocks, self._big_mult)])
        w = np.split(np.bincount(pos, flat[src] * coef, minlength=slot_ends[-1]), slot_ends)
        return [r @ w[k].reshape(r.shape[1], -1) @ r.T for r, k in zip(rows, slots)]

    def score_of(self, rho_small: np.ndarray) -> float:
        return float(np.tensordot(self._q_small, rho_small, 2))


def _read_only(*objs) -> None:
    """Clear the write flag of every array in ``objs``, nested lists, tuples
    and block spaces included."""
    for obj in objs:
        if isinstance(obj, np.ndarray):
            obj.flags.writeable = False
        elif isinstance(obj, (list, tuple)):
            _read_only(*obj)
        elif isinstance(obj, _BlockSpace):
            _read_only(obj.groups, obj.svec_data)


def _row_data(K: int, theta: float, n_max: int, symmetry_reduction: bool) -> dict:
    """The part of ``build_problem`` that does not depend on p_target: Q
    and its spectrum per sector, the blocks of the big variable, the
    product anchors and, for the problem off the faces, its rho space and
    Phi, as read-only arrays, since every problem built from the row
    shares them.  One U(theta, 2 n_max) and one set of doubled-space levels
    serve every part that reads them; of the big blocks the row keeps only
    their space and multiplicities, the rest is in Phi's entries."""
    d1, D1 = n_max + 1, 2 * n_max + 1
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

    # Q couples only levels equal mod K, and acts on the + mode alone, so
    # its spectrum is taken sector by sector
    sectors = _residue_groups(rho_labels, K, symmetry_reduction,
                              None if t_sign is None else j_idx)
    spectra = [np.linalg.eigh(q_small[np.ix_(g, g)]) for g in sectors]
    residues = [set((rho_labels[g] % K).tolist()) for g in sectors]
    rho_space = _BlockSpace(ds, sectors)
    # the states that repair the score: one sector's bottom and top
    # eigenvector, as sector blocks
    q_edges = []
    for pick, col in ((min, 0), (max, -1)):
        k = pick(range(len(sectors)), key=lambda k: spectra[k][0][col])
        v = spectra[k][1][:, col]
        blocks = rho_space.eye(0.0)
        blocks[k] = np.outer(v, v)
        q_edges.append((spectra[k][0][col], blocks))
    a, b = np.divmod(np.arange(D1 * D1), D1)
    held = _held_blocks(a, b, K, symmetry_reduction, t_sign)
    # the blocks take consecutive coordinates of their own: T-even and
    # T-odd blocks are not index sets of the big space
    ends = np.cumsum([states.shape[1] for states, _, _ in held])
    big_space = _BlockSpace(int(ends[-1]), np.split(np.arange(ends[-1]), ends[:-1]))

    # the rows of U on the doubled cutoff at the levels of the small space,
    # which embeds in the big one; the row keeps what it reads of them
    rot = mode_rotation_unitary(theta, 2 * n_max).matrix.real[i_idx * D1 + j_idx]
    # (score, vector) of four product states with z = 1 (module docstring):
    # for each physical mode, the bottom and the top eigenvector of Q on
    # that mode's levels, the other mode in vacuum.  Their total number is
    # at most n_max, so the columns of U at |k, 0> and at |0, k> lie in the
    # small space, and the partial transpose of a product state is itself
    anchors = []
    for cols in (np.arange(d1) * D1, np.arange(d1)):
        basis = rot[:, cols]
        w, v = np.linalg.eigh(basis.T @ q_small @ basis)
        anchors += [(float(w[k]), basis @ v[:, k]) for k in (0, -1)]

    row = dict(K=K, theta=theta, n_max=n_max, q_small=q_small, spectra=spectra,
               rho_space=rho_space, big_mult=[mult for _, _, mult in held],
               big_space=big_space, score=(rho_space.blocks_from_full(q_small), q_edges),
               anchors=anchors, phi=_phi_data(rot, rho_space, residues, held, a, b, K))
    _read_only(*row.values())
    return row


def _check_targets(p_targets, n_max: int) -> None:
    if not all(0.0 <= p <= 1.0 for p in p_targets):
        raise ValueError("p_target must lie in [0, 1]")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")


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
    sector, so the solver variable keeps the sector blocks.  The part that
    does not depend on ``p_target`` comes from ``_row_data``, the rest from
    ``_cell_problem``.
    """
    _check_targets([p_target], n_max)
    return _cell_problem(_row_data(K, theta, n_max, symmetry_reduction), p_target)


def _cell_problem(row: dict, p_target: float) -> SdpProblem:
    """The problem of one score on a row of ``_row_data``: the range check,
    the face basis and the score row of ``build_problem``."""
    n_max, spectra = row["n_max"], row["spectra"]
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

    face_basis = None
    rho_space, phi = row["rho_space"], row["phi"]
    if on_face is not None:
        # the face is spanned sector by sector, so its coordinates keep the
        # sector blocks
        kept = [k for k, sel in enumerate(on_face) if sel.any()]
        vecs = [spectra[k][1][:, on_face[k]] for k in kept]
        ends = np.cumsum([v.shape[1] for v in vecs])
        rho_space = _BlockSpace(int(ends[-1]), [
            np.arange(end - v.shape[1], end) for v, end in zip(vecs, ends)])
        face_basis = np.zeros(((n_max + 1) ** 2, rho_space.dim))
        for k, v, cols in zip(kept, vecs, rho_space.groups):
            face_basis[np.ix_(row["rho_space"].groups[k], cols)] = v
        # a face vector is v (x) |j> for every level j <= n_max of the - mode,
        # and Q has faces only when n_max >= K, so the face meets every
        # residue and every slot of the row: its Phi rows are V_k^T times
        # the row's, with the row's slots, ends and entries
        rows, slots, slot_ends, entries = phi
        phi = ([v.T @ rows[k] for k, v in zip(kept, vecs)], [slots[k] for k in kept],
               slot_ends, entries)
    return SdpProblem(
        K=row["K"], theta=row["theta"], p_target=p_target, n_max=n_max,
        _q_small=row["q_small"], _rho_space=rho_space, _big_space=row["big_space"],
        _face_basis=face_basis, _big_mult=row["big_mult"],
        _phi=phi, _score=None if degenerate_q or on_face is not None else row["score"],
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
    if prob._score is not None:
        t_rows.append(rs.pack(prob._score[0]))
    return np.array(t_rows), g_rows


# ---------------------------------------------------------------------------
# honest certificates


def _project_feasible(prob: SdpProblem, blocks: list) -> list:
    """Nearest convenient exactly feasible state, as solver-variable sector
    blocks: PSD clip and renormalize every block, then repair the score by
    mixing with a spectral-edge state."""
    rho = [_clip_eig(b, 0.0, np.inf) for b in blocks]
    trace = sum(np.trace(b) for b in rho)
    if trace <= 0.0:
        rho = prob._rho_space.eye(1.0 / prob._rho_space.dim)
    else:
        rho = [b / trace for b in rho]
    if prob._score is None:
        return rho
    q_blocks, ((lam_lo, state_lo), (lam_hi, state_hi)) = prob._score
    p_now = sum(np.vdot(q, b) for q, b in zip(q_blocks, rho))
    p_want = prob.p_target
    if abs(p_now - p_want) < 1e-15:
        return rho
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

    g skips the blocks that cannot hold the minimum.  lambda_min(H_b - mu Q_b)
    is ||Q_b||-Lipschitz in mu, and 0 <= Q <= 1, so a block whose bottom
    eigenvalue read w at mu' reads at least w - |mu - mu'| at mu.  A block
    is skipped when that, less a margin for the rounding of both
    eigenvalues, still exceeds the running minimum, which it then could not
    have replaced; the blocks keep their order, so the same block wins, ties
    included, and every value is the one evaluating all blocks gives.
    """
    h = prob.phi_adjoint([_clip_eig(b, 0.0, 1.0) for b in lam_blocks])
    if prob._score is None:
        return min(float(np.linalg.eigvalsh(hb)[0]) for hb in h)
    q_blocks, p = prob._score[0], prob.p_target
    # each block's bottom eigenvalue at its last evaluation, and that mu
    last = [None] * len(h)
    h_norms = [float(np.linalg.norm(hb)) for hb in h]

    def g(mu):
        # the value at mu and the supergradient of the minimizing block
        low = None
        for b, (hb, qb) in enumerate(zip(h, q_blocks)):
            if low is not None and last[b] is not None:
                w_last, mu_last = last[b]
                margin = 1e-10 * (2.0 * h_norms[b] + abs(mu) + abs(mu_last))
                if w_last - abs(mu - mu_last) - margin > low[0]:
                    continue
            w, v = np.linalg.eigh(hb - mu * qb)
            last[b] = w[0], mu
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
    it, and ``history`` records the best pair after every offer.  ``offer``
    says stop once the gap is closed or ``stalled``, the count of offers in
    a row (a polish hand-off included) that shrank it by less than 1e-4 of
    it, reaches 12; ``solve`` reads its status from ``converged`` alone.
    """

    def __init__(self, prob: SdpProblem, tol: float):
        self.prob = prob
        self.tol = tol
        self.z_up, self.z_lb = np.inf, -np.inf
        self.rho = None   # best feasible state, as solver-variable sector blocks
        self.lam = None   # best Lambda, as big sector blocks
        self.history = []
        self.stalled = 0

    @property
    def gap(self) -> float:
        return self.z_up - self.z_lb

    @property
    def converged(self) -> bool:
        return self.gap <= self.tol * (1.0 + abs(self.z_up))

    def offer(self, rho_blocks: list, lam_blocks: list | None = None) -> bool:
        """Harvest solver-variable rho sector blocks and Lambda big sector
        blocks; without Lambda the dual bound is the trivial z_lb = 1
        (tr|A| >= tr A = 1).  True once the gap is closed or has stalled."""
        prob = self.prob
        last_gap = self.gap
        rho = _project_feasible(prob, rho_blocks)
        z_up = _primal_value(prob, rho)
        z_lb = 1.0 if lam_blocks is None else max(_dual_bound(prob, lam_blocks), 1.0)
        if z_up < self.z_up:
            self.z_up, self.rho = z_up, rho
        if z_lb > self.z_lb:
            self.z_lb, self.lam = z_lb, lam_blocks
        self.history.append((self.z_up, self.z_lb))
        # the first offer compares with an infinite gap, which any gap shrinks
        stalled = self.gap > last_gap - 1e-4 * max(last_gap, 1e-12)
        self.stalled = self.stalled + 1 if stalled else 0
        return self.converged or self.stalled >= 12


# ---------------------------------------------------------------------------
# interior-point engine


def _cho_ladder(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of the symmetric a, shifted by jitter times
    its mean diagonal, up a ladder from 0 to 1e-6, at the first rung that
    factors; ``NumericalFailure`` when none does.  The upper triangle holds
    leftovers of a."""
    from scipy.linalg import cho_factor

    scale = max(np.trace(a) / len(a), 1e-300)
    for jitter in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        # the shifted copy is built only after a failed factorization
        shifted = a if jitter == 0.0 else a + jitter * scale * np.eye(len(a))
        try:
            return cho_factor(shifted, lower=True, check_finite=False)[0]
        except np.linalg.LinAlgError:
            pass
    raise NumericalFailure("Schur factorization failed")


class _SectorSchur:
    """The interior point's Schur complement M = A (X (.) S^-1) A^T, solved
    through its sectors; no m x m matrix is formed.

    With T the trace and score rows, G the rho part of the match rows, K
    the rho blocks' ``_symkron`` and D_b = K_+,b + K_-,b the varrho_± pair
    block of big sector b (the pair enters the match rows as -/+ I),

        M = [[T K T^T, T K G^T], [G K T^T, H]],   H = D + G K G^T.

    Each D_b takes a Cholesky factor L_b, and K = F F^T a square root from
    the spectrum of each rho block (near a face K's own Cholesky fails).
    Then H = L (I + V V^T) L^T with V = L^-1 G F, and by the Woodbury
    identity H^-1 = L^-T (I - Y Y^T) L^-1 with Y = V L_C^-T, where L_C is
    the Cholesky factor of the capacitance matrix I + V^T V, of the size
    svec(rho).  The trace and score rows go through the bordered system

        S_2 = T K T^T - T K G^T H^-1 G K T^T = E^T E,   E = L_C^-1 F^T T^T.

    Every term is bounded (I + V^T V >= I, so ||Y|| <= 1) and S_2 is a sum
    of squares.  The unscaled forms, S_2 as the difference above and
    H^-1 = D^-1 - W K (I + G^T W K)^-1 W^T with W = D^-1 G, cancel near the
    optimum: solves through them left residuals of 1e-4 of the right-hand
    side where this form, like the dense Cholesky, leaves 1e-11.  Every
    factor keeps the jitter ladder (``_cho_ladder``), and two passes of
    refinement against M, applied block by block as A K A^T x + D x, undo
    the jitter and the clipped rounding of F.  Blocks or a solve that are
    not finite, or a factor that fails, raise ``NumericalFailure``.  Every
    triangular solve, on a vector or a matrix, is LAPACK ``dtrtrs``, and the
    bordered system's solve is ``dpotrs``: at these sizes the call overhead
    of scipy's wrappers costs more than the solves.
    """

    def __init__(self, t_rows: np.ndarray, g_rows: np.ndarray, k_rho: list, d_blocks: list):
        from scipy.linalg.lapack import dtrtrs

        if not all(np.isfinite(b).all() for b in k_rho + d_blocks):
            raise NumericalFailure("Schur blocks are not finite")
        n = g_rows.shape[1]
        self.k, f = np.zeros((n, n)), np.zeros((n, n))
        ends = np.cumsum([len(b) for b in k_rho])
        for kb, e in zip(k_rho, ends):
            w, v = np.linalg.eigh(kb)
            self.k[e - len(kb):e, e - len(kb):e] = kb
            f[e - len(kb):e, e - len(kb):e] = v * np.sqrt(np.maximum(w, 0.0))
        self.t_rows, self.g_rows, self.d_blocks = t_rows, g_rows, d_blocks
        self.cuts = np.cumsum([len(b) for b in d_blocks])[:-1]
        self.l_d = [_cho_ladder(b) for b in d_blocks]
        v = np.concatenate([dtrtrs(l, gb, lower=1)[0]
                            for l, gb in zip(self.l_d, np.split(g_rows @ f, self.cuts))])
        l_c = _cho_ladder(np.eye(n) + v.T @ v)
        self.y = dtrtrs(l_c, v.T, lower=1)[0].T
        self.e = dtrtrs(l_c, (t_rows @ f).T, lower=1)[0]
        self.s2 = _cho_ladder(self.e.T @ self.e)

    def _l_solve(self, v: np.ndarray, trans: int = 0) -> np.ndarray:
        """L^-1 v, or L^-T v with ``trans``, for a vector v, one D_b factor at
        a time."""
        from scipy.linalg.lapack import dtrtrs

        return np.concatenate([dtrtrs(l, vb, lower=1, trans=trans)[0]
                               for l, vb in zip(self.l_d, np.split(v, self.cuts))])

    def _solve_once(self, r: np.ndarray) -> np.ndarray:
        from scipy.linalg.lapack import dpotrs

        n_t = len(self.t_rows)
        a = self._l_solve(r[n_t:])
        b = self.y.T @ a
        y_t, _ = dpotrs(self.s2, r[:n_t] - self.e.T @ b, lower=1)
        return np.concatenate([y_t, self._l_solve(a - self.y @ (b + self.e @ y_t), trans=1)])

    def _apply(self, x: np.ndarray) -> np.ndarray:
        n_t = len(self.t_rows)
        kx = self.k @ (self.t_rows.T @ x[:n_t] + self.g_rows.T @ x[n_t:])
        dx = [b @ xb for b, xb in zip(self.d_blocks, np.split(x[n_t:], self.cuts))]
        return np.concatenate([self.t_rows @ kx, self.g_rows @ kx + np.concatenate(dx)])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._solve_once(rhs)
        for _ in range(2):
            x += self._solve_once(rhs - self._apply(x))
        if not np.isfinite(x).all():
            raise NumericalFailure("Schur solve is not finite")
        return x


def _jittered_cholesky(stack: np.ndarray) -> tuple:
    """The Cholesky factors of a stack of blocks, again with 1e-12 on the
    diagonal when that fails, and whether it did."""
    try:
        return np.linalg.cholesky(stack), False
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(stack + 1e-12 * np.eye(stack.shape[-1])), True
    except np.linalg.LinAlgError:
        raise NumericalFailure("a cone block is not positive definite") from None


def _cone_factors(x: list, s: list) -> tuple:
    """The inverse Cholesky factors L^-1 of the X and S blocks, as
    (indices into x + s, L^-1) per stack, and S^-1 in block order.

    The X blocks of each size are stacked, and then the S blocks of each
    size; each stack takes one batched Cholesky (``_jittered_cholesky``,
    which adds 1e-12 on the diagonal when it fails), and numpy factors each
    matrix of a stack as it would alone.  Each factor is inverted by
    forward substitution on the identity, LAPACK ``dtrtrs`` (``dtrtri``
    rounds otherwise, and with it one more near-face cell ended
    ``max-iter``), and S^-1 = L^-T L^-1, symmetrized.  Near the optimum S
    has eigenvalues near mu, far below that jitter, so the S^-1 of a
    jittered stack is ``np.linalg.inv`` of its blocks: the jitter moves
    step lengths only."""
    from scipy.linalg.lapack import dtrtrs

    factors, s_inv = [], [None] * len(s)
    for offset, side, dual in ((0, x, False), (len(x), s, True)):
        sizes = np.array([len(b) for b in side])
        for d in np.unique(sizes):
            idx = np.flatnonzero(sizes == d)
            stack = np.stack([side[i] for i in idx])
            l, jittered = _jittered_cholesky(stack)
            eye = np.eye(d)
            linv = np.array([dtrtrs(m, eye, lower=1)[0] for m in l])
            factors.append((offset + idx, linv))
            if not dual:
                continue
            if jittered:
                try:
                    inv = np.linalg.inv(stack)
                except np.linalg.LinAlgError:
                    raise NumericalFailure("a dual cone block is singular") from None
            else:
                inv = linv.swapaxes(1, 2) @ linv
            for i, m in zip(idx, (inv + inv.swapaxes(1, 2)) / 2.0):
                s_inv[i] = m
    return factors, s_inv


def _max_steps(factors: list, dirs: list) -> np.ndarray:
    """sup alpha with block + alpha * direction PSD, for every block of
    ``_cone_factors`` and its direction D: -1 / lambda_min(L^-1 D L^-T),
    or inf when that is >= 0.  Each stack takes two batched matrix products
    and one ``eigvalsh``; numpy runs the same routine on each matrix of a
    stack."""
    steps = np.empty(len(dirs))
    for idx, linv in factors:
        t = linv @ np.stack([dirs[i] for i in idx]) @ linv.swapaxes(1, 2)
        wmin = np.linalg.eigvalsh((t + t.swapaxes(1, 2)) / 2.0)[:, 0]
        with np.errstate(divide="ignore"):
            steps[idx] = np.where(wmin >= 0.0, np.inf, -1.0 / wmin)
    return steps


def _solve_ipm(prob: SdpProblem, certs: _Certificates, max_iters: int):
    """HKM predictor-corrector on the block formulation.

    One list of PSD blocks: the rho sectors, then the varrho_+ sectors, then
    the varrho_- sectors.  Constraints: trace, (score), and the
    partial-transpose match in the svec basis of every big sector, where
    rho enters through the stored rows and varrho_± as -/+ the identity.
    The objective weights each varrho_+ block by its multiplicity m, so the
    dual slack of the pair keeps -y between 0 and m on its match rows.
    Each point is offered to ``certs`` once, with Lambda = -y/m on the
    match rows.  The keeper's stop, a step that the cone blocks or a failed
    Schur factorization or solve ends the run.  Returns the iteration count.

    The Newton system is solved sector by sector (``_SectorSchur``): one
    Cholesky factor per varrho_± pair block, and systems of the size
    svec(rho) for the rho side and of two rows for the trace and score.
    The m x m Schur matrix is never formed; at n = 3 off pi/4 (m = 427) an
    iteration does about 13 Mflop in its factors and solves, where forming
    and factoring that matrix took 45.

    The HKM right-hand side X R_d S^-1 - sigma mu S^-1 + X + C S^-1 is not
    symmetric, and svec reads one triangle.  The Schur matrix (``_symkron``)
    and the recovered dx are those of its symmetric part, so each block is
    symmetrized before packing; then A(dx) = r_p (Todd, "Semidefinite
    optimization", Acta Numerica 10 (2001), on symmetrized directions).
    """
    t_rows, g_rows = _assemble_constraint_rows(prob)
    rs, bs = prob._rho_space, prob._big_space
    nr, nb = len(rs.groups), len(bs.groups)
    svec_data = rs.svec_data + bs.svec_data + bs.svec_data
    n_t = t_rows.shape[0]

    b_vec = np.zeros(n_t + g_rows.shape[0])
    b_vec[0] = 1.0
    if prob._score is not None:
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
    x = rs.eye(1.0 / rs.dim) + bs.eye(2.0) + bs.eye(1.0)
    s = [np.eye(len(cb)) for cb in c]
    y = np.zeros(len(b_vec))
    dim_total = sum(len(cb) for cb in c)

    def inner(blocks_a, blocks_b):
        return sum(np.vdot(a, b) for a, b in zip(blocks_a, blocks_b))

    def step_lens(dx, ds):
        # the primal and the dual step in one pass, each capped at 1
        steps = _max_steps(factors, dx + ds)
        return min(1.0, steps[:len(x)].min()), min(1.0, steps[len(x):].min())

    def solve_newton(sigma_mu, corr):
        # standard HKM right-hand side at the iterate, with the optional
        # Mehrotra correction folded into corr
        e = [xb @ rb @ si - sigma_mu * si + xb + cb @ si
             for xb, rb, si, cb in zip(x, rd, s_inv, corr)]
        # symmetrized, since svec reads one triangle (see the docstring)
        dy = schur.solve(rp + a_apply([(v + v.T) / 2.0 for v in e]))
        ds = [rb - ab for rb, ab in zip(rd, at_apply(dy))]
        dx = [sigma_mu * si - xb - xb @ dsb @ si - cb @ si
              for xb, si, dsb, cb in zip(x, s_inv, ds, corr)]
        return dy, [(v + v.T) / 2.0 for v in dx], ds

    # the primal residual that the steps leave, (1 - alpha_p) times the last
    # one, relative to b: the sigma floor below reads it, not the iterate's,
    # whose rounding near the optimum (1e-12 to 1e-9, from the Newton solve,
    # against mu near 1e-14) would hold sigma at 0.99, and mu and the gap
    # would creep down 1% a step through the whole budget
    infeas = np.linalg.norm(b_vec - a_apply(x)) / (1.0 + np.linalg.norm(b_vec))
    it = 0
    for it in range(1, max_iters + 1):
        rp = b_vec - a_apply(x)
        rd = [cb - ab - sb for cb, ab, sb in zip(c, at_apply(y), s)]
        mu = inner(x, s) / dim_total

        if certs.offer(x[:nr], [-b / m for b, m in zip(bs.unpack(y[n_t:]), mult)]):
            break

        try:
            # one factor of every X and S block serves S^-1 and both step
            # lengths
            factors, s_inv = _cone_factors(x, s)
            # Schur complement M = A (X (.) S^-1) A^T, held as its sector
            # blocks: the rho blocks' K and each varrho_± pair's D_b = K_+ + K_-
            k = [_symkron(xb, si, sd) for xb, si, sd in zip(x, s_inv, svec_data)]
            schur = _SectorSchur(t_rows, g_rows, k[:nr],
                                 [kp + kq for kp, kq in zip(k[nr:nr + nb], k[nr + nb:])])
            _, dx_aff, ds_aff = solve_newton(0.0, zeros)
            ap_aff, ad_aff = step_lens(dx_aff, ds_aff)
            mu_aff = inner([xb + ap_aff * d for xb, d in zip(x, dx_aff)],
                           [sb + ad_aff * d for sb, d in zip(s, ds_aff)]) / dim_total
            sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
            # do not let complementarity outrun feasibility: a small barrier
            # parameter with large residuals strands the iterate off-path
            sigma = max(sigma, min(0.99, (infeas / (infeas + mu)) ** 3))
            dy, dx, ds = solve_newton(
                sigma * mu, [dxb @ dsb for dxb, dsb in zip(dx_aff, ds_aff)])
        except NumericalFailure:
            # a cone block that does not factor or a failed Schur
            # factorization or solve: the splitting polish finishes
            break

        tau = 0.9 if it < 8 else 0.98
        ap, ad = (tau * a for a in step_lens(dx, ds))
        if min(ap, ad) < 1e-4:
            # blocked by the cone, as at a degenerate face: the polish finishes
            break
        infeas *= 1.0 - ap
        x = [xb + ap * d for xb, d in zip(x, dx)]
        s = [sb + ad * d for sb, d in zip(s, ds)]
        y = y + ad * dy
    else:  # the point the last budgeted step leaves, or the start at budget 0
        certs.offer(x[:nr], [-b / m for b, m in zip(bs.unpack(y[n_t:]), mult)])
    return it


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
    step it caps, so a secant step from a slope at rounding level cannot
    leap to a b where S - b Q keeps no digit of S; then steps stay inside
    the bracket, bisecting when a secant step leaves it.  Without the score
    constraint Q reads 0, so b stays put.
    """
    sym = [(m + m.T) / 2.0 for m in blocks]
    qs, p = ((prob._score[0], prob.p_target) if prob._score is not None
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
            if abs(step) >= reach:
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

    The linear map Phi is a Hilbert-Schmidt isometry, so the dual step
    0.95 omega and the primal step 0.95 / omega converge for every omega > 0
    (Chambolle & Pock, J. Math. Imaging Vis. 40, 120 (2011)), and omega
    should be the ratio of the distances the two variables travel (PDLP's
    primal weight, Applegate et al., NeurIPS 2021).  From a cold start that
    is the ratio of the two sets' Frobenius diameters in the inner product
    that weights each big block (size d_b) by its multiplicity m_b, where
    ``phi_adjoint`` is the adjoint: 2 sqrt(sum_b m_b d_b) for -I <= Y <= I
    and sqrt 2 for the states, so omega = sqrt(2 sum_b m_b d_b) =
    sqrt 2 (2 n_max + 1), with or without reduction and on a face.  When
    ``certs`` already holds bounds from another engine, the run warm-starts
    from its best rho and its best Lambda, which are not a diameter away,
    and keeps omega = 1.

    rho and Y are held as their sector blocks, where the optimum lies
    (module docstring), so the dual clip and the projection work one block
    at a time.  Each projection starts its search for the score multiplier
    from the last one's (b, slope), from (0, -1) at the first.  Iterates are
    offered to ``certs`` periodically, and the start itself when the budget
    is 0, until the keeper says stop.  Returns the iteration count.
    """
    rs, bs = prob._rho_space, prob._big_space
    if certs.rho is None:
        rho = rs.eye(1.0 / rs.dim)
        y_big = bs.eye(0.0)
        omega = math.sqrt(2.0 * sum(m * len(g) for m, g in zip(prob._big_mult, bs.groups)))
    else:
        rho = certs.rho
        y_big = [2.0 * _clip_eig(lam, 0.0, 1.0) - np.eye(len(lam)) for lam in certs.lam]
        omega = 1.0
    rho_bar = rho
    warm = (0.0, -1.0)
    sigma, tau = 0.95 * omega, 0.95 / omega
    it = 0
    if max_iters == 0:
        certs.offer(rho, [(y + np.eye(len(y))) / 2.0 for y in y_big])

    for it in range(1, max_iters + 1):
        y_big = [_clip_eig(y + sigma * f, -1.0, 1.0)
                 for y, f in zip(y_big, prob.phi(rho_bar))]
        grad = prob.phi_adjoint(y_big)
        rho_new, warm = _project_spectrahedron(
            prob, [r - tau * g for r, g in zip(rho, grad)], warm)
        rho_bar = [2.0 * rn - r for rn, r in zip(rho_new, rho)]
        rho = rho_new
        if it % 25 == 0 or it == max_iters:
            # Y in [-1, 1] maps to Lambda = (Y + 1)/2 in [0, 1]
            if certs.offer(rho, [(y + np.eye(len(y))) / 2.0 for y in y_big]):
                break
    return it


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
    unless the Schur complement would be unreasonably large).  Both engines
    stop when the keeper's gap closes or stalls, the interior point also at
    its first blocked step; a splitting polish from the keeper's best state
    and Lambda finishes.  The status is ``optimal`` if the gap meets ``tol``
    (> 0), else ``max-iter``.  When ``max_iters`` is omitted, engine
    defaults apply (200 interior-point iterations plus up to 8000 splitting
    polish iterations, or 20000 splitting iterations); when given, it caps
    the total of both engines, must be >= 0, and a budget of 0 reports the
    honest bounds of the engine's starting point.

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
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if engine == "auto":
        m = prob._big_space.total + 2
        engine = "interior-point" if m <= 2600 else "first-order"
    t0 = time.perf_counter()
    rs = prob._rho_space
    certs = _Certificates(prob, tol)
    if start is not None and prob._face_basis is None and certs.offer(rs.blocks_from_full(start)):
        iters = 0
    else:
        # a start that falls short leaves no trace: the engines run on a
        # fresh keeper, exactly as without it
        certs = _Certificates(prob, tol)
        if engine == "interior-point":
            iters = _solve_ipm(prob, certs, 200 if max_iters is None else max_iters)
            polish = 8000 if max_iters is None else max_iters - iters
            if not certs.converged and polish > 0:
                # interior-point runs can leave the primal side loose when the
                # optimal face is degenerate; polish it with splitting
                # iterations warm-started from the same certificates (the
                # dual bound is usually tight already)
                iters += _solve_pdhg(prob, certs, polish)
        else:
            iters = _solve_pdhg(prob, certs, 20000 if max_iters is None else max_iters)
    wall = time.perf_counter() - t0
    z_up, z_lb = certs.z_up, certs.z_lb
    if not math.isfinite(z_up):
        raise NumericalFailure("no feasible primal point was recovered")
    rho = prob.to_state_matrix(rs.full_from_blocks(certs.rho))
    return SdpSolution(
        z=z_up, z_lb=z_lb, iterations=iters,
        status="optimal" if certs.converged else "max-iter",
        rho=TwoModeState(rho.astype(complex), prob.n_max, NORMAL, validate=False),
        history=certs.history, wall_time=wall,
    )


# ---------------------------------------------------------------------------
# sweeps


COLUMNS = ("theta", "p_target", "z", "s_n", "dual_gap", "status", "iterations")


def monotonicity_violations(cells: list) -> list:
    """(label, fixed value, a, b) of every pair of neighbouring ``sweep``
    cells whose certified values decrease.

    Certified values should not decrease along theta, nor along p away
    from 1/2: z is convex in p and z(1/2) = 1 (the vacuum), so a pair on
    both sides of 1/2 is skipped.  Every value agrees at the folded angle
    (``fold_theta``), so theta is ordered by it, and the raw angles are
    reported.  Compares lower-bounded values against upper values so solver
    gaps cannot produce spurious reports.
    """
    slack = 1e-6
    solved = [c for c in cells if c[2].solved]
    out = []
    for label, along, fixed, order in (("p", 1, 0, float), ("theta", 0, 1, fold_theta)):
        lines = {}
        for c in solved:
            lines.setdefault(round(c[fixed], 12), []).append(c)
        for key, line in lines.items():
            line = sorted(line, key=lambda c: order(c[along]))
            for a, b in zip(line, line[1:]):
                if label == "p" and a[1] < 0.5 < b[1]:
                    continue
                near, far = a[2], b[2]
                if label == "p" and b[1] <= 0.5:
                    near, far = far, near
                if far.s_n_lb < near.s_n_lb - (near.dual_gap + far.dual_gap + slack):
                    out.append((label, key, a[along], b[along]))
    return out


def certify_csv(cells: list) -> str:
    """The ``sweep`` cells as CSV, each certified interval rounded outward
    (``_outward``); no timing is written, so reruns write the same bytes."""
    lines = [",".join(COLUMNS)]
    for theta, p, sol in cells:
        z, s_n, gap = _outward(sol)
        lines.append(f"{theta:.12g},{p:.12g},{z},{s_n},{gap},{sol.status},"
                     f"{sol.iterations}")
    return "\n".join(lines) + "\n"


def _outward(sol: SdpSolution) -> tuple:
    """z, s_n and dual_gap of a cell as written to ``certify.csv``.

    A cell certifies only the interval [s_n_lb, s_n], so the digits below
    its gap are rounding that the BLAS kernels and the thread count move.
    s_n is rounded up and s_n_lb down, exactly in decimal, at one decimal
    below the leading digit of the gap, ``dual_gap`` is written as the
    difference of the two, and z is rounded up at the quantum of z - z_lb:
    the written interval holds the solver's.  A cell without a gap (z = 1)
    or without a value (NaN) keeps 12 significant digits."""
    if not sol.dual_gap > 0.0 or not sol.z > sol.z_lb:
        return f"{sol.z:.12g}", f"{sol.s_n:.12g}", f"{sol.dual_gap:.12g}"
    def quantum(gap):
        # 10^(floor(log10 gap) - 1) for a gap > 0
        return Decimal(1).scaleb(Decimal(gap).adjusted() - 1)

    exact = Context(prec=800)  # holds every double and their differences
    q = quantum(sol.dual_gap)
    s_up = Decimal(sol.s_n).quantize(q, ROUND_CEILING, exact)
    s_lb = Decimal(sol.s_n_lb).quantize(q, ROUND_FLOOR, exact)
    z_up = Decimal(sol.z).quantize(quantum(sol.z - sol.z_lb), ROUND_CEILING, exact)
    return f"{z_up:f}", f"{s_up:f}", f"{exact.subtract(s_up, s_lb):f}"


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


def _solve_row(args) -> list:
    """The cells of one theta row, solved in descending p and returned in
    grid order.  The row is built once (``_row_data``), and every cell's
    problem is built from it, infeasible cells included; each cell starts
    from the row's anchors, and a solve that ends optimal with z_lb = 1
    adds its state to them."""
    K, n_max, theta, p_grid, tol = args
    row = _row_data(K, theta, n_max, True)
    anchors = [(score, np.outer(x, x)) for score, x in row["anchors"]]
    cells = [None] * len(p_grid)
    for i in sorted(range(len(p_grid)), key=lambda i: -p_grid[i]):
        p = p_grid[i]
        try:
            problem = _cell_problem(row, p)
            sol = solve(problem, tol=tol, start=_row_start(anchors, p))
        except (InfeasibleTarget, NumericalFailure) as exc:
            status = "infeasible" if isinstance(exc, InfeasibleTarget) else "failed"
            nan = float("nan")
            sol = SdpSolution(nan, nan, 0, status, reason=str(exc))
        else:
            if sol.status == "optimal" and sol.z_lb == 1.0:
                rho = sol.rho.matrix.real
                anchors.append((problem.score_of(rho), rho))
        cells[i] = theta, p, sol
    return cells


def sweep(
    theta_grid,
    p_grid,
    K: int,
    n_max: int,
    tol: float = 1e-7,
    threads: int = 1,
) -> list:
    """The list of (theta, p, SdpSolution) cells, one per grid point, in
    grid order; a cell that raises ``InfeasibleTarget`` or
    ``NumericalFailure`` keeps its status and reason in its solution.
    ``certify_csv`` and ``monotonicity_violations`` read the list.

    Each theta row is certified as a unit, in descending p, with a list of
    anchors: (score, state) pairs of feasible states with z = 1, starting
    with the row's four product states (``_row_data``).  z(rho) =
    tr Phi(rho)_+ is convex in rho and the score is linear, so the mix of
    two anchors that hits a cell's p exactly has z no larger than the
    larger anchor z.  Such a start closes the gap at once (``solve``'s
    ``start``), and the cell costs no iterations: every cell between the
    lowest and the highest product score does.  A cell above them that
    ends with z_lb = 1 adds its state; a cell without a bracket, or whose
    start falls short, is solved as a stand-alone cell would be.  Each row
    builds its own data and its cells' problems from it (``_row_data``).
    Rows keep grid order, and each row is deterministic and shares nothing
    with the others, so ``threads`` spreads whole rows over threads without
    changing an output byte.  The scores and n_max are checked, as
    ``build_problem`` checks them, before any row is built.
    """
    p_grid = [float(p) for p in p_grid]
    _check_targets(p_grid, n_max)
    jobs = [(K, n_max, float(th), p_grid, tol) for th in theta_grid]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_solve_row, jobs))
    else:
        rows = [_solve_row(j) for j in jobs]
    return [cell for row in rows for cell in row]
