import dataclasses
import math
import tracemalloc
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, solve_triangular
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dtrtrs

import oscwit.sdp
from oscwit.errors import InfeasibleTarget, NumericalFailure
from oscwit.fock import (
    NORMAL,
    PHYSICAL,
    TwoModeState,
    log_negativity,
    partial_transpose_matrix,
)
from oscwit.modes import fold_theta, mode_rotation_unitary, transform_state
from oscwit.protocol import max_score, qk_matrix
from oscwit.sdp import (
    COLUMNS,
    SdpSolution,
    _assemble_constraint_rows,
    _cell_problem,
    _Certificates,
    _clip_eig,
    _dual_bound,
    _cone_factors,
    _max_steps,
    _primal_value,
    _project_feasible,
    _project_spectrahedron,
    _row_data,
    _SectorSchur,
    _sn_from_z,
    _svec_data,
    _symkron,
    build_problem,
    certify_csv,
    monotonicity_violations,
    solve,
    sweep,
)
from oracles import embed_state, hermitian_basis, phi_data_reference, product_anchors

rng = np.random.default_rng(7)


def random_normal_density(n_max):
    d = (n_max + 1) ** 2
    m = rng.normal(size=(d, d))
    m = m @ m.T
    return m / np.trace(m)


def product_expansion(n_max, m):
    """Coordinates tr((B_j x B_k) m) of m over the product operator basis,
    element (0, 0) excluded; the complement of the fixed trace part."""
    b = hermitian_basis(n_max).elements
    return np.array([np.trace(np.kron(bj, bk) @ m).real
                     for j, bj in enumerate(b) for k, bk in enumerate(b) if j or k])


class TestBuild:
    def test_half_always_feasible(self):
        for n in (0, 1, 2, 3):
            prob = build_problem(3, 0.3 if n >= 3 else 0.0, 0.5, n)
            assert prob.p_target == 0.5

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTarget):
            build_problem(3, np.pi / 4, 0.68, 3)
        with pytest.raises(InfeasibleTarget):
            build_problem(3, np.pi / 4, 0.55, 2)

    def test_q_vec_expansion_identity(self):
        # tr(rho Q) = 1/2 + x . q for any unit-trace state
        prob = build_problem(3, 0.7, 0.6, 3)
        q_vec = product_expansion(3, prob._q_small)
        for _ in range(20):
            rho = random_normal_density(3)
            x = product_expansion(3, rho)
            assert prob.score_of(rho) == pytest.approx(
                0.5 + float(x @ q_vec), abs=1e-10
            )

    def test_phi_preserves_trace_and_is_isometry(self):
        prob = build_problem(3, 0.5, 0.5, 2)
        rs = prob._rho_space
        r = rs.full_from_blocks(random_blocks(rs))
        out = big_dense(prob, prob.phi(rs.blocks_from_full(r)))
        assert np.trace(out) == pytest.approx(np.trace(r), abs=1e-12)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(r), abs=1e-10)


def dense_phi(prob, rho_small):
    """Embed into the doubled space, rotate, partial-transpose."""
    d_big = 2 * prob.n_max + 1
    u = mode_rotation_unitary(prob.theta, 2 * prob.n_max).matrix.real
    emb = [i * d_big + j for i in range(prob.n_max + 1) for j in range(prob.n_max + 1)]
    big = np.zeros((d_big ** 2, d_big ** 2))
    big[np.ix_(emb, emb)] = rho_small
    return partial_transpose_matrix(u.T @ big @ u, d_big)


def dense_phi_adjoint(prob, y_big):
    """The adjoint of ``dense_phi``: partial-transpose, rotate back, restrict
    to the small space."""
    d_big = 2 * prob.n_max + 1
    u = mode_rotation_unitary(prob.theta, 2 * prob.n_max).matrix.real
    emb = [i * d_big + j for i in range(prob.n_max + 1) for j in range(prob.n_max + 1)]
    return (u @ partial_transpose_matrix(y_big, d_big) @ u.T)[np.ix_(emb, emb)]


def swap_reduced(prob):
    """True when the big variable is held in the swap-reduced blocks:
    theta = pi/4 after folding, with the symmetry reduction on."""
    return fold_theta(prob.theta) == math.pi / 4 and len(prob._big_space.groups) > 1


def swap_operator(prob):
    """T|a, b> = s|b, a> on the doubled physical space: s = 1 at theta =
    pi/4 (mod pi), s = (-1)^(a + b) at theta = -pi/4 (mod pi)."""
    d = 2 * prob.n_max + 1
    a, b = np.divmod(np.arange(d * d), d)
    t = np.zeros((d * d, d * d))
    t[b * d + a, np.arange(d * d)] = 1.0 if prob.theta % math.pi < math.pi / 2 else (-1.0) ** (a + b)
    return t


def big_basis(prob):
    """(B_k, multiplicity) of every big block, with B_k the dense
    orthonormal basis of the block's columns, in the basis |a, b> of index
    a (2n + 1) + b.  Unreduced: the whole space.  Mod-K reduced: the
    (a - b) mod K sectors in residue order.  Swap-reduced: for r = 0..K-1,
    a sector T maps onto itself gives its T-even basis (|a, a>, then
    (|a, b> + T|a, b>)/sqrt 2 for a < b) and its T-odd basis ((|a, b> -
    T|a, b>)/sqrt 2), and of a pair (r, -r) sector r is held twice."""
    d = 2 * prob.n_max + 1
    eye = np.eye(d * d)
    a, b = np.divmod(np.arange(d * d), d)
    if not swap_reduced(prob):
        # one block holds the whole space exactly when the reduction is off
        # or every index falls in sector 0
        label = (a - b) % prob.K if len(prob._big_space.groups) > 1 else np.zeros_like(a)
        return [(eye[:, label == r], 1.0) for r in range(prob.K) if np.any(label == r)]
    t = swap_operator(prob)
    out = []
    for r in range(prob.K):
        sector = (a - b) % prob.K == r
        if (-r) % prob.K > r:
            out.append((eye[:, sector], 2.0))
        elif (-r) % prob.K == r:
            up = eye[:, sector & (a < b)]
            even = np.hstack([eye[:, sector & (a == b)], (up + t @ up) / math.sqrt(2.0)])
            out += [(even, 1.0), ((up - t @ up) / math.sqrt(2.0), 1.0)]
    return [(basis, m) for basis, m in out if basis.shape[1]]


def big_dense(prob, blocks):
    """The dense big matrix that big blocks hold; swap-reduced, the
    T-invariant one."""
    t = swap_operator(prob)
    out = 0.0
    for (basis, m), y in zip(big_basis(prob), blocks):
        part = basis @ y @ basis.T
        out = out + (part if m == 1.0 else part + t @ part @ t.T)
    return out


def big_blocks(prob, dense):
    """B_k^T (dense) B_k for every big block."""
    return [basis.T @ dense @ basis for basis, _ in big_basis(prob)]


def weighted_inner(prob, xs, ys):
    """The inner product of big blocks, each weighted by its multiplicity."""
    return sum(m * np.sum(x * y) for m, x, y in zip(prob._big_mult, xs, ys))


def random_blocks(space):
    out = []
    for g in space.groups:
        m = rng.normal(size=(len(g), len(g)))
        out.append(m + m.T)
    return out


def sector_problems():
    # n = 2 sits below the first protocol coupling (score inactive); n = 3
    # with the score active, and on the top-score face
    for n in (2, 3):
        for theta in (0.3, np.pi / 4):
            for p in ([0.5] if n == 2 else [0.6, max_score(3, 3)[0]]):
                yield build_problem(3, theta, p, n)


def q_spectrum(n):
    return np.linalg.eigh(np.kron(qk_matrix(3, n).matrix.real, np.eye(n + 1)))


def n8_face(end):
    """The K = 3, n = 8 problem on the bottom (end = 0) or top (end = -1)
    face of the score range."""
    w, _ = q_spectrum(8)
    return build_problem(3, np.pi / 4, w[end], 8)


class TestSectorOperator:
    @pytest.mark.parametrize("prob", list(sector_problems()) + [n8_face(-1)])
    def test_blocked_phi_matches_dense_reference(self, prob):
        rs = prob._rho_space
        blocks = random_blocks(rs)
        ref = dense_phi(prob, prob.to_state_matrix(rs.full_from_blocks(blocks)))
        out = big_dense(prob, prob.phi(blocks))
        assert np.max(np.abs(out - ref)) < 1e-12
        # Phi is linear on all matrices, not only on symmetric ones; the
        # image of a non-symmetric one is not T-invariant, so at pi/4 it is
        # compared block by block
        r = rs.blocks_from_full(rng.normal(size=(rs.dim, rs.dim)))
        ref = dense_phi(prob, prob.to_state_matrix(rs.full_from_blocks(r)))
        assert max(np.max(np.abs(y - yr))
                   for y, yr in zip(prob.phi(r), big_blocks(prob, ref))) < 1e-12
        if not swap_reduced(prob):
            assert np.max(np.abs(big_dense(prob, prob.phi(r)) - ref)) < 1e-12

    @pytest.mark.parametrize("prob", list(sector_problems()))
    def test_adjoint(self, prob):
        rs, bs = prob._rho_space, prob._big_space
        x, y = random_blocks(rs), random_blocks(bs)
        lhs = weighted_inner(prob, prob.phi(x), y)
        rhs = sum(np.sum(a * b) for a, b in zip(x, prob.phi_adjoint(y)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        small, big = (prob.n_max + 1) ** 2, (2 * prob.n_max + 1) ** 2
        r = rng.normal(size=(small, small))
        yb = rng.normal(size=(big, big))
        assert np.sum(dense_phi(prob, r) * yb) == pytest.approx(
            np.sum(r * dense_phi_adjoint(prob, yb)), rel=1e-12, abs=1e-12)
        # the blocked adjoint is the dense one, in solver-variable coordinates
        f = np.eye(small) if prob._face_basis is None else prob._face_basis
        ref = f.T @ dense_phi_adjoint(prob, big_dense(prob, y)) @ f
        assert np.max(np.abs(rs.full_from_blocks(prob.phi_adjoint(y)) - ref)) < 1e-12

    @pytest.mark.parametrize("prob", list(sector_problems()))
    def test_block_diagonal_rho_stays_in_sectors(self, prob):
        rs = prob._rho_space
        rho = prob.to_state_matrix(rs.full_from_blocks(random_blocks(rs)))
        dense = dense_phi(prob, rho)
        d = 2 * prob.n_max + 1
        a, b = np.divmod(np.arange(d * d), d)
        label = (a - b) % prob.K
        assert np.max(np.abs(dense[label[:, None] != label[None, :]])) < 1e-12
        if swap_reduced(prob):
            # rho is even under (-1)^N_-, so Phi(rho) commutes with T: no
            # entries between the T-even and T-odd parts of sector 0, and
            # sector -r is T (sector r) T^T
            t = swap_operator(prob)
            (even, _), (odd, _) = big_basis(prob)[:2]
            assert np.max(np.abs(even.T @ dense @ odd)) < 1e-12
            turned = t @ dense @ t.T
            for r in range(prob.K):
                minus = label == (-r) % prob.K
                assert np.max(np.abs(dense[np.ix_(minus, minus)]
                                     - turned[np.ix_(minus, minus)])) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4])
    def test_vacuum_is_a_ppt_anchor(self, theta, n):
        # the rotation conserves total number, so Phi maps the vacuum onto
        # itself exactly; it lies in the span of the product anchors below
        prob = build_problem(3, theta, 0.5, n)
        vac = np.zeros(((n + 1) ** 2,) * 2)
        vac[0, 0] = 1.0
        out = big_dense(prob, prob.phi(prob._rho_space.blocks_from_full(vac)))
        assert np.linalg.eigvalsh(out)[0] >= 0.0
        assert np.array_equal(out, np.diag(np.eye((2 * n + 1) ** 2)[0]))
        assert _primal_value(prob, prob._rho_space.blocks_from_full(vac)) == 1.0
        assert prob.score_of(vac) == qk_matrix(3, n).matrix.real[0, 0]

    def test_primal_value_never_below_one(self):
        # at theta = 0 every product state is PPT, and so is its pinching to
        # the sectors, so z = 1; unclamped, rounding in the spectrum reads
        # some of them one ulp below
        prob = build_problem(3, 0.0, 0.55, 3)
        rs = prob._rho_space
        local = np.random.default_rng(3)
        for _ in range(200):
            a, b = (m @ m.T for m in local.normal(size=(2, 4, 4)))
            product = np.kron(a / np.trace(a), b / np.trace(b))
            z = _primal_value(prob, rs.blocks_from_full(product))
            assert 1.0 <= z < 1.0 + 1e-12

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(theta=st.floats(0.0, math.pi / 4), n=st.sampled_from([2, 3, 4]),
           frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocked_phi_is_an_isometry(self, theta, n, frac, seed):
        # any score the truncation attains, its faces included
        w, _ = q_spectrum(n)
        prob = build_problem(3, theta, w[0] + frac * (w[-1] - w[0]), n)
        rs = prob._rho_space
        local = np.random.default_rng(seed)
        blocks = [m @ m.T for m in (local.normal(size=(len(g), len(g))) for g in rs.groups)]
        trace = sum(np.trace(b) for b in blocks)
        blocks = [b / trace for b in blocks]
        out = prob.phi(blocks)
        # a block held for its swap partner counts twice
        assert sum(m * np.trace(b) for m, b in zip(prob._big_mult, out)) == pytest.approx(
            1.0, abs=1e-12)
        assert math.sqrt(weighted_inner(prob, out, out)) == pytest.approx(
            math.hypot(*(np.linalg.norm(b) for b in blocks)), abs=1e-12)
        ref = dense_phi(prob, prob.to_state_matrix(rs.full_from_blocks(blocks)))
        z_ref = 0.5 * (np.sum(np.abs(np.linalg.eigvalsh(ref))) + 1.0)
        assert abs(_primal_value(prob, blocks) - z_ref) < 1e-12

    def test_step_weight_counts_the_doubled_space(self):
        # a cold splitting run weights its steps by sqrt(2 sum_b m_b d_b),
        # which is sqrt 2 (2 n + 1) on every problem: the big blocks with
        # their multiplicities cover the doubled space once, reduced or not,
        # on a face or off it
        for prob in [*sector_problems(), n8_face(0),
                     build_problem(3, np.pi / 4, 0.6, 3, symmetry_reduction=False)]:
            dims = [len(g) for g in prob._big_space.groups]
            assert sum(m * d for m, d in zip(prob._big_mult, dims)) == (2 * prob.n_max + 1) ** 2

    def test_frozen_ladder_rung(self):
        # theta = pi/4, p = 0.68 first becomes feasible at n = 6; this is
        # the splitting engine's certified bound after 400 iterations.  It
        # may not fall below the bound of equal primal and dual steps, and
        # the weighted steps close the gap below 1e-3 nats
        sol = solve(build_problem(3, np.pi / 4, 0.68, 6), engine="first-order",
                    max_iters=400)
        assert sol.iterations == 400
        assert sol.s_n_lb == pytest.approx(0.6490198939654542, abs=1e-9)
        assert sol.s_n_lb >= 0.6419791754695262
        assert sol.dual_gap <= 1e-3


def face_cases():
    # every (K, n) with K = 2..5 and n <= 11 whose Q is not a multiple of
    # the identity, so that its score range has two faces: K = 3 from
    # n = 3 and K = 5 from n = 5 (at K = 2 and 4, Q is (1/2) identity)
    return [(K, n) for K in range(2, 6) for n in range(12)
            if np.ptp(np.linalg.eigvalsh(qk_matrix(K, n).matrix.real)) >= 1e-13]


class TestRowLayout:
    @pytest.mark.parametrize("K, n", [(K, n) for K in range(2, 6)
                                      for n in (0, 1, 2, 3, 4, 6, 11)])
    def test_phi_data_is_the_per_term_reference(self, K, n):
        # the row's one slot lookup gives Phi the bits, dtypes included, of
        # a lookup per term pair, on and off the swap symmetry's angles
        def same(x, y):
            return x.dtype == y.dtype and np.array_equal(x, y)

        for theta in (0.0, 0.3, np.pi / 4, -np.pi / 4, 3 * np.pi / 4, 1.0):
            for reduce in (True, False):
                row = _row_data(K, theta, n, reduce)
                (rows, slots, ends, entries), mult = phi_data_reference(K, theta, n, reduce)
                got_rows, got_slots, got_ends, got_entries = row["phi"]
                assert len(got_rows) == len(rows)
                assert all(same(x, y) for x, y in zip(got_rows, rows))
                assert got_slots == slots and same(got_ends, ends)
                assert len(got_entries) == len(entries) == 3
                assert all(same(x, y) for x, y in zip(got_entries, entries))
                assert row["big_mult"] == mult


class TestFaceRows:
    @pytest.mark.parametrize("K, n", face_cases())
    def test_face_reads_the_rows_phi(self, K, n):
        # a face vector is v (x) |j> for every j <= n, so the face meets
        # every slot of the row, and its Phi is V_k^T times the row's sector
        # rows with the row's slots, ends and entries
        for theta in (0.3, np.pi / 4, -np.pi / 4):
            row = _row_data(K, theta, n, True)
            spectra = row["spectra"]
            _, _, ends, entries = row["phi"]
            edges = (min(w[0] for w, _ in spectra), max(w[-1] for w, _ in spectra))
            for p in edges:
                prob = _cell_problem(row, p)
                assert prob._face_basis is not None
                assert prob._phi[2] is ends and prob._phi[3] is entries
                assert sorted(set(prob._phi[1])) == list(range(len(ends)))
                rs = prob._rho_space
                x = random_blocks(rs)
                ref = dense_phi(prob, prob.to_state_matrix(rs.full_from_blocks(x)))
                assert np.max(np.abs(big_dense(prob, prob.phi(x)) - ref)) < 1e-12
                y = random_blocks(prob._big_space)
                f = prob._face_basis
                ref = f.T @ dense_phi_adjoint(prob, big_dense(prob, y)) @ f
                assert np.max(np.abs(rs.full_from_blocks(prob.phi_adjoint(y)) - ref)) < 1e-12


def per_column_rows(prob):
    """The svec matrix of Phi built one column at a time: Phi of each svec
    basis element of rho."""
    rs, bs = prob._rho_space, prob._big_space
    return np.column_stack([bs.pack(prob.phi(rs.unpack(e))) for e in np.eye(rs.total)])


class TestConstraintRows:
    @pytest.mark.parametrize("prob", list(sector_problems()) + [
        build_problem(3, 0.3, 0.6, 3, symmetry_reduction=False)])
    def test_rows_match_dense_reference(self, prob):
        t_rows, g_rows = _assemble_constraint_rows(prob)
        rs, bs = prob._rho_space, prob._big_space
        assert np.array_equal(g_rows, per_column_rows(prob))
        for _ in range(3):
            blocks = random_blocks(rs)
            ref = dense_phi(prob, prob.to_state_matrix(rs.full_from_blocks(blocks)))
            out = g_rows @ rs.pack(blocks)
            assert np.max(np.abs(out - bs.pack(big_blocks(prob, ref)))) < 1e-12
        assert np.array_equal(t_rows[0], rs.pack(rs.eye()))
        if prob._score is not None:
            assert np.array_equal(t_rows[1], rs.pack(prob._score[0]))
        else:
            assert t_rows.shape[0] == 1


def bisection_face_projection(m0):
    """Projection onto {rho >= 0, tr = 1} by bisection on the trace shift."""
    sym = (m0 + m0.T) / 2.0
    eye = np.eye(len(sym))

    def tr_of(a):
        return np.clip(np.linalg.eigvalsh(sym - a * eye), 0.0, None).sum()

    lo, hi = -1.0, 1.0
    while tr_of(lo) < 1.0:
        lo *= 2.0
    while tr_of(hi) > 1.0:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tr_of(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    w, v = np.linalg.eigh(sym - 0.5 * (lo + hi) * eye)
    return (v * np.clip(w, 0.0, None)) @ v.T


class TestFaceProjection:
    @pytest.mark.parametrize("p_n", [(0.5, 2), (max_score(3, 3)[0], 3)])
    def test_closed_form_matches_bisection(self, p_n):
        prob = build_problem(3, np.pi / 4, p_n[0], p_n[1])
        assert prob._score is None
        rs = prob._rho_space
        for scale in (0.01, 0.3, 3.0):
            blocks = [scale * b for b in random_blocks(rs)]
            out, _ = _project_spectrahedron(prob, blocks, (0.0, 0.0))
            ref = bisection_face_projection(rs.full_from_blocks(blocks))
            assert np.max(np.abs(rs.full_from_blocks(out) - ref)) < 1e-10


def bisection_score_projection(prob, blocks):
    """Projection onto {rho >= 0, tr = 1, score = p} by nested bisection:
    on the score multiplier b outside, on the trace shift a inside."""
    sym = [(m + m.T) / 2.0 for m in blocks]

    def at(b):
        eigs = [np.linalg.eigh(m - b * q) for m, q in zip(sym, prob._score[0])]
        w = np.concatenate([w for w, _ in eigs])
        lo, hi = w.min() - 1.0, w.max()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.clip(w - mid, 0.0, None).sum() > 1.0:
                lo = mid
            else:
                hi = mid
        x = [(v * np.clip(wb - 0.5 * (lo + hi), 0.0, None)) @ v.T for wb, v in eigs]
        return x, sum(np.vdot(q, xb) for q, xb in zip(prob._score[0], x)) - prob.p_target

    lo, hi = -1.0, 1.0
    while at(lo)[1] < 0.0:
        lo *= 2.0
    while at(hi)[1] > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if at(mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return at(0.5 * (lo + hi))[0]


class TestScoreProjection:
    @pytest.mark.parametrize("prob", [p for p in sector_problems() if p._score is not None])
    @pytest.mark.parametrize("scale", [0.01, 0.3, 3.0])
    def test_is_the_projection(self, prob, scale):
        rs = prob._rho_space
        blocks = [scale * b for b in random_blocks(rs)]
        out, _ = _project_spectrahedron(prob, blocks, (0.0, -1.0))
        # feasible: PSD, unit trace, the target score
        assert min(np.linalg.eigvalsh(x)[0] for x in out) > -1e-12
        assert abs(sum(np.trace(x) for x in out) - 1.0) < 1e-12
        assert abs(sum(np.vdot(q, x) for q, x in zip(prob._score[0], out))
                   - prob.p_target) < 1e-12
        # the nearest feasible point: <S - X, Y - X> <= 0 for every feasible Y
        bound = 1e-9 * (1.0 + max(np.abs(m).max() for m in blocks))
        for _ in range(20):
            y = _project_feasible(prob, [m @ m.T for m in random_blocks(rs)])
            assert sum(np.vdot(s - x, yb - x) for s, x, yb in zip(blocks, out, y)) <= bound
        ref = bisection_score_projection(prob, blocks)
        assert max(np.abs(x - r).max() for x, r in zip(out, ref)) < 1e-8
        # from far-off warm pairs the same point, within the same score
        for warm in [(50.0, -1e-6), (-50.0, -1e3), (1e4, -1.0), (0.0, -1e-12), (-1e6, -1e6)]:
            far, _ = _project_spectrahedron(prob, blocks, warm)
            assert abs(sum(np.vdot(q, x) for q, x in zip(prob._score[0], far))
                       - prob.p_target) < 1e-12
            assert max(np.abs(x - r).max() for x, r in zip(far, ref)) < 1e-8

    def test_score_just_below_the_top_of_its_range(self):
        # p is 3.3e-9 below the top eigenvalue of Q, so the root b lies near
        # -3e4 and r is flat there: a secant step from a slope at rounding
        # level must not leap to b near -1e12, where the spectra of S - bQ
        # keep no digit of S
        prob = build_problem(3, 0.3, 0.6628675007102899, 3)
        gen = np.random.default_rng(1)
        for _ in range(20):
            blocks = [0.3 * (m + m.T) for m in
                      (gen.normal(size=(len(g), len(g))) for g in prob._rho_space.groups)]
            out, (b, _) = _project_spectrahedron(prob, blocks, (0.0, -1.0))
            assert abs(sum(np.vdot(q, x) for q, x in zip(prob._score[0], out))
                       - prob.p_target) < 1e-9
            assert abs(b) < 1e6


def golden_dual_bound(prob, lam_blocks):
    """The dual bound by an 80-step golden-section search over the score
    multiplier; returns the value and the multiplier (None when the score is
    inactive)."""
    h = prob.phi_adjoint([_clip_eig(b, 0.0, 1.0) for b in lam_blocks])
    if prob._score is None:
        return min(float(np.linalg.eigvalsh(hb)[0]) for hb in h), None

    def g(mu):
        return min(float(np.linalg.eigvalsh(hb - mu * qb)[0])
                   for hb, qb in zip(h, prob._score[0])) + mu * prob.p_target

    lo, hi = -1.0, 1.0
    while g(lo + 1e-6 * (hi - lo)) < g(lo) and abs(lo) < 1e8:
        lo *= 2.0
    while g(hi - 1e-6 * (hi - lo)) < g(hi) and abs(hi) < 1e8:
        hi *= 2.0
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    g1, g2 = g(x1), g(x2)
    for _ in range(80):
        if not x1 < x2:
            break
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + shrink * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - shrink * (hi - lo)
            g1 = g(x1)
    return (g1, x1) if g1 >= g2 else (g2, x2)


def random_lambda(space):
    """Symmetric blocks with spectra drawn from [0, 1]."""
    out = []
    for g in space.groups:
        v, _ = np.linalg.qr(rng.normal(size=(len(g), len(g))))
        out.append((v * rng.uniform(0.0, 1.0, len(g))) @ v.T)
    return out


def bare_problem(p, q_blocks):
    """A stand-in problem whose Phi* is the identity on its blocks; its
    score row has no edge states, which ``_dual_bound`` does not read."""
    return SimpleNamespace(phi_adjoint=list, _score=(q_blocks, None), p_target=p)


def every_block_dual_bound(prob, lam_blocks):
    """``_dual_bound`` with a g that evaluates every block at every mu: the
    same bracketed cutting-plane search, without the skip."""
    h = prob.phi_adjoint([_clip_eig(b, 0.0, 1.0) for b in lam_blocks])
    if prob._score is None:
        return min(float(np.linalg.eigvalsh(hb)[0]) for hb in h)
    p = prob.p_target

    def g(mu):
        low = None
        for hb, qb in zip(h, prob._score[0]):
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


def count_eigh(monkeypatch):
    """Count the calls into ``np.linalg.eigh``."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    return calls


class TestDualBound:
    @pytest.mark.parametrize("prob", list(sector_problems()))
    def test_skipped_blocks_change_no_bit(self, prob):
        # a block is skipped only when it cannot replace the running
        # minimum, so every g value, the search and the bound are those of
        # evaluating every block (the problems without a score row have no
        # search)
        for _ in range(5):
            lam = random_lambda(prob._big_space)
            assert _dual_bound(prob, lam) == every_block_dual_bound(prob, lam)

    def test_skipped_blocks_at_a_kink(self):
        # two blocks whose bottom eigenvalues cross where g peaks: the
        # search ends between blocks of nearly equal value
        prob = bare_problem(0.5, [np.array([[0.3, 0.05], [0.05, 0.6]]),
                                  np.array([[0.7, 0.02], [0.02, 0.8]])])
        lam = [np.diag([0.2, 0.8]), np.diag([0.9, 0.95])]
        assert _dual_bound(prob, lam) == every_block_dual_bound(prob, lam)

    def test_blocks_are_skipped(self, monkeypatch):
        # the skip rests on 0 <= Q <= 1, the Lipschitz constant of each
        # block's bottom eigenvalue in mu, and it saves eigensolves
        for n in (3, 8):
            w, _ = q_spectrum(n)
            assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
        prob = build_problem(3, np.pi / 4, 0.6, 3)
        lam = random_lambda(prob._big_space)
        calls = count_eigh(monkeypatch)
        every_block_dual_bound(prob, lam)
        every = len(calls)
        calls.clear()
        _dual_bound(prob, lam)
        assert len(calls) < every

    @pytest.mark.parametrize("prob", list(sector_problems()))
    def test_matches_golden_section(self, prob):
        rs = prob._rho_space
        rho = _project_feasible(prob, [b @ b.T for b in random_blocks(rs)])
        z = _primal_value(prob, rho)
        for _ in range(5):
            lam = random_lambda(prob._big_space)
            value = _dual_bound(prob, lam)
            ref, _ = golden_dual_bound(prob, lam)
            assert abs(value - ref) < 1e-12
            # weak duality against an exactly feasible state
            assert value <= z

    def test_maximizer_at_a_kink(self):
        # block 1 climbs and block 2 descends where their bottom eigenvalues
        # cross, so g peaks at the crossing
        prob = bare_problem(0.5, [np.array([[0.3, 0.05], [0.05, 0.6]]),
                                  np.array([[0.7, 0.02], [0.02, 0.8]])])
        lam = [np.diag([0.2, 0.8]), np.diag([0.9, 0.95])]
        ref, mu = golden_dual_bound(prob, lam)
        low = [np.linalg.eigh(h - mu * q) for h, q in zip(lam, prob._score[0])]
        assert abs(low[0][0][0] - low[1][0][0]) < 1e-9
        slopes = [0.5 - v[:, 0] @ q @ v[:, 0] for (_, v), q in zip(low, prob._score[0])]
        assert slopes[0] > 0.1 and slopes[1] < -0.1
        assert abs(_dual_bound(prob, lam) - ref) < 1e-12

    @pytest.mark.parametrize("h", [[0.0, 1.0], [1.0, 0.0]])
    def test_bracket_expansion(self, h):
        prob = bare_problem(0.5, [np.array([[0.45, 0.01], [0.01, 0.55]])])
        lam = [np.diag(h)]
        ref, mu = golden_dual_bound(prob, lam)
        assert abs(mu) > 4.0
        assert abs(_dual_bound(prob, lam) - ref) < 1e-12


def kron_symkron(a, b):
    """_symkron gathered from the two full Kronecker products."""
    d = len(a)
    rows, cols, scale = _svec_data(d)
    kab, kba = np.kron(a, b), np.kron(b, a)
    pair, swap = rows * d + cols, cols * d + rows
    sub = (0.5 * (kab[np.ix_(pair, pair)] + kba[np.ix_(pair, pair)])
           + 0.5 * (kab[np.ix_(pair, swap)] + kba[np.ix_(pair, swap)]))
    sub *= 0.5 * np.outer(scale, scale)
    return sub


class TestSymkron:
    def test_matches_kronecker_reference(self):
        for d in range(1, 21):
            a, b, m = (x + x.T for x in rng.normal(size=(3, d, d)))
            out = _symkron(a, b, _svec_data(d))
            assert np.array_equal(out, kron_symkron(a, b))
            rows, cols, scale = _svec_data(d)
            want = ((a @ m @ b + b @ m @ a) / 2.0)[rows, cols] * scale
            assert np.max(np.abs(out @ (m[rows, cols] * scale) - want)) < 1e-12


def max_step_reference(block, direction):
    """sup alpha with block + alpha * direction PSD, one pair at a time, from
    the inverse Cholesky factor L^-1 that the interior point shares between
    S^-1 and its step lengths."""
    l = np.linalg.cholesky(block)
    linv = dtrtrs(l, np.eye(len(l)), lower=1)[0]
    t = linv @ direction @ linv.T
    wmin = np.linalg.eigvalsh((t + t.T) / 2.0)[0]
    return np.inf if wmin >= 0.0 else -1.0 / wmin


def spd_blocks(sizes, floor=0.1):
    out = []
    for d in sizes:
        g = rng.normal(size=(d, d))
        out.append(g @ g.T + floor * np.eye(d))
    return out


class TestMaxSteps:
    def test_batched_equals_one_block_at_a_time(self):
        # pairs of mixed sizes, stacked by size: each step is the one its
        # pair gives alone, bit for bit, and leaves its block singular
        sizes = (3, 5, 3, 2, 5, 3)
        blocks = spd_blocks(sizes)
        dirs = [h + h.T for h in (rng.normal(size=(d, d)) for d in sizes)]
        dirs[1] = np.eye(5)  # a PSD direction never leaves the cone
        factors, _ = _cone_factors(blocks[:3], blocks[3:])
        steps = _max_steps(factors, dirs)
        assert steps[1] == np.inf
        for b, d, step in zip(blocks, dirs, steps):
            assert max_step_reference(b, d) == step
            if np.isfinite(step):
                w = np.linalg.eigvalsh(b + step * d)
                assert abs(w[0]) < 1e-9 * w[-1]

    def test_singular_block_takes_the_jitter(self):
        # a block on the boundary of the cone fails its Cholesky, and only
        # its part of the stack (X here) is factored again with 1e-12 on the
        # diagonal; the S block of the same size keeps its exact factor
        factors, _ = _cone_factors([np.diag([1.0, 0.0])], [np.diag([2.0, 1.0])])
        steps = _max_steps(factors, [-np.eye(2), -np.eye(2)])
        assert steps[0] == pytest.approx(1e-12, rel=1e-6)
        assert steps[1] == 1.0

    def test_indefinite_block_raises(self):
        # the jitter does not rescue a block outside the cone: the interior
        # point stops on NumericalFailure, not on numpy's LinAlgError
        with pytest.raises(NumericalFailure, match="not positive definite"):
            _cone_factors([np.eye(2)], [np.diag([1.0, -1e-6])])

    def test_inverse_from_the_factor(self):
        # S^-1 = L^-T L^-1 from the shared factor, symmetrized, agrees with
        # np.linalg.inv; the blocks are stacked by size and returned in order
        sizes = (4, 17, 6, 4, 16, 17, 1)
        blocks = spd_blocks(sizes, floor=1e-2)
        _, s_inv = _cone_factors(blocks[:2], blocks[2:])
        for b, inv in zip(blocks[2:], s_inv):
            ref = np.linalg.inv(b)
            assert np.array_equal(inv, inv.T)
            assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_x_block_leaves_s_inverse_exact(self):
        # a rank-deficient X block fails the Cholesky of its size's stack;
        # the S block of that size is factored apart, without the jitter,
        # and its inverse still agrees with np.linalg.inv
        v = rng.normal(size=(6, 3))
        s_block, = spd_blocks([6], floor=1e-2)
        _, (inv,) = _cone_factors([v @ v.T], [s_block])
        ref = np.linalg.inv(s_block)
        assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_s_block_leaves_x_factor_exact(self):
        # the mirror: an S block that takes the jitter is factored in its own
        # stack, so the X block of its size keeps its exact factor and its
        # step is the one it gives alone, bit for bit
        x_block, = spd_blocks([6])
        s_block = np.diag([3.0, 2.0, 1.0, 1.0, 0.5, -1e-14])
        direction = -np.eye(6)
        factors, _ = _cone_factors([x_block], [s_block])
        exact = dtrtrs(np.linalg.cholesky(x_block), np.eye(6), lower=1)[0]
        (x_idx, x_linv), = [(idx, linv) for idx, linv in factors if 0 in idx]
        assert list(x_idx) == [0] and np.array_equal(x_linv[0], exact)
        steps = _max_steps(factors, [direction, direction])
        assert steps[0] == max_step_reference(x_block, direction)

    def test_jittered_s_block_is_inverted_exactly(self):
        # an S block that needs the jitter has an eigenvalue (here -1e-14)
        # far below it, so its inverse is np.linalg.inv of the block itself;
        # an exactly singular one stops the interior point
        s_block = np.diag([1.0, -1e-14])
        _, (inv,) = _cone_factors([np.eye(2)], [s_block])
        ref = np.linalg.inv(s_block)
        assert np.array_equal(inv, (ref + ref.T) / 2.0)
        with pytest.raises(NumericalFailure, match="singular"):
            _cone_factors([np.eye(2)], [np.diag([1.0, 0.0])])


def capture_newton_systems(monkeypatch, prob, **kwargs):
    """Solve ``prob`` and return the solution and every Newton system the
    interior point built, as (t_rows, g_rows, k_rho, d_blocks, right-hand
    sides), read by a spy on ``_SectorSchur``."""
    systems = []

    class Spy(oscwit.sdp._SectorSchur):
        def __init__(self, t_rows, g_rows, k_rho, d_blocks):
            super().__init__(t_rows, g_rows, k_rho, d_blocks)
            self.system = (t_rows, g_rows, k_rho, d_blocks, [])
            systems.append(self.system)

        def solve(self, rhs):
            self.system[4].append(rhs)
            return super().solve(rhs)

    monkeypatch.setattr(oscwit.sdp, "_SectorSchur", Spy)
    return solve(prob, **kwargs), systems


def dense_schur(t_rows, g_rows, k_rho, d_blocks):
    """The m x m Schur matrix as the interior point formed it before its
    sector solve: A_rho K A_rho^T, plus each varrho_± pair block on the
    match rows of its big sector."""
    a_rho = np.vstack([t_rows, g_rows])
    m = a_rho @ block_diag(*k_rho) @ a_rho.T
    start = len(t_rows)
    for d in d_blocks:
        m[start:start + len(d), start:start + len(d)] += d
        start += len(d)
    return m


def sector_residuals(system):
    """The largest relative residual ||M y - r|| / ||r|| and the largest
    normwise backward error ||M y - r|| / (||M|| ||y|| + ||r||) of the
    sector solves of a captured system's right-hand sides against its
    dense Schur matrix M."""
    t_rows, g_rows, k_rho, d_blocks, rhs = system
    m = dense_schur(t_rows, g_rows, k_rho, d_blocks)
    sector = _SectorSchur(t_rows, g_rows, k_rho, d_blocks)
    assert rhs
    relative, backward = [], []
    for r in rhs:
        y = sector.solve(r)
        resid = np.linalg.norm(m @ y - r)
        relative.append(resid / np.linalg.norm(r))
        backward.append(resid / (np.linalg.norm(m, 2) * np.linalg.norm(y) + np.linalg.norm(r)))
    return max(relative), max(backward)


class TestSectorSchur:
    """The sector solve of the interior point's Newton system against the
    dense Schur matrix it replaces."""

    @pytest.mark.parametrize("theta, m", [(3 * np.pi / 16, 427), (np.pi / 4, 231)])
    def test_matches_the_dense_schur_matrix(self, theta, m, monkeypatch):
        # the first, a middle and the last iteration of an engine cell of
        # the bundled grid, off pi/4 and at it
        sol, systems = capture_newton_systems(
            monkeypatch, build_problem(3, theta, 0.65, 3), tol=1e-6)
        assert sol.status == "optimal"
        assert len(systems) >= 10
        for system in (systems[0], systems[len(systems) // 2], systems[-1]):
            assert len(system[0]) + len(system[1]) == m
            relative, _ = sector_residuals(system)
            assert relative <= 1e-10

    def test_pair_block_that_takes_the_jitter(self, monkeypatch):
        # 3e-8 of the score range inside the top face at pi/4 a varrho_±
        # pair block loses its Cholesky factor and takes the ladder's
        # jitter, with one BLAS thread and with two (1e-5 inside a face none
        # does).  There M reaches a norm of 5e9 and a condition number past
        # 1e17, and the dense Cholesky itself left residuals of 1e-9 to 1e-7
        # of the right-hand side 1e-7 inside the bottom face, so the solve
        # is held to the dense factor's standard: a backward error at
        # rounding level against the unshifted blocks
        sol, systems = capture_newton_systems(
            monkeypatch, build_problem(3, np.pi / 4, 0.6628674941955897, 3), tol=1e-6)
        assert sol.status == "optimal"

        def takes_jitter(system):
            for d in system[3]:
                try:
                    np.linalg.cholesky(d)
                except np.linalg.LinAlgError:
                    return True
            return False

        jittered = [system for system in systems if takes_jitter(system)]
        assert jittered
        _, backward = sector_residuals(jittered[0])
        assert backward <= 1e-14

    @pytest.mark.parametrize("size", [1, 2, 5, 15, 36, 60])
    def test_factors_and_solves_are_the_scipy_reference(self, size):
        # LAPACK dtrtrs, the one triangular solve, returns the bits that
        # scipy.linalg.solve_triangular gives on matrices and BLAS dtrsv on
        # vectors: the factors and solves of a reference built with them
        d_blocks = spd_blocks((size, 1, size // 2 + 1))
        k_rho = spd_blocks((size, 3))
        n, m_g = sum(len(b) for b in k_rho), sum(len(b) for b in d_blocks)
        t_rows, g_rows = rng.normal(size=(2, n)), rng.normal(size=(m_g, n))
        sector = _SectorSchur(t_rows, g_rows, k_rho, d_blocks)

        l_d = [oscwit.sdp._cho_ladder(b) for b in d_blocks]
        f = block_diag(*[v * np.sqrt(np.maximum(w, 0.0))
                         for w, v in map(np.linalg.eigh, k_rho)])
        v = np.concatenate([solve_triangular(l, gb, lower=True, check_finite=False)
                            for l, gb in zip(l_d, np.split(g_rows @ f, sector.cuts))])
        l_c = oscwit.sdp._cho_ladder(np.eye(n) + v.T @ v)
        y = solve_triangular(l_c, v.T, lower=True, check_finite=False).T
        e = solve_triangular(l_c, (t_rows @ f).T, lower=True, check_finite=False)
        assert all(np.array_equal(a, b) for a, b in zip(sector.l_d, l_d))
        assert np.array_equal(sector.y, y) and np.array_equal(sector.e, e)
        assert np.array_equal(sector.s2, oscwit.sdp._cho_ladder(e.T @ e))

        def l_solve(x, trans=0):
            return np.concatenate([dtrsv(l, xb, lower=1, trans=trans)
                                   for l, xb in zip(l_d, np.split(x, sector.cuts))])

        rhs = rng.normal(size=2 + m_g)
        for trans in (0, 1):
            assert np.array_equal(sector._l_solve(rhs[2:], trans), l_solve(rhs[2:], trans))
        x = sector.solve(rhs)
        sector._l_solve = l_solve
        assert np.array_equal(x, sector.solve(rhs))

    def test_non_finite_blocks_or_solve_raise(self, monkeypatch):
        _, systems = capture_newton_systems(
            monkeypatch, build_problem(3, np.pi / 4, 0.65, 3), tol=1e-6, max_iters=2)
        t_rows, g_rows, k_rho, d_blocks, _ = systems[0]
        k_nan = [k.copy() for k in k_rho]
        k_nan[1][0, 0] = np.nan
        with pytest.raises(NumericalFailure, match="not finite"):
            _SectorSchur(t_rows, g_rows, k_nan, d_blocks)
        d_inf = [d.copy() for d in d_blocks]
        d_inf[0][0, 0] = np.inf
        with pytest.raises(NumericalFailure, match="not finite"):
            _SectorSchur(t_rows, g_rows, k_rho, d_inf)
        rhs = np.full(len(t_rows) + len(g_rows), np.nan)
        with pytest.raises(NumericalFailure, match="not finite"):
            _SectorSchur(t_rows, g_rows, k_rho, d_blocks).solve(rhs)


def traced_peak_mib(run):
    """The tracemalloc peak of ``run()``, in MiB; numpy reports its array
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def assert_same_fields(a, b):
    """Equal field by field: arrays by dtype and value, containers and
    dataclasses (SdpProblem, _BlockSpace) recursively."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype
        assert np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_fields(x, y)
    elif isinstance(a, dict):
        assert type(a) is type(b) and a.keys() == b.keys()
        for k in a:
            assert_same_fields(a[k], b[k])
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


def arrays_in(obj):
    """Every array reachable from ``obj`` through containers and
    dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from arrays_in(x)
    elif isinstance(obj, dict):
        yield from arrays_in(list(obj.values()))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, f.name))


def row_cases():
    # score inactive (n = 2), a regular cell off and at pi/4, and both faces
    w, _ = q_spectrum(3)
    return [(2, 0.3, 0.5), (3, 0.3, 0.6), (3, np.pi / 4, 0.6),
            (3, np.pi / 4, w[-1]), (3, 0.3, w[0]), (3, -np.pi / 4, 0.6)]


class TestRowCache:
    @pytest.mark.parametrize("n, theta, p", row_cases())
    def test_cached_row_equals_a_fresh_build(self, n, theta, p):
        # the cells built from one row, another cell of it first, equal
        # stand-alone builds field by field
        row = _row_data(3, theta, n, True)
        cells = [_cell_problem(row, score) for score in (0.5, p)]
        for cell, score in zip(cells, (0.5, p)):
            assert_same_fields(cell, build_problem(3, theta, score, n))
        # the arrays that every cell of the row shares are read-only; a face
        # cell has its own rho space and Phi rows
        shared = [row]
        if cells[-1]._face_basis is None:
            shared.append(cells[-1])
        for a in arrays_in(shared):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = a.flat[0]

    @pytest.mark.parametrize("p, n, message", [
        (1.5, 3, "p_target must lie"), (0.5, -1, "n_max must be"),
        (1.5, -1, "p_target must lie")])
    def test_arguments_checked_before_the_row(self, p, n, message, monkeypatch):
        built = []
        monkeypatch.setattr(oscwit.sdp, "_row_data", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=message):
            build_problem(3, 0.3, p, n)
        with pytest.raises(ValueError, match=message):
            sweep([0.3], [0.5, p], 3, n)
        assert built == []

    @staticmethod
    def spy_rotations(monkeypatch):
        calls = []
        rotation = oscwit.sdp.mode_rotation_unitary

        def spy(theta, n_max):
            calls.append((theta, n_max))
            return rotation(theta, n_max)

        monkeypatch.setattr(oscwit.sdp, "mode_rotation_unitary", spy)
        return calls

    def test_sweep_builds_each_row_once(self, monkeypatch):
        # one rotation per row, for its problems and its product anchors,
        # however many cells the row has, the infeasible ones above the top
        # of the score range (0.66287 at n = 3) included
        calls = self.spy_rotations(monkeypatch)
        cells = sweep([0.3, np.pi / 4], [0.5, 0.55, 0.6, 0.62, 0.7, 0.8], 3, 3, tol=1e-6)
        assert all(sol.solved == (p < 0.66) for _, p, sol in cells)
        assert all(sol.status == "infeasible" for _, p, sol in cells if p > 0.66)
        assert sorted(calls) == sorted([(0.3, 6), (np.pi / 4, 6)])

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4])
    def test_face_takes_no_rotation(self, theta, monkeypatch):
        # a face problem reads its Phi rows from the row's
        calls = self.spy_rotations(monkeypatch)
        row = _row_data(3, theta, 3, True)
        w, _ = q_spectrum(3)
        faces = [_cell_problem(row, w[end]) for end in (0, -1)]
        assert all(f._face_basis is not None and f._phi[3] is row["phi"][3]
                   for f in faces)
        assert calls == [(theta, 6)]


class TestMemory:
    def test_interior_point_iteration(self):
        # the largest interior-point cell the auto rule picks (m = 2481 at
        # n = 6, pi/4): _symkron gathers through the svec indices alone,
        # with no index tables of the svec size squared (285 MiB with them)
        prob = build_problem(3, np.pi / 4, 0.68, 6)
        assert traced_peak_mib(lambda: solve(
            prob, tol=1e-4, engine="interior-point", max_iters=1)) < 220

    def test_largest_ladder_build(self):
        # the n = 11 build sets the ladder's peak RSS: Phi's slot positions
        # are held once, with no dense table of the big space
        assert traced_peak_mib(lambda: build_problem(3, np.pi / 4, 0.68, 11)) <= 10


class TestSolve:
    def test_theta_zero_never_certifies(self):
        for p in (0.55, 0.6, 0.66):
            sol = solve(build_problem(3, 0.0, p, 3), tol=1e-7)
            assert sol.s_n <= sol.dual_gap + 1e-12
            assert not sol.certified

    def test_half_target_separable(self):
        sol = solve(build_problem(3, np.pi / 4, 0.5, 3), tol=1e-7)
        assert sol.s_n <= sol.dual_gap + 1e-12
        assert not sol.certified

    def test_certified_positive_at_high_score(self):
        # frozen by solver cross-checks at n = 2..4; see the n=4 value below
        sol = solve(build_problem(3, np.pi / 4, 0.66, 3), tol=1e-7)
        assert sol.certified
        assert sol.s_n - sol.dual_gap > 0.6
        assert sol.s_n == pytest.approx(0.661655, abs=5e-4)

    def test_value_shrinks_with_truncation_headroom(self):
        # same score target, one more level per mode: minimum entanglement
        # can only drop
        s3 = solve(build_problem(3, np.pi / 4, 0.65, 3), tol=1e-6)
        s4 = solve(build_problem(3, np.pi / 4, 0.65, 4), tol=1e-6)
        assert s4.s_n <= s3.s_n + s3.dual_gap + s4.dual_gap + 1e-6
        assert s4.certified

    def test_weak_duality_along_iterates(self):
        sol = solve(build_problem(3, np.pi / 4, 0.62, 3), tol=1e-7)
        assert sol.history
        for z_up, z_lb in sol.history:
            assert z_up >= z_lb - 1e-12

    @settings(max_examples=15, derandomize=True, deadline=None, database=None)
    @given(theta=st.floats(0.0, math.pi / 4), frac=st.floats(0.0, 1.0))
    def test_weak_duality_at_random_cells(self, theta, frac):
        # any score the n = 3 truncation attains, its faces included; the
        # budget caps the slow solves just inside a face
        w = np.linalg.eigvalsh(qk_matrix(3, 3).matrix.real)
        sol = solve(build_problem(3, theta, w[0] + frac * (w[-1] - w[0]), 3), tol=1e-6,
                    max_iters=60)
        assert sol.history
        for z_up, z_lb in sol.history:
            assert z_up >= z_lb - 1e-12

    def test_polish_warm_starts_from_interior_point(self, monkeypatch):
        # a tolerance the interior point cannot meet (it stops near 4e-12)
        # hands the rest of the budget to the splitting engine on the same
        # certificates; started cold, about 100 splitting iterations would
        # not improve on the interior-point state.  Warm, the polish can
        # close 1e-14 within the budget, so the tolerance is 1e-16
        entered = []
        splitting = oscwit.sdp._solve_pdhg

        def spy(prob, certs, max_iters):
            entered.append(certs.z_up)
            return splitting(prob, certs, max_iters)

        monkeypatch.setattr(oscwit.sdp, "_solve_pdhg", spy)
        sol = solve(build_problem(3, np.pi / 4, 0.64, 3), tol=1e-16, max_iters=200)
        assert sol.iterations == 200
        assert sol.status == "max-iter"
        assert sol.z >= sol.z_lb
        [z_interior_point] = entered
        assert sol.z < z_interior_point

    def test_polish_keeps_unit_steps(self):
        # the polish starts from the interior point's best pair, not a
        # diameter away, so it keeps equal primal and dual steps: with the
        # cold start's weighted steps this cell ends max-iter after 400
        # iterations, where it ends optimal after 2050
        sol = solve(build_problem(3, np.pi / 8, 0.65, 3), tol=1e-13)
        assert sol.status == "optimal"

    def test_interior_point_converges_on_its_own(self):
        # the interior point closes the gap without the splitting polish; a
        # budget it needs under half of leaves the polish too little to hide
        # a slow run
        sol = solve(build_problem(3, np.pi / 4, 0.62, 3), tol=1e-7,
                    engine="interior-point", max_iters=30)
        assert sol.status == "optimal"
        assert sol.iterations < 30

    def test_symmetry_reduction_matches_full(self):
        for (theta, p, n) in [(np.pi / 4, 0.64, 3), (0.45, 0.58, 3)]:
            red = solve(build_problem(3, theta, p, n, symmetry_reduction=True),
                        tol=1e-6)
            full = solve(build_problem(3, theta, p, n, symmetry_reduction=False),
                         tol=1e-6)
            tol = red.dual_gap + full.dual_gap + 1e-9
            assert abs(red.s_n - full.s_n) <= max(tol, 1e-6)

    def test_folded_angle_agrees(self):
        theta = 1.0  # beyond pi/4; folds to pi/2 - 1
        folded = fold_theta(theta)
        assert folded == pytest.approx(math.pi / 2 - 1.0)
        a = solve(build_problem(3, theta, 0.64, 3), tol=1e-7)
        b = solve(build_problem(3, folded, 0.64, 3), tol=1e-7)
        assert a.s_n == pytest.approx(b.s_n, abs=a.dual_gap + b.dual_gap + 1e-6)

    def test_max_iter_reports_honest_gap(self):
        sol = solve(build_problem(3, np.pi / 4, 0.64, 3), tol=1e-12, max_iters=4)
        assert sol.status == "max-iter"
        # the budget caps the interior-point run and its splitting polish
        assert sol.iterations <= 4
        assert sol.z >= sol.z_lb - 1e-12
        assert sol.dual_gap > 0

    @pytest.mark.parametrize("engine", ["first-order", "interior-point"])
    def test_budget_of_zero_reports_the_start(self, engine):
        prob = build_problem(3, np.pi / 4, 0.6, 3)
        sol = solve(prob, engine=engine, max_iters=0)
        assert sol.iterations == 0
        assert sol.status == "max-iter"
        # one harvest, of the engine's starting point, whose bounds are
        # honest: weak duality against a converged solve's bounds
        assert len(sol.history) == 1
        ref = solve(prob, tol=1e-7)
        assert 1.0 <= sol.z_lb <= ref.z + 1e-12
        assert ref.z_lb <= sol.z + 1e-12 and math.isfinite(sol.z)

    @pytest.mark.parametrize("engine", ["first-order", "interior-point"])
    def test_budget_of_zero_reports_a_start_that_closes_the_gap(self, engine):
        # at theta = 0 and p = 1/2 both engines start from a state whose
        # bounds meet, so the status is the keeper's, not the budget's
        sol = solve(build_problem(3, 0.0, 0.5, 3), engine=engine, max_iters=0)
        assert sol.iterations == 0
        assert sol.status == "optimal"
        assert sol.dual_gap == 0.0

    @pytest.mark.parametrize("engine", ["auto", "first-order", "interior-point"])
    def test_negative_budget_rejected(self, engine):
        with pytest.raises(ValueError, match="max_iters"):
            solve(build_problem(3, np.pi / 4, 0.6, 3), engine=engine, max_iters=-1)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        # no gap meets such a tolerance, so a solve would spend its whole
        # budget
        with pytest.raises(ValueError, match="tol"):
            solve(build_problem(3, 0.3, 0.6, 3), tol=tol, max_iters=300)

    def test_interior_point_offers_each_iterate_once(self):
        # the iterate that closes the gap is offered at the top of its
        # iteration, and not again after the loop
        sol = solve(build_problem(3, np.pi / 4, 0.65, 3), engine="interior-point")
        assert sol.status == "optimal"
        assert len(sol.history) == sol.iterations

    def test_last_budgeted_step_can_close_the_gap(self):
        # a budget one short of the converged run's: the point the 11th step
        # leaves meets the tolerance, so the run is optimal
        sol = solve(build_problem(3, np.pi / 4, 0.65, 3), engine="interior-point",
                    max_iters=11)
        assert sol.status == "optimal"
        assert sol.iterations == 11
        assert len(sol.history) == 12
        assert sol.z - sol.z_lb <= 1e-7 * (1.0 + sol.z)

    def test_blocked_step_hands_off_to_the_polish(self, monkeypatch):
        # 1e-8 of the score range inside its bottom face strict
        # complementarity nearly fails, and where the cone first blocks a
        # step depends on rounding (the BLAS thread count moves it), so the
        # step lengths of the 15th iteration are forced to 1e-6: the interior
        # point stops at that blocked step, and the splitting polish spends
        # the rest of the budget
        ran, step_calls = [], []
        interior_point = oscwit.sdp._solve_ipm
        max_steps = oscwit.sdp._max_steps

        def spy(prob, certs, max_iters):
            iters = interior_point(prob, certs, max_iters)
            ran.append(iters)
            return iters

        def blocked_from_15th(factors, dirs):
            # two step-length passes per iteration, predictor and corrector,
            # on the iteration's one set of factors
            step_calls.append(len(dirs))
            if len(step_calls) > 2 * 14:
                return np.full(len(dirs), 1e-6)
            return max_steps(factors, dirs)

        monkeypatch.setattr(oscwit.sdp, "_solve_ipm", spy)
        monkeypatch.setattr(oscwit.sdp, "_max_steps", blocked_from_15th)
        sol = solve(build_problem(3, 0.447, 0.33713249928971006, 3), tol=1e-6,
                    max_iters=250)
        [iters] = ran
        assert iters == 15
        assert len(step_calls) == 2 * 15
        assert iters < 50
        assert iters < sol.iterations <= 250
        assert sol.z >= sol.z_lb
        assert sol.z - sol.z_lb < 1e-3

    def test_stalled_interior_point_hands_off_to_the_polish(self, monkeypatch):
        # 1e-6 of the score range inside the bottom face at pi/4 the
        # interior point closes the gap in 17 iterations (see the next
        # test), so the stall is forced: from its 12th offer on, the keeper
        # is offered its own best state and Lambda again, which cannot
        # shrink the gap.  The keeper's stall test stops the interior point
        # well inside its 200-iteration budget, and the polish closes the
        # gap
        ran, offers = [], []
        interior_point = oscwit.sdp._solve_ipm
        offer = _Certificates.offer

        def spy(prob, certs, max_iters):
            iters = interior_point(prob, certs, max_iters)
            ran.append((iters, certs.stalled, certs.converged))
            return iters

        def repeat_the_best(certs, rho_blocks, lam_blocks=None):
            offers.append(len(ran))
            if not ran and len(offers) >= 12:
                rho_blocks, lam_blocks = certs.rho, certs.lam
            return offer(certs, rho_blocks, lam_blocks)

        monkeypatch.setattr(oscwit.sdp, "_solve_ipm", spy)
        monkeypatch.setattr(_Certificates, "offer", repeat_the_best)
        sol = solve(build_problem(3, np.pi / 4, 0.3371328217673679, 3), tol=1e-6)
        [(iters, stalled, converged)] = ran
        assert iters < 100
        assert stalled == 12 and not converged
        assert sol.status == "optimal"
        assert sol.iterations < 200

    def test_interior_point_closes_the_gap_1e6_inside_a_face(self, monkeypatch):
        # the cell above: with the Newton system solved sector by sector the
        # interior point closes the gap on its own (the dense Schur solve
        # crept for 41 iterations, stalled, and the polish ended it at 66)
        def polish(prob, certs, max_iters):
            raise AssertionError("the splitting polish ran")

        monkeypatch.setattr(oscwit.sdp, "_solve_pdhg", polish)
        sol = solve(build_problem(3, np.pi / 4, 0.3371328217673679, 3), tol=1e-6)
        assert sol.status == "optimal"
        assert sol.iterations <= 25

    def test_near_face_cell_needs_no_polish(self, monkeypatch):
        # 1e-5 of the score range inside its bottom face, a Newton
        # right-hand side that does not match the Schur matrix makes the
        # primal residual grow until the step blocks
        def polish(prob, certs, max_iters):
            raise AssertionError("the splitting polish ran")

        monkeypatch.setattr(oscwit.sdp, "_solve_pdhg", polish)
        sol = solve(build_problem(3, 0.447, 0.33713575338243934, 3), tol=1e-6)
        assert sol.status == "optimal"
        assert sol.iterations <= 20

    def test_flat_face_cell_at_a_tight_tolerance(self):
        # a z = 1 cell that no product anchor brackets: proving z - 1 < 1e-7
        # takes 15 iterations with a consistent Newton system (74 without)
        sol = solve(build_problem(3, 0.3, 0.55, 3), tol=1e-7)
        assert sol.status == "optimal"
        assert sol.iterations <= 20
        assert sol.z - sol.z_lb <= 1e-7 * (1.0 + sol.z)

    def test_start_that_falls_short_changes_nothing(self):
        # at p = 0.62 every state has z > 1, so no start closes the gap
        cold = solve(build_problem(3, np.pi / 4, 0.62, 3), tol=1e-6)
        warm = solve(build_problem(3, np.pi / 4, 0.62, 3), tol=1e-6,
                     start=cold.rho.matrix.real)
        assert (warm.z, warm.z_lb, warm.iterations, warm.status, warm.history) == (
            cold.z, cold.z_lb, cold.iterations, cold.status, cold.history)

    def test_first_order_engine_agrees(self):
        ipm = solve(build_problem(3, np.pi / 4, 0.66, 3), tol=1e-7)
        pdhg = solve(build_problem(3, np.pi / 4, 0.66, 3), tol=1e-4,
                     engine="first-order")
        assert abs(pdhg.s_n - ipm.s_n) <= pdhg.dual_gap + ipm.dual_gap + 1e-9
        assert pdhg.certified


class TestCertificates:
    def test_twelve_offers_without_progress_stall_and_progress_resets(self):
        prob = build_problem(3, np.pi / 4, 0.62, 3)
        rs = prob._rho_space
        start = rs.eye(1.0 / rs.dim)
        certs = _Certificates(prob, 1e-7)
        # the first offer shrinks the infinite gap of an empty keeper
        assert not certs.offer(start)
        assert certs.stalled == 0
        for k in range(1, 12):
            assert not certs.offer(start)
            assert certs.stalled == k
        assert certs.offer(start)
        assert certs.stalled == 12 and not certs.converged
        # a converged Lambda lifts the dual bound by far more than 1e-4 of
        # the gap
        ref = _Certificates(prob, 1e-7)
        oscwit.sdp._solve_ipm(prob, ref, 200)
        gap = certs.gap
        assert not certs.offer(start, ref.lam)
        assert certs.gap <= gap - 1e-4 * gap
        assert certs.stalled == 0


def spy_phi(monkeypatch):
    """Count the calls into ``SdpProblem.phi`` and ``phi_adjoint``, patched
    on the class as the benchmark's tracer patches them."""
    calls = {"phi": 0, "phi_adjoint": 0}
    for name in calls:
        def spy(prob, blocks, name=name, inner=getattr(oscwit.sdp.SdpProblem, name)):
            calls[name] += 1
            return inner(prob, blocks)

        monkeypatch.setattr(oscwit.sdp.SdpProblem, name, spy)
    return calls


class TestPhiEntryPoint:
    """Both engines and the certificate keeper reach Phi only through the
    problem's own ``phi`` and ``phi_adjoint``."""

    @pytest.mark.parametrize("engine, max_iters", [("first-order", 50), ("interior-point", 5)])
    def test_engines_call_the_problem_phi(self, engine, max_iters, monkeypatch):
        def run():
            return solve(build_problem(3, np.pi / 4, 0.62, 3), engine=engine,
                         max_iters=max_iters)

        plain = run()
        calls = spy_phi(monkeypatch)
        spied = run()
        assert calls["phi"] > 0 and calls["phi_adjoint"] > 0
        assert (spied.z, spied.z_lb, spied.iterations, spied.status, spied.history) == (
            plain.z, plain.z_lb, plain.iterations, plain.status, plain.history)

    def test_start_offer_calls_the_problem_phi(self, monkeypatch):
        # the vacuum has the score 1/2 and z = 1: the keeper takes the start
        # as the answer from its primal value alone
        prob = build_problem(3, np.pi / 4, 0.5, 3)
        vac = np.zeros((16, 16))
        vac[0, 0] = 1.0
        plain = solve(prob, start=vac)
        calls = spy_phi(monkeypatch)
        spied = solve(prob, start=vac)
        assert spied.iterations == 0
        assert calls == {"phi": 1, "phi_adjoint": 0}
        assert (spied.z, spied.z_lb, spied.history) == (plain.z, plain.z_lb, plain.history)


QUARTER_TURNS = [np.pi / 4, -np.pi / 4, 3 * np.pi / 4]


def score_range(n):
    """The bottom face, the middle and the top face of the scores n attains;
    below the first coupling Q = 1/2 and 1/2 is the only score."""
    w, _ = q_spectrum(n)
    return [0.5] if w[-1] - w[0] < 1e-12 else [w[0], 0.5 * (w[0] + w[-1]), w[-1]]


class TestSwapReduction:
    @pytest.mark.parametrize("theta", QUARTER_TURNS + [5 * np.pi / 4])
    def test_folded_quarter_turns_are_reduced(self, theta):
        assert fold_theta(theta) == math.pi / 4
        prob = build_problem(3, theta, 0.6, 3)
        assert [len(g) for g in prob._rho_space.groups] == [3, 3, 2, 3, 3, 2]
        assert [len(g) for g in prob._big_space.groups] == [12, 5, 16]
        assert prob._big_mult == [1.0, 1.0, 2.0]

    @pytest.mark.parametrize("n, p, rho_sizes, big_sizes", [
        (3, 0.6, [3, 3, 2, 3, 3, 2], [12, 5, 16]),
        (6, 0.68, [10, 7, 9, 7, 9, 7], [35, 22, 56]),
        (11, 0.68, [24] * 6, [100, 77, 176]),
    ])
    def test_block_sizes(self, n, p, rho_sizes, big_sizes):
        prob = build_problem(3, np.pi / 4, p, n)
        assert [len(g) for g in prob._rho_space.groups] == rho_sizes
        assert [len(g) for g in prob._big_space.groups] == big_sizes

    def test_schur_size_at_n3(self):
        # the interior point's Schur complement: trace, score and the svec
        # sizes of the big blocks
        reduced = build_problem(3, np.pi / 4, 0.6, 3)
        near = build_problem(3, 0.7853981633974, 0.6, 3)
        assert (near._big_space.total + 2, reduced._big_space.total + 2) == (427, 231)

    def test_near_quarter_pi_keeps_the_sector_blocks(self):
        prob = build_problem(3, 0.7853981633974, 0.68, 11)
        assert fold_theta(prob.theta) != math.pi / 4
        assert [len(g) for g in prob._rho_space.groups] == [48, 48, 48]
        assert [len(g) for g in prob._big_space.groups] == [177, 176, 176]
        assert prob._big_mult == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("K", [3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("theta", QUARTER_TURNS + [5 * np.pi / 4])
    def test_weighted_isometry_and_adjoint(self, theta, n, K):
        # at even K, sector K/2 also maps onto itself and splits
        w = np.linalg.eigvalsh(qk_matrix(K, n).matrix.real)
        prob = build_problem(K, theta, 0.5 * (w[0] + w[-1]), n)
        rs, bs = prob._rho_space, prob._big_space
        x, y = random_blocks(rs), random_blocks(bs)
        out = prob.phi(x)
        assert math.sqrt(weighted_inner(prob, out, out)) == pytest.approx(
            math.hypot(*(np.linalg.norm(b) for b in x)), rel=1e-12)
        assert weighted_inner(prob, out, y) == pytest.approx(
            sum(np.sum(a * b) for a, b in zip(x, prob.phi_adjoint(y))), rel=1e-12, abs=1e-12)
        # the blocks are those of the documented bases, and the dense
        # T-invariant matrix they hold is the dense Phi
        ref = dense_phi(prob, rs.full_from_blocks(x))
        assert max(np.max(np.abs(a - b)) for a, b in zip(out, big_blocks(prob, ref))) < 1e-12
        assert np.max(np.abs(big_dense(prob, out) - ref)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("theta", QUARTER_TURNS)
    def test_reduced_matches_unreduced(self, theta, n):
        # the splitting engine's iterates are those of the unreduced problem
        # up to rounding; the interior point's certified interval meets the
        # unreduced one
        for p in score_range(n):
            full = solve(build_problem(3, theta, p, n, symmetry_reduction=False),
                         engine="first-order", max_iters=300)
            split = solve(build_problem(3, theta, p, n), engine="first-order", max_iters=300)
            assert split.iterations == full.iterations
            assert abs(split.z - full.z) < 1e-9 and abs(split.z_lb - full.z_lb) < 1e-9
            ipm = solve(build_problem(3, theta, p, n), tol=1e-6, engine="interior-point")
            assert ipm.status == "optimal"
            for red in (split, ipm):
                assert abs(red.z - full.z) <= (red.z - red.z_lb) + (full.z - full.z_lb) + 1e-9


class TestReconstruction:
    @pytest.mark.parametrize("p", [0.62, max_score(3, 3)[0]])
    def test_state_stays_in_the_sectors(self, p):
        # the keeper holds rho as sector blocks, with the score repaired
        # inside one sector, so the reported state is exactly zero between
        # different N_tot mod K
        sol = solve(build_problem(3, np.pi / 4, p, 3), tol=1e-7)
        i, j = np.divmod(np.arange(16), 4)
        label = (i + j) % 3
        off = label[:, None] != label[None, :]
        assert np.any(sol.rho.matrix[~off] != 0.0)
        assert np.all(sol.rho.matrix[off] == 0.0)

    def test_minimizer_consistency(self):
        prob = build_problem(3, np.pi / 4, 0.64, 3)
        sol = solve(prob, tol=1e-7)
        rho = sol.rho.matrix.real
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        assert prob.score_of(rho) == pytest.approx(0.64, abs=1e-7)
        assert np.linalg.eigvalsh((rho + rho.T) / 2.0)[0] >= -1e-8
        # independent quantifier evaluation dominates the certified bound;
        # the rotation is exact only with doubled cutoff headroom
        state = TwoModeState(rho.astype(complex), 3, NORMAL, validate=False)
        doubled = embed_state(state, 6)
        physical = transform_state(doubled, np.pi / 4, PHYSICAL)
        sn_direct = log_negativity(
            TwoModeState(physical.matrix, 6, PHYSICAL, validate=False)
        )
        assert sn_direct >= sol.s_n - sol.dual_gap - 1e-9
        assert sn_direct == pytest.approx(sol.s_n, abs=1e-6)

    def test_expansion_roundtrip(self):
        prob = build_problem(3, 0.4, 0.5, 2)
        rho = random_normal_density(2)
        x = product_expansion(2, rho)
        d = (prob.n_max + 1) ** 2
        recon = np.eye(d) / d
        idx = 0
        b = hermitian_basis(2).elements
        for j in range(len(b)):
            for k in range(len(b)):
                if j == 0 and k == 0:
                    continue
                recon = recon + x[idx] * np.kron(b[j], b[k]).real
                idx += 1
        assert np.max(np.abs(recon - rho)) < 1e-10


class TestFaceTargets:
    @pytest.mark.parametrize("end", [0, -1])
    def test_face_keeps_the_sectors(self, end):
        # the face basis is built sector by sector, so a face that spans
        # every sector stays in sector blocks: N_tot mod K, split by the
        # parity of N_- at pi/4
        w, v = q_spectrum(8)
        face = v[:, np.abs(w - w[end]) < oscwit.sdp.FACE_TOL]
        for prob, sizes in ((build_problem(3, 0.3, w[end], 8), [3, 3, 3]),
                            (n8_face(end), [2, 1, 1, 2, 2, 1])):
            assert [len(g) for g in prob._rho_space.groups] == sizes
            f = prob._face_basis
            assert np.max(np.abs(f.T @ f - np.eye(9))) < 1e-12
            assert np.max(np.abs(f @ f.T - face @ face.T)) < 1e-12

    def test_max_score_target_certifies(self):
        p3, _ = max_score(3, 3)
        sol = solve(build_problem(3, np.pi / 4, p3, 3), tol=1e-7)
        assert sol.certified
        # frozen: only maximally violating (rotated product) states attain
        # the top score, and they carry about 0.729 nats
        assert sol.s_n == pytest.approx(0.7292, abs=1e-3)

    def test_face_ignores_start(self):
        # on a face the score is no longer a constraint, so a start off the
        # face, here the vacuum, would pass for a feasible state with z = 1
        p3, _ = max_score(3, 3)
        prob = build_problem(3, np.pi / 4, p3, 3)
        vac = np.zeros((16, 16))
        vac[0, 0] = 1.0
        sol = solve(prob, tol=1e-7, start=vac)
        assert sol.iterations > 0
        assert sol.certified

    def test_below_first_coupling_is_separable(self):
        sol = solve(build_problem(3, np.pi / 4, 0.5, 2), tol=1e-7)
        assert sol.s_n <= sol.dual_gap

    @pytest.mark.parametrize("n", [1, 2])
    def test_top_score_below_first_coupling_is_separable(self, n):
        # below the first protocol coupling the top score is 1/2 and the
        # vacuum attains it: no entanglement
        p_top, _ = max_score(3, n)
        assert p_top == pytest.approx(0.5)
        sol = solve(build_problem(3, np.pi / 4, p_top, n), tol=1e-6)
        assert sol.s_n <= sol.dual_gap
        assert not sol.certified

    def test_top_score_relaxes_along_its_plateau(self):
        # at the coupling the maximally violating face is entangled; within
        # a plateau of the top score the certified minimum relaxes as the
        # space grows (frozen solver values, cross-checked at tol 1e-7)
        (p3, _), (p4, _) = max_score(3, 3), max_score(3, 4)
        assert p3 == pytest.approx(0.662867503968, abs=1e-10)
        assert p4 == pytest.approx(p3, abs=1e-12)
        s3 = solve(build_problem(3, np.pi / 4, p3, 3), tol=1e-6)
        s4 = solve(build_problem(3, np.pi / 4, p4, 4), tol=1e-6)
        assert s3.s_n == pytest.approx(0.7292, abs=1e-3)
        assert s4.s_n == pytest.approx(0.6981, abs=1e-3)
        assert s4.s_n < s3.s_n


def row_anchors(K, n, theta):
    """(score, state) of the product anchors of a certify row."""
    row = _row_data(K, theta, n, True)
    return [(score, np.outer(x, x)) for score, x in row["anchors"]]


class TestProductAnchors:
    @pytest.mark.parametrize("n", range(12))
    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.3, np.pi / 8, np.pi / 4, -np.pi / 4, 1.0])
    def test_row_anchors_are_their_own_rotation(self, theta, n):
        # the row reads its anchors from U(theta, 2n), the rotation that
        # gives Phi; they are those of U(theta, n) and Q at n, bit for bit
        anchors = row_anchors(3, n, theta)
        ref = product_anchors(3, n, theta)
        assert len(anchors) == len(ref) == 4
        for (score, rho), (score_ref, rho_ref) in zip(anchors, ref):
            assert score == score_ref
            assert np.array_equal(rho, rho_ref)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 8, np.pi / 4, 1.2])
    def test_anchors_are_ppt_states(self, theta, n):
        # a product state with one physical mode in vacuum lies inside the
        # cutoff, and its partial transpose is itself: z = 1
        prob = build_problem(3, theta, 0.5, n)
        rs = prob._rho_space
        anchors = row_anchors(3, n, theta)
        assert len(anchors) == 4
        for score, rho in anchors:
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
            blocks = rs.blocks_from_full(rho)
            for b in prob.phi(blocks):
                assert np.linalg.eigvalsh(b)[0] >= -1e-12
            assert 1.0 <= _primal_value(prob, blocks) < 1.0 + 1e-12
            assert prob.score_of(rho) == pytest.approx(score, abs=1e-14)

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4])
    def test_top_anchor_is_the_threshold(self, theta):
        # at n = 3 no stand-alone solve certifies the top anchor's score,
        # and one certifies just above it
        top = max(score for score, _ in row_anchors(3, 3, theta))
        at = solve(build_problem(3, theta, top, 3), tol=1e-7)
        assert at.solved and not at.certified
        above = solve(build_problem(3, theta, top + 1e-4, 3), tol=1e-7)
        assert above.certified


def interval_solution(lb):
    """A solved cell whose certified interval is the point z = z_lb with
    s_n = s_n_lb = lb, up to rounding."""
    z = (math.exp(lb) + 1.0) / 2.0
    return SdpSolution(z=z, z_lb=z, iterations=1, status="optimal")


class TestSolutionRecord:
    def test_log_values_are_read_from_the_interval(self):
        # p = 0.7 lies above the n = 3 score range
        cells = sweep([0.3, np.pi / 4], [0.5, 0.62, 0.7], 3, 3, tol=1e-6)
        solved = [sol for _, _, sol in cells if sol.solved]
        assert len(solved) == 4 and any(sol.dual_gap > 0.0 for sol in solved)
        for sol in solved + [SdpSolution(z=1.2, z_lb=1.3, iterations=0, status="optimal")]:
            assert sol.s_n == _sn_from_z(sol.z)
            assert sol.s_n_lb == _sn_from_z(sol.z_lb)
            assert sol.dual_gap == max(_sn_from_z(sol.z) - _sn_from_z(sol.z_lb), 0.0)
        # an infeasible cell has no interval: every value is NaN, and so is
        # its CSV row
        for (_, p, sol), line in zip(cells, certify_csv(cells).splitlines()[1:]):
            if p == 0.7:
                assert sol.status == "infeasible"
                assert all(math.isnan(v) for v in (sol.z, sol.z_lb, sol.s_n,
                                                   sol.s_n_lb, sol.dual_gap))
                assert line.split(",")[2:5] == ["nan"] * 3
        # the log values can be neither set nor passed in
        for name in ("s_n", "s_n_lb", "dual_gap"):
            with pytest.raises(AttributeError):
                setattr(solved[0], name, 0.0)
            with pytest.raises(TypeError):
                SdpSolution(z=1.0, z_lb=1.0, iterations=0, status="optimal", **{name: 0.0})


def q_is_one_half(K, n):
    return np.ptp(np.linalg.eigvalsh(qk_matrix(K, n).matrix.real)) < 1e-13


class TestScoreRow:
    """``SdpProblem._score`` is None exactly where the score holds
    identically: on a face of the score range, or where Q = I/2."""

    @pytest.mark.parametrize("prob", list(sector_problems()))
    def test_sector_problems(self, prob):
        holds = prob._face_basis is not None or q_is_one_half(prob.K, prob.n_max)
        assert (prob._score is None) == holds

    @pytest.mark.parametrize("K, n", face_cases())
    def test_none_on_both_faces_and_kept_inside(self, K, n):
        for theta in (0.3, np.pi / 4):
            row = _row_data(K, theta, n, True)
            lo = min(w[0] for w, _ in row["spectra"])
            hi = max(w[-1] for w, _ in row["spectra"])
            assert all(_cell_problem(row, p)._score is None for p in (lo, hi))
            for p in (lo + 1e-6, 0.5, hi - 1e-6):
                inner = _cell_problem(row, p)
                assert inner._face_basis is None and inner._score is row["score"]

    @pytest.mark.parametrize("K, n", [(K, n) for K in range(2, 6) for n in range(12)
                                      if q_is_one_half(K, n)])
    def test_q_one_half(self, K, n):
        # K = 2 and 4 at every n, K = 3 at n <= 2 and K = 5 at n <= 4
        assert K in (2, 4) or n < K
        prob = build_problem(K, 0.3, 0.5, n)
        assert prob._face_basis is None and prob._score is None


class TestSweep:
    def test_small_grid(self):
        cells = sweep([0.0, np.pi / 4], [0.5, 0.62], 3, 3, tol=1e-6)
        assert len(cells) == 4
        by = {(round(theta, 6), p): sol for theta, p, sol in cells}
        assert by[(0.0, 0.5)].s_n <= by[(0.0, 0.5)].dual_gap
        assert by[(0.0, 0.62)].s_n <= by[(0.0, 0.62)].dual_gap
        hot = by[(round(np.pi / 4, 6), 0.62)]
        assert hot.s_n - hot.dual_gap > 0.3
        assert monotonicity_violations(cells) == []

    def test_monotonicity_reports_both_axes(self):
        def row(theta, p, lb):
            return theta, p, interval_solution(lb)

        # certified values drop from p = 0.5 to 0.6 at theta = 0, and from
        # theta = 0 to 1 at p = 0.5; both other lines increase
        cells = [
            row(0.0, 0.5, 0.3), row(0.0, 0.6, 0.1),
            row(1.0, 0.5, 0.1), row(1.0, 0.6, 0.2)]
        assert monotonicity_violations(cells) == [
            ("p", 0.0, 0.5, 0.6), ("theta", 0.5, 0.0, 1.0)]

    def test_monotonicity_falls_toward_one_half(self):
        # z(1/2) = 1 and z is convex in p, so below 1/2 the certified values
        # fall as p rises: that is no violation
        cells = sweep([0.3, np.pi / 4], [0.36, 0.40, 0.45, 0.5], 3, 3, tol=1e-6)
        hot = [sol.s_n_lb for theta, _, sol in cells if theta == np.pi / 4]
        assert hot[0] > hot[1] > hot[2]
        assert monotonicity_violations(cells) == []

    def test_monotonicity_below_one_half(self):
        def row(p, lb):
            return 0.0, p, interval_solution(lb)

        # below 1/2 a value that rises toward 1/2 is flagged; a pair on both
        # sides of 1/2 is not compared
        cells = [row(0.40, 0.1), row(0.45, 0.3), row(0.55, 0.0), row(0.60, 0.2)]
        assert monotonicity_violations(cells) == [("p", 0.0, 0.40, 0.45)]

    def test_monotonicity_orders_theta_by_the_folded_angle(self):
        # 3 pi/8 folds to pi/8, below pi/4: in raw order each score reads a
        # drop from pi/4 to 3 pi/8
        cells = sweep([np.pi / 4, 3 * np.pi / 8], [0.6, 0.64], 3, 3, tol=1e-6)
        assert all(sol.solved for _, _, sol in cells)
        assert monotonicity_violations(cells) == []
        # a drop along the folded angle is reported at the raw angles
        cells = [(0.0, 0.5, interval_solution(0.3)),
                 (3 * np.pi / 8, 0.5, interval_solution(0.1))]
        assert monotonicity_violations(cells) == [("theta", 0.5, 0.0, 3 * np.pi / 8)]

    def test_infeasible_cells_recorded(self):
        cells = sweep([0.0], [0.5, 0.9], 3, 2, tol=1e-6)
        status = {p: sol.status for _, p, sol in cells}
        assert status[0.5] == "optimal"
        assert status[0.9] == "infeasible"

    def test_threaded_sweep_matches_serial(self):
        # the second grid builds one row twice at once, and its last score
        # lies above the top of the score range
        for grid in (([0.0, np.pi / 4], [0.5, 0.6]),
                     ([np.pi / 4, np.pi / 4], [0.5, 0.6, 0.7])):
            serial = sweep(grid[0], grid[1], 3, 3, tol=1e-6, threads=1)
            threaded = sweep(grid[0], grid[1], 3, 3, tol=1e-6, threads=2)
            for (th_a, p_a, a), (th_b, p_b, b) in zip(serial, threaded):
                assert (th_a, p_a, a.status) == (th_b, p_b, b.status)
                if a.solved:
                    assert a.s_n == pytest.approx(
                        b.s_n, abs=a.dual_gap + b.dual_gap + 1e-9
                    )
            # the thread count never changes an output byte
            assert certify_csv(threaded) == certify_csv(serial)

    @pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 4])
    def test_row_reuses_ppt_states(self, theta, monkeypatch):
        ps = [0.5, 0.5375, 0.575, 0.6125, 0.65]
        solved, engines = {}, []
        inner = oscwit.sdp.solve

        def spy(prob, *args, **kwargs):
            solved[prob.p_target] = sol = inner(prob, *args, **kwargs)
            return sol

        def spy_engine(engine):
            def run(prob, *args, **kwargs):
                engines.append(prob.p_target)
                return engine(prob, *args, **kwargs)
            return run

        monkeypatch.setattr(oscwit.sdp, "solve", spy)
        for name in ("_solve_ipm", "_solve_pdhg"):
            monkeypatch.setattr(oscwit.sdp, name, spy_engine(getattr(oscwit.sdp, name)))
        cells = sweep([theta], ps, 3, 3, tol=1e-6)
        ran = set(engines)
        monkeypatch.undo()
        assert [p for _, p, _ in cells] == ps
        top = max(score for score, _ in row_anchors(3, 3, theta))
        flat_iterations = []
        for _, p, row in cells:
            alone = inner(build_problem(3, theta, p, 3), tol=1e-6)
            fields = ("z", "s_n", "dual_gap", "status", "iterations")
            if alone.z_lb > 1.0:
                assert [getattr(row, f) for f in fields] == [getattr(alone, f) for f in fields]
                continue
            sol = solved[p]
            assert sol.status == "optimal"
            assert sol.z >= sol.z_lb == 1.0
            assert row.z <= alone.z
            assert row.dual_gap <= alone.dual_gap
            flat_iterations.append(row.iterations)
            if p <= top:
                # a mix of product anchors: z = 1 up to rounding in the
                # spectrum, with no engine run
                assert 1.0 <= row.z < 1.0 + 1e-12
                assert row.s_n == row.dual_gap == 0.0
                assert row.iterations == 0
                assert p not in ran
        assert len(flat_iterations) >= 2
        assert sorted(flat_iterations)[:-1] == [0] * (len(flat_iterations) - 1)
        assert any(p <= top for p in ps)

    def test_failure_keeps_reason(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NumericalFailure("Schur factorization failed")

        monkeypatch.setattr(oscwit.sdp, "solve", broken)
        cells = sweep([0.0], [0.5], 3, 2, tol=1e-6)
        ((_, _, row),) = cells
        assert row.status == "failed"
        assert row.reason == "Schur factorization failed"
        # the reason stays out of the CSV
        assert certify_csv(cells).splitlines()[1] == "0,0.5,nan,nan,nan,failed,0"

    def test_csv_rounds_the_interval_outward(self):
        # the written s_n is at least the solver's and the written s_n_lb =
        # s_n - dual_gap at most its, exactly in decimal, at one decimal
        # below the leading digit of the gap; z is rounded up; cells with
        # z = 1 keep "1,0,0"
        cells = sweep([0.0, np.pi / 4], [0.5, 0.575, 0.62, 0.65], 3, 3, tol=1e-6)
        rows = [line.split(",") for line in certify_csv(cells).splitlines()[1:]]
        engine_rows = 0
        for (_, _, sol), row in zip(cells, rows):
            z, s_n, gap = (Decimal(v) for v in row[2:5])
            if sol.dual_gap == 0.0:
                assert row[2:5] == ["1", "0", "0"]
                continue
            engine_rows += 1
            q = Decimal(1).scaleb(Decimal(sol.dual_gap).adjusted() - 1)
            assert s_n.as_tuple().exponent == gap.as_tuple().exponent == q.as_tuple().exponent
            assert Decimal(sol.s_n) <= s_n < Decimal(sol.s_n) + q
            assert Decimal(sol.s_n_lb) - q < s_n - gap <= Decimal(sol.s_n_lb)
            assert Decimal(sol.z) <= z
            assert z - Decimal(sol.z) < Decimal(1).scaleb(
                Decimal(sol.z - sol.z_lb).adjusted() - 1)
            assert (s_n - gap > 0) == sol.certified
        assert engine_rows == 3

    def test_csv_deterministic(self):
        cells = sweep([0.0], [0.5], 3, 2, tol=1e-6)
        assert certify_csv(cells) == certify_csv(cells)
        header = certify_csv(cells).splitlines()[0]
        assert header.split(",") == list(COLUMNS)
        # no timing column: the last field is the iteration count
        assert certify_csv(cells).splitlines()[1].split(",")[-1] == str(cells[0][2].iterations)
