import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SdpSolution,
    SweepResult,
    _assemble_constraint_rows,
    _clip_eig,
    _dual_bound,
    _primal_value,
    _project_feasible,
    _project_spectrahedron,
    _svec_data,
    _symkron,
    build_problem,
    solve,
    sweep,
)
from oracles import embed_state, hermitian_basis

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
        # itself exactly: every sweep row can start from it
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

    def test_frozen_ladder_rung(self):
        # theta = pi/4, p = 0.68 first becomes feasible at n = 6; this is
        # the splitting engine's certified bound after 400 iterations
        sol = solve(build_problem(3, np.pi / 4, 0.68, 6), engine="first-order",
                    max_iters=400)
        assert sol.iterations == 400
        assert sol.s_n_lb == pytest.approx(0.6419791754695262, abs=1e-9)


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
        if prob._score_active:
            assert np.array_equal(t_rows[1], rs.pack(prob._q_blocks))
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
        assert not prob._score_active
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
        eigs = [np.linalg.eigh(m - b * q) for m, q in zip(sym, prob._q_blocks)]
        w = np.concatenate([w for w, _ in eigs])
        lo, hi = w.min() - 1.0, w.max()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.clip(w - mid, 0.0, None).sum() > 1.0:
                lo = mid
            else:
                hi = mid
        x = [(v * np.clip(wb - 0.5 * (lo + hi), 0.0, None)) @ v.T for wb, v in eigs]
        return x, sum(np.vdot(q, xb) for q, xb in zip(prob._q_blocks, x)) - prob.p_target

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
    @pytest.mark.parametrize("prob", [p for p in sector_problems() if p._score_active])
    @pytest.mark.parametrize("scale", [0.01, 0.3, 3.0])
    def test_is_the_projection(self, prob, scale):
        rs = prob._rho_space
        blocks = [scale * b for b in random_blocks(rs)]
        out, _ = _project_spectrahedron(prob, blocks, (0.0, -1.0))
        # feasible: PSD, unit trace, the target score
        assert min(np.linalg.eigvalsh(x)[0] for x in out) > -1e-12
        assert abs(sum(np.trace(x) for x in out) - 1.0) < 1e-12
        assert abs(sum(np.vdot(q, x) for q, x in zip(prob._q_blocks, out))
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
            assert abs(sum(np.vdot(q, x) for q, x in zip(prob._q_blocks, far))
                       - prob.p_target) < 1e-12
            assert max(np.abs(x - r).max() for x, r in zip(far, ref)) < 1e-8


def golden_dual_bound(prob, lam_blocks):
    """The dual bound by an 80-step golden-section search over the score
    multiplier; returns the value and the multiplier (None when the score is
    inactive)."""
    h = prob.phi_adjoint([_clip_eig(b, 0.0, 1.0) for b in lam_blocks])
    if not prob._score_active:
        return min(float(np.linalg.eigvalsh(hb)[0]) for hb in h), None

    def g(mu):
        return min(float(np.linalg.eigvalsh(hb - mu * qb)[0])
                   for hb, qb in zip(h, prob._q_blocks)) + mu * prob.p_target

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
    """A stand-in problem whose Phi* is the identity on its blocks."""
    return SimpleNamespace(phi_adjoint=list, _score_active=True,
                           p_target=p, _q_blocks=q_blocks)


class TestDualBound:
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
        low = [np.linalg.eigh(h - mu * q) for h, q in zip(lam, prob._q_blocks)]
        assert abs(low[0][0][0] - low[1][0][0]) < 1e-9
        slopes = [0.5 - v[:, 0] @ q @ v[:, 0] for (_, v), q in zip(low, prob._q_blocks)]
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


def traced_peak_mib(run):
    """The tracemalloc peak of ``run()``, in MiB; numpy reports its array
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


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
        # a tolerance the interior point cannot meet hands the rest of the
        # budget to the splitting engine on the same certificates; started
        # cold, 83 splitting iterations would not improve on the
        # interior-point state
        entered = []
        splitting = oscwit.sdp._solve_pdhg

        def spy(prob, certs, max_iters):
            entered.append(certs.z_up)
            return splitting(prob, certs, max_iters)

        monkeypatch.setattr(oscwit.sdp, "_solve_pdhg", spy)
        sol = solve(build_problem(3, np.pi / 4, 0.64, 3), tol=1e-12, max_iters=200)
        assert sol.iterations == 200
        assert sol.status == "max-iter"
        assert sol.z >= sol.z_lb
        [z_interior_point] = entered
        assert sol.z < z_interior_point

    def test_interior_point_converges_on_its_own(self):
        # certificates stay honest even when the Newton system is wrong, and
        # the splitting polish then closes the gap; a budget the interior
        # point needs about half of leaves the polish too little to hide it
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

    @pytest.mark.parametrize("engine", ["auto", "first-order", "interior-point"])
    def test_negative_budget_rejected(self, engine):
        with pytest.raises(ValueError, match="max_iters"):
            solve(build_problem(3, np.pi / 4, 0.6, 3), engine=engine, max_iters=-1)

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


class TestSweep:
    def test_small_grid(self):
        res = sweep([0.0, np.pi / 4], [0.5, 0.62], 3, 3, tol=1e-6)
        assert len(res.cells) == 4
        by = {(round(theta, 6), p): sol for theta, p, sol in res.cells}
        assert by[(0.0, 0.5)].s_n <= by[(0.0, 0.5)].dual_gap
        assert by[(0.0, 0.62)].s_n <= by[(0.0, 0.62)].dual_gap
        hot = by[(round(np.pi / 4, 6), 0.62)]
        assert hot.s_n - hot.dual_gap > 0.3
        assert res.monotonicity_violations() == []

    def test_monotonicity_reports_both_axes(self):
        def row(theta, p, lb):
            return theta, p, SdpSolution(z=1.0, s_n=lb, z_lb=1.0, s_n_lb=lb,
                                         dual_gap=0.0, iterations=1, status="optimal")

        # certified values drop from p = 0.5 to 0.6 at theta = 0, and from
        # theta = 0 to 1 at p = 0.5; both other lines increase
        res = SweepResult([
            row(0.0, 0.5, 0.3), row(0.0, 0.6, 0.1),
            row(1.0, 0.5, 0.1), row(1.0, 0.6, 0.2)])
        assert res.monotonicity_violations() == [
            ("p", 0.0, 0.5, 0.6), ("theta", 0.5, 0.0, 1.0)]

    def test_infeasible_cells_recorded(self):
        res = sweep([0.0], [0.5, 0.9], 3, 2, tol=1e-6)
        status = {p: sol.status for _, p, sol in res.cells}
        assert status[0.5] == "optimal"
        assert status[0.9] == "infeasible"

    def test_threaded_sweep_matches_serial(self):
        grid = ([0.0, np.pi / 4], [0.5, 0.6])
        serial = sweep(grid[0], grid[1], 3, 3, tol=1e-6, threads=1)
        threaded = sweep(grid[0], grid[1], 3, 3, tol=1e-6, threads=2)
        for (th_a, p_a, a), (th_b, p_b, b) in zip(serial.cells, threaded.cells):
            assert (th_a, p_a, a.status) == (th_b, p_b, b.status)
            assert a.s_n == pytest.approx(
                b.s_n, abs=a.dual_gap + b.dual_gap + 1e-9
            )
        # the thread count never changes an output byte
        assert threaded.to_csv() == serial.to_csv()

    @pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 4])
    def test_row_reuses_ppt_states(self, theta, monkeypatch):
        ps = [0.5, 0.5375, 0.575, 0.6125, 0.65]
        solved = {}
        inner = oscwit.sdp.solve

        def spy(prob, *args, **kwargs):
            solved[prob.p_target] = sol = inner(prob, *args, **kwargs)
            return sol

        monkeypatch.setattr(oscwit.sdp, "solve", spy)
        res = sweep([theta], ps, 3, 3, tol=1e-6)
        assert [p for _, p, _ in res.cells] == ps
        flat_iterations = []
        for _, p, row in res.cells:
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
        assert len(flat_iterations) >= 2
        assert sorted(flat_iterations)[:-1] == [0] * (len(flat_iterations) - 1)

    def test_failure_keeps_reason(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NumericalFailure("Schur factorization failed")

        monkeypatch.setattr(oscwit.sdp, "solve", broken)
        res = sweep([0.0], [0.5], 3, 2, tol=1e-6)
        ((_, _, row),) = res.cells
        assert row.status == "failed"
        assert row.reason == "Schur factorization failed"
        # the reason stays out of the CSV
        assert res.to_csv().splitlines()[1] == "0,0.5,nan,nan,nan,failed,0,0.000"

    def test_csv_deterministic(self):
        res = sweep([0.0], [0.5], 3, 2, tol=1e-6)
        assert res.to_csv() == res.to_csv()
        header = res.to_csv().splitlines()[0]
        assert header.split(",") == list(SweepResult.COLUMNS)
        # timing column is zeroed unless explicitly requested
        assert res.to_csv().splitlines()[1].endswith(",0.000")
