import math
from fractions import Fraction

import numpy as np
import pytest

from oscwit.errors import WrongBasisTag
from oscwit.fock import NORMAL, PHYSICAL, TwoModeState
from oscwit.protocol import (
    classical_bound,
    max_score,
    pos_x_matrix,
    qk_matrix,
    score_operator,
    score_state,
)
from oracles import hermite_overlap_quadrature, pos_x_matrix_reference, qk_matrix_timeavg

rng = np.random.default_rng(99)


class TestClassicalBound:
    def test_exact_values(self):
        assert classical_bound(3) == Fraction(2, 3)
        assert classical_bound(4) == Fraction(1, 2)
        assert classical_bound(5) == Fraction(3, 5)

    @pytest.mark.parametrize("K", range(1, 12))
    def test_formula(self, K):
        b = classical_bound(K)
        if K % 2 == 1:
            assert b == Fraction(K + 1, 2 * K)
        else:
            assert b == Fraction(1, 2)


class TestPosMatrix:
    def test_diagonal_half(self):
        p = pos_x_matrix(6).matrix
        assert np.allclose(np.diag(p), 0.5)

    def test_same_parity_zero(self):
        p = pos_x_matrix(6).matrix
        assert p[0, 2] == 0.0
        assert p[1, 5] == 0.0

    def test_ground_first(self):
        p = pos_x_matrix(3).matrix
        assert p[0, 1] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_hermitian_real(self):
        p = pos_x_matrix(10).matrix
        assert np.allclose(p, p.T.conj())
        assert np.allclose(p.imag, 0.0)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 3), (2, 5), (4, 9), (7, 10)])
    def test_against_quadrature(self, pair):
        m, n = pair
        p = pos_x_matrix(max(pair)).matrix
        assert p[m, n] == pytest.approx(hermite_overlap_quadrature(m, n), abs=1e-12)

    def test_arrays_equal_the_double_loop(self):
        # the same scalar operations on the same operands, so the same bits
        for n_max in range(81):
            assert np.array_equal(pos_x_matrix(n_max).matrix, pos_x_matrix_reference(n_max))


class TestQkMatrix:
    def test_small_space_diagonal(self):
        q = qk_matrix(3, 2).matrix
        assert np.allclose(q, 0.5 * np.eye(3))

    def test_matches_time_average(self):
        for K, n_max, t0 in [(3, 8, 0.0), (3, 8, 0.71), (5, 12, 0.0), (4, 6, 0.3)]:
            direct = qk_matrix(K, n_max, t0).matrix
            oracle = qk_matrix_timeavg(K, n_max, t0).matrix
            assert np.max(np.abs(direct - oracle)) < 1e-10

    def test_even_K_is_half_identity(self):
        # even K couples only same-parity levels where the half-line
        # overlap vanishes identically
        for K in (2, 4, 6):
            for n_max in (3, 9, 14):
                q = qk_matrix(K, n_max).matrix
                assert np.allclose(q, 0.5 * np.eye(n_max + 1), atol=1e-15)


class TestMaxScore:
    def test_small_space(self):
        p, _ = max_score(3, 2)
        assert p == pytest.approx(0.5)

    def test_first_violating_truncations(self):
        # frozen eigensolve values; the protocol operator picks up its
        # first off-diagonal coupling at level K
        p3, _ = max_score(3, 3)
        assert p3 == pytest.approx(0.5 + 1.0 / (2.0 * math.sqrt(3.0 * math.pi)), abs=1e-12)
        p6, _ = max_score(3, 6)
        assert p6 == pytest.approx(0.686588166295, abs=1e-9)

    def test_value_at_30(self):
        # truncated maximum; converges towards ~0.7094 like n^(-1/2)
        p, vec = max_score(3, 30)
        assert p == pytest.approx(0.697334774130, abs=1e-9)
        # maximizer lives on levels 0 mod 3
        support = {i for i in range(31) if abs(vec[i]) > 1e-8}
        assert support <= {3 * k for k in range(11)}

    def test_nondecreasing_and_jump_structure(self):
        vals = [max_score(3, n)[0] for n in range(16)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12
        jumps = {n for n in range(1, 16) if vals[n] - vals[n - 1] > 1e-12}
        # value changes exactly at the positive multiples of K = 3
        assert jumps == {3, 6, 9, 12, 15}

    def test_even_K_never_exceeds_half(self):
        for n_max in range(0, 16):
            p, _ = max_score(2, n_max)
            assert p <= 0.5 + 1e-9
            p4, _ = max_score(4, n_max)
            assert p4 <= 0.5 + 1e-9


def random_normal_state(n_max):
    d = (n_max + 1) ** 2
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m @ m.conj().T
    return TwoModeState(m / np.trace(m).real, n_max, NORMAL)


class TestScoreState:
    def test_vacuum(self):
        d = 5
        vac = np.zeros(d * d)
        vac[0] = 1.0
        state = TwoModeState.from_pure(vac, d - 1, NORMAL)
        assert score_state(state, 3) == pytest.approx(0.5, abs=1e-12)

    def test_top_eigenstate(self):
        n_max = 8
        p, vec = max_score(3, n_max)
        d = n_max + 1
        two = np.kron(vec, np.eye(1, d, 0).ravel())
        state = TwoModeState.from_pure(two, n_max, NORMAL)
        assert score_state(state, 3) == pytest.approx(p, abs=1e-10)
        # sigma='-' scores the other slot: vacuum there, so 1/2
        assert score_state(state, 3, sigma="-") == pytest.approx(0.5, abs=1e-10)

    def test_maximally_mixed(self):
        n_max = 4
        d = (n_max + 1) ** 2
        state = TwoModeState(np.eye(d) / d, n_max, NORMAL)
        assert score_state(state, 3) == pytest.approx(0.5, abs=1e-12)

    def test_wrong_basis(self):
        d = 3
        vac = np.zeros(d * d)
        vac[0] = 1.0
        state = TwoModeState.from_pure(vac, d - 1, PHYSICAL)
        with pytest.raises(WrongBasisTag):
            score_state(state, 3)

    @pytest.mark.parametrize("sigma", ["x", "", "+-", None])
    def test_unknown_mode_rejected(self, sigma):
        # the operator owns the check, so a bad mode never falls through to
        # the - mode, and the score reports it too
        with pytest.raises(ValueError, match="sigma"):
            score_operator(3, 2, sigma)
        with pytest.raises(ValueError, match="sigma"):
            score_state(TwoModeState(np.eye(9) / 9, 2, NORMAL), 3, sigma)

    def test_range(self):
        for _ in range(10):
            s = score_state(random_normal_state(4), 3)
            assert -1e-9 <= s <= 1.0 + 1e-9

    def test_t0_covariance(self):
        # rotating the state in number phase == shifting the offset
        n_max = 6
        d = n_max + 1
        t0 = 0.83
        state = random_normal_state(n_max)
        # free evolution forward by phase t0 multiplies level n by e^{-i n t0}
        phases = np.exp(-1j * t0 * np.arange(d))
        u = np.kron(np.diag(phases), np.eye(d))
        rotated = TwoModeState(u @ state.matrix @ u.conj().T, n_max, NORMAL)
        q_shift = np.kron(qk_matrix(3, n_max, t0=t0).matrix, np.eye(d))
        direct = float(np.trace(rotated.matrix @ np.kron(qk_matrix(3, n_max).matrix, np.eye(d))).real)
        via_offset = float(np.trace(state.matrix @ q_shift).real)
        assert direct == pytest.approx(via_offset, abs=1e-9)

    def test_diagonal_states_ignore_t0(self):
        n_max = 5
        d = n_max + 1
        probs = rng.dirichlet(np.ones(d * d))
        state = TwoModeState(np.diag(probs).astype(complex), n_max, NORMAL)
        q0 = np.kron(qk_matrix(3, n_max).matrix, np.eye(d))
        q1 = np.kron(qk_matrix(3, n_max, t0=1.234).matrix, np.eye(d))
        s0 = float(np.trace(state.matrix @ q0).real)
        s1 = float(np.trace(state.matrix @ q1).real)
        assert s0 == pytest.approx(s1, abs=1e-12)
