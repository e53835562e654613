import math
import tracemalloc

import numpy as np
import pytest

from oscwit.errors import DegenerateAngle, SameBasis, Unstable
from oscwit.fock import NORMAL, PHYSICAL, TwoModeState, annihilation_matrix
from oscwit.modes import (
    NormalModeSpec,
    fold_theta,
    mode_rotation_unitary,
    normal_coordinates,
    normal_mode_params,
    transform_state,
)
from oscwit.sdp import build_problem
from oracles import physical_coordinates, stiffness_matrix

rng = np.random.default_rng(42)


def random_params():
    m1, m2 = rng.uniform(0.5, 3.0, 2)
    w1, w2 = rng.uniform(0.5, 3.0, 2)
    mu = math.sqrt(m1 * m2)
    # keep the soft mode stable
    g_max = 0.9 * 2.0 * mu * w1 * w2
    g = rng.uniform(-g_max, g_max)
    return m1, m2, w1, w2, g


class TestParams:
    def test_uncoupled(self):
        spec = normal_mode_params(1.0, 1.0, 2.0, 1.0, 0.0)
        assert spec.theta == 0.0
        assert spec.omega_plus == pytest.approx(2.0)
        assert spec.omega_minus == pytest.approx(1.0)

    def test_resonant_coupled(self):
        spec = normal_mode_params(1.0, 1.0, 1.5, 1.5, 0.6)
        assert spec.theta == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("trial", range(10))
    def test_frequencies_match_stiffness_eigenvalues(self, trial):
        spec = normal_mode_params(*random_params())
        w = np.linalg.eigvalsh(stiffness_matrix(spec))
        assert spec.omega_minus ** 2 == pytest.approx(w[0], abs=1e-10)
        assert spec.omega_plus ** 2 == pytest.approx(w[1], abs=1e-10)

    def test_degenerate_needs_theta(self):
        with pytest.raises(DegenerateAngle):
            normal_mode_params(1.0, 1.0, 1.0, 1.0, 0.0)
        spec = normal_mode_params(1.0, 1.0, 1.0, 1.0, 0.0, theta=0.3)
        assert spec.theta == 0.3

    def test_theta_rejected_when_determined(self):
        with pytest.raises(ValueError):
            normal_mode_params(1.0, 1.0, 2.0, 1.0, 0.1, theta=0.2)

    def test_unstable(self):
        with pytest.raises(Unstable):
            normal_mode_params(1.0, 1.0, 1.0, 1.0, 2.5)

    def test_folding(self):
        assert fold_theta(0.2) == pytest.approx(0.2)
        assert fold_theta(-0.2) == pytest.approx(0.2)
        assert fold_theta(math.pi / 2 - 0.2) == pytest.approx(0.2)
        assert fold_theta(math.pi / 4) == pytest.approx(math.pi / 4)
        for t in rng.uniform(-math.pi, math.pi, 25):
            assert 0.0 <= fold_theta(t) <= math.pi / 4 + 1e-15


class TestNormalCoordinates:
    def test_identity_at_zero_angle(self):
        spec = normal_mode_params(1.0, 1.0, 2.0, 1.0, 0.0)
        xp, pp, xm, pm = normal_coordinates(0.3, -0.1, 0.7, 0.4, spec)
        assert (xp, pp, xm, pm) == pytest.approx((0.3, -0.1, 0.7, 0.4))

    def test_pi_over_4(self):
        spec = normal_mode_params(1.0, 1.0, 1.0, 1.0, 0.0, theta=math.pi / 4)
        xp, pp, xm, pm = normal_coordinates(1.0, 0.0, 0.0, 0.0, spec)
        assert xp == pytest.approx(1 / math.sqrt(2))
        assert xm == pytest.approx(-1 / math.sqrt(2))

    @pytest.mark.parametrize("trial", range(8))
    def test_symplectic(self, trial):
        spec = normal_mode_params(*random_params())
        # Jacobian of (x1,p1,x2,p2) -> (x+,p+,x-,p-) has symplectic form +1
        basis = np.eye(4)
        cols = [np.array(normal_coordinates(*basis[:, i], spec)) for i in range(4)]
        jac = np.column_stack(cols)
        omega = np.zeros((4, 4))
        omega[0, 1] = omega[2, 3] = 1.0
        omega[1, 0] = omega[3, 2] = -1.0
        assert np.allclose(jac.T @ omega @ jac, omega, atol=1e-12)

    def test_roundtrip(self):
        spec = normal_mode_params(*random_params())
        pt = rng.normal(size=4)
        back = physical_coordinates(*normal_coordinates(*pt, spec), spec)
        assert np.allclose(np.array(back, dtype=float), pt, atol=1e-12)


def dense_rotation(theta, n_max):
    """exp(theta G) from one complex eigh of the whole generator
    G = a1^dag a2 - a2^dag a1 built from the truncated ladder operators."""
    a = annihilation_matrix(n_max).matrix
    eye = np.eye(n_max + 1)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    w, v = np.linalg.eigh(1j * (a1.conj().T @ a2 - a2.conj().T @ a1))
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


ROTATION_CASES = [(n, t) for n in (0, 1, 3, 8, 22)
                  for t in (0.0, 0.3, math.pi / 4, 1.0, -0.7)]


class TestRotationUnitary:
    @pytest.mark.parametrize("n_max,theta", ROTATION_CASES)
    def test_real_and_exactly_block_diagonal(self, n_max, theta):
        u = mode_rotation_unitary(theta, n_max).matrix
        d = n_max + 1
        n_tot = np.add.outer(np.arange(d), np.arange(d)).ravel()
        assert not u.imag.any()
        assert not u[n_tot[:, None] != n_tot[None, :]].any()

    @pytest.mark.parametrize("n_max,theta", ROTATION_CASES)
    def test_matches_dense_generator(self, n_max, theta):
        u = mode_rotation_unitary(theta, n_max).matrix
        assert np.max(np.abs(u - dense_rotation(theta, n_max))) < 1e-13

    @pytest.mark.parametrize("theta,p,n_max", [(0.3, 0.6, 3), (math.pi / 4, 0.68, 6)])
    def test_problem_rows_are_rows_of_u(self, theta, p, n_max):
        prob = build_problem(3, theta, p, n_max)
        u = mode_rotation_unitary(theta, 2 * n_max).matrix.real
        d_big = 2 * n_max + 1
        rows = [i * d_big + j for i in range(n_max + 1) for j in range(n_max + 1)]
        # rho sector r (N_tot = r mod 3) meets the big columns of total
        # number <= 2 n_max in the same residue; at pi/4 each sector splits
        # by the parity of N_-, even first
        n_small = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1)).ravel()
        n_minus = np.tile(np.arange(n_max + 1), n_max + 1)
        n_big = np.add.outer(np.arange(d_big), np.arange(d_big)).ravel()
        parities = [0, 1] if theta == math.pi / 4 else [None]
        sectors = [(r, par) for r in range(3) for par in parities]
        assert len(prob._phi[0]) == len(sectors)
        for (r, par), got in zip(sectors, prob._phi[0]):
            cols = np.nonzero((n_big <= 2 * n_max) & (n_big % 3 == r))[0]
            sel = (n_small % 3 == r) & ((n_minus % 2 == par) if par is not None else True)
            assert np.array_equal(got, u[rows][np.ix_(sel, cols)])

    def test_fills_one_complex_matrix(self):
        # the real blocks go straight into the complex matrix the operator
        # holds, with no real copy of it beside (about 1.5 times with one)
        matrix_bytes = (23 * 23) ** 2 * 16
        tracemalloc.start()
        try:
            mode_rotation_unitary(0.3, 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * matrix_bytes

    def test_zero_angle(self):
        u = mode_rotation_unitary(0.0, 3)
        assert np.allclose(u.matrix, np.eye(16))

    def test_single_excitation_block(self):
        theta = 0.37
        n_max = 4
        u = mode_rotation_unitary(theta, n_max).matrix
        d = n_max + 1
        ket10 = np.zeros(d * d)
        ket10[1 * d + 0] = 1.0  # |1,0> in normal-mode labels
        phys = u.conj().T @ ket10
        expect = np.zeros(d * d)
        expect[1 * d + 0] = math.cos(theta)
        expect[0 * d + 1] = math.sin(theta)
        assert np.allclose(phys, expect, atol=1e-12)

    def test_inverse(self):
        u1 = mode_rotation_unitary(0.6, 4).matrix
        u2 = mode_rotation_unitary(-0.6, 4).matrix
        assert np.max(np.abs(u1 @ u2 - np.eye(25))) < 1e-10

    def test_commutes_with_total_number(self):
        n_max = 5
        d = n_max + 1
        u = mode_rotation_unitary(1.1, n_max).matrix
        n_tot = np.diag(
            [i + j for i in range(d) for j in range(d)]
        ).astype(complex)
        assert np.max(np.abs(u @ n_tot - n_tot @ u)) < 1e-10

    def test_binomial_block(self):
        # |N,0> in normal labels spreads binomially over physical labels
        theta, n_max, N = 0.5, 6, 4
        d = n_max + 1
        u = mode_rotation_unitary(theta, n_max).matrix
        ket = np.zeros(d * d)
        ket[N * d + 0] = 1.0
        phys = u.conj().T @ ket
        for j in range(N + 1):
            expect = (
                math.sqrt(math.comb(N, j))
                * math.cos(theta) ** (N - j)
                * math.sin(theta) ** j
            )
            assert phys[(N - j) * d + j] == pytest.approx(expect, abs=1e-12)


class TestTransformState:
    def _random_state(self, n_max, tag):
        d = (n_max + 1) ** 2
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m @ m.conj().T
        return TwoModeState(m / np.trace(m).real, n_max, tag)

    def test_same_basis_rejected(self):
        state = self._random_state(2, NORMAL)
        with pytest.raises(SameBasis):
            transform_state(state, 0.3, NORMAL)

    def test_zero_angle_flips_tag_only(self):
        state = self._random_state(2, NORMAL)
        out = transform_state(state, 0.0, PHYSICAL)
        assert out.basis_tag == PHYSICAL
        assert np.allclose(out.matrix, state.matrix)

    def test_vacuum_invariant(self):
        d = 4
        vac = np.zeros(d * d)
        vac[0] = 1.0
        state = TwoModeState.from_pure(vac, d - 1, NORMAL)
        for theta in (0.2, math.pi / 4, 1.3):
            out = transform_state(state, theta, PHYSICAL)
            assert np.allclose(out.matrix, state.matrix, atol=1e-12)

    def test_spectrum_preserved(self):
        state = self._random_state(3, NORMAL)
        out = transform_state(state, 0.77, PHYSICAL)
        w1 = np.linalg.eigvalsh(state.matrix)
        w2 = np.linalg.eigvalsh(out.matrix)
        assert np.allclose(w1, w2, atol=1e-10)

    def test_roundtrip(self):
        state = self._random_state(3, NORMAL)
        out = transform_state(
            transform_state(state, 0.9, PHYSICAL), 0.9, NORMAL
        )
        assert np.max(np.abs(out.matrix - state.matrix)) < 1e-10


class TestHamiltonianRebuild:
    @pytest.mark.parametrize("trial", range(8))
    def test_quadratic_forms_agree(self, trial):
        spec = normal_mode_params(*random_params())
        # H as quadratic form in (x1, p1, x2, p2), direct parametrization
        h_direct = np.zeros((4, 4))
        h_direct[0, 0] = spec.m1 * spec.omega1 ** 2
        h_direct[2, 2] = spec.m2 * spec.omega2 ** 2
        h_direct[0, 2] = h_direct[2, 0] = spec.g / 2.0
        h_direct[1, 1] = 1.0 / spec.m1
        h_direct[3, 3] = 1.0 / spec.m2
        # H rebuilt from the normal-mode data through the coordinate map
        basis = np.eye(4)
        cols = [np.array(normal_coordinates(*basis[:, i], spec)) for i in range(4)]
        jac = np.column_stack(cols)  # rows: (x+, p+, x-, p-)
        h_normal = np.zeros((4, 4))
        h_normal[0, 0] = spec.mu * spec.omega_plus ** 2
        h_normal[2, 2] = spec.mu * spec.omega_minus ** 2
        h_normal[1, 1] = 1.0 / spec.mu
        h_normal[3, 3] = 1.0 / spec.mu
        rebuilt = jac.T @ h_normal @ jac
        scale = np.max(np.abs(h_direct))
        assert np.max(np.abs(rebuilt - h_direct)) < 1e-10 * scale
