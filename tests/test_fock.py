import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaln

import oscwit.fock
from oscwit.errors import (
    NotHermitian,
    TruncationInsufficient,
    WrongBasisTag,
)
from oscwit.fock import (
    NORMAL,
    PHYSICAL,
    FockOperator,
    TwoModeState,
    annihilation_matrix,
    coherent_state,
    coherent_tail_mass,
    eig_hermitian,
    identity_matrix,
    log_negativity,
    minimum_coherent_cutoff,
)
from oracles import hermitian_basis, partial_transpose

rng = np.random.default_rng(1234)


def random_hermitian(d, scale=1.0):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (m + m.conj().T) / 2.0


def random_state_vector(d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


class TestAnnihilation:
    def test_n0_is_zero(self):
        assert np.all(annihilation_matrix(0).matrix == 0)

    def test_entries(self):
        a = annihilation_matrix(2).matrix
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(np.sqrt(2.0))
        assert np.count_nonzero(a) == 2

    def test_commutator_below_cutoff(self):
        n_max = 8
        a = annihilation_matrix(n_max).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        # the last diagonal entry is a truncation artifact; below it the
        # canonical commutator is exact
        assert np.allclose(comm[:n_max, :n_max], np.eye(n_max), atol=1e-14)


class TestCoherent:
    def test_vacuum(self):
        v = coherent_state(0.0, 5)
        assert v[0] == 1.0 and np.all(v[1:] == 0)

    def test_norm_and_mean_occupation(self):
        v = coherent_state(1.0, 20)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        n_mean = np.sum(np.arange(21) * np.abs(v) ** 2)
        assert abs(n_mean - 1.0) < 1e-8

    def test_eigenrelation(self):
        alpha = 0.7 + 0.3j
        n_max = 25
        v = coherent_state(alpha, n_max)
        a = annihilation_matrix(n_max).matrix
        got = np.vdot(v, a @ v)
        assert abs(got - alpha) < 1e-8

    def test_truncation_guard(self):
        with pytest.raises(TruncationInsufficient):
            coherent_state(3.0, 5)

    def test_minimum_cutoff(self):
        n = minimum_coherent_cutoff(2.0, tol=1e-12)
        coherent_state(2.0, n, tol=1e-12)  # must not raise


def scipy_tail_mass(alpha, n_max):
    lam = abs(alpha) ** 2
    return 0.0 if lam == 0.0 else float(gammainc(n_max + 1, lam))


def witness_displacements():
    """Every r the witness command evaluates: its erf check and the
    optimality probe's walk in steps of 0.05 up to r = 20."""
    rs = [0.0, 0.5, 1.0, 2.0]
    r = 0.05
    while r <= 20.0 + 0.05:
        rs.append(r)
        r += 0.05
    return rs


class TestTailMass:
    """The math-only Poisson tail against scipy's incomplete gamma."""

    def test_matches_gammainc(self):
        for lam in np.linspace(0.0, 60.0, 241):
            for n in range(151):
                got = coherent_tail_mass(math.sqrt(lam), n)
                ref = scipy_tail_mass(math.sqrt(lam), n)
                if ref == 0.0:
                    assert abs(got) <= 1e-300, (lam, n, got)
                else:
                    assert abs(got - ref) <= 1e-12 * ref, (lam, n, got, ref)

    def test_minimum_cutoff_matches_gammainc_reference(self, monkeypatch):
        rs = witness_displacements()
        amps = [-math.sqrt(2.0) * r for r in rs]
        got = [minimum_coherent_cutoff(a, tol=1e-12, margin=8) for a in amps]
        # the probe state at the command's probe_n_max = 40 passes the same
        # tail guard under both forms
        guard = [coherent_tail_mass(a, 40) > 1e-10 for a in amps]
        monkeypatch.setattr(oscwit.fock, "coherent_tail_mass", scipy_tail_mass)
        assert got == [minimum_coherent_cutoff(a, tol=1e-12, margin=8) for a in amps]
        assert guard == [scipy_tail_mass(a, 40) > 1e-10 for a in amps]

    @staticmethod
    def gammaln_form(alpha, n_max):
        n = np.arange(n_max + 1)
        logmod = n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) - abs(alpha) ** 2 / 2.0
        ref = np.exp(logmod) * np.exp(1j * np.angle(alpha) * n)
        return ref / np.linalg.norm(ref)

    # the witness command's amplitudes: -sqrt(2) r for r <= 2
    @pytest.mark.parametrize("alpha", [0.05, -0.7, 0.7 + 0.3j, 2.0, 2.5j, -2.8284271247461903])
    def test_coherent_state_matches_gammaln_form(self, alpha):
        n_max = minimum_coherent_cutoff(alpha, tol=1e-12, margin=8)
        got = coherent_state(alpha, n_max, tol=1e-12)
        assert np.max(np.abs(got - self.gammaln_form(alpha, n_max))) <= 1e-15

    @pytest.mark.parametrize("alpha", [5.5j, -12.0, -28.0])
    def test_coherent_state_far_displaced(self, alpha):
        # exp of log-moduli of size ~|alpha|^2 log|alpha| amplifies the
        # ulp-level difference between math.lgamma and gammaln
        n_max = minimum_coherent_cutoff(alpha, tol=1e-12, margin=8)
        got = coherent_state(alpha, n_max, tol=1e-12)
        assert np.max(np.abs(got - self.gammaln_form(alpha, n_max))) <= 1e-13


class TestPartialTranspose:
    def test_product_rule(self):
        a = random_hermitian(3)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = FockOperator(np.kron(a, b), 2, 2, PHYSICAL)
        assert np.allclose(partial_transpose(op).matrix, np.kron(a, b.T))

    def test_involution(self):
        m = random_hermitian(9)
        op = FockOperator(m, 2, 2, PHYSICAL)
        assert np.allclose(partial_transpose(partial_transpose(op)).matrix, m)

    def test_bell_spectrum(self):
        # (|00> + |11>)(<00| + <11|)/2 on two levels
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        op = FockOperator(np.outer(v, v), 1, 2, PHYSICAL)
        w = np.linalg.eigvalsh(partial_transpose(op).matrix)
        assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_wrong_basis_rejected(self):
        op = FockOperator(np.eye(9), 2, 2, NORMAL)
        with pytest.raises(WrongBasisTag):
            partial_transpose(op)

    def test_preserves_trace_and_hermiticity_exactly(self):
        m = random_hermitian(16)
        op = FockOperator(m, 3, 2, PHYSICAL)
        pt = partial_transpose(op).matrix
        assert np.trace(pt) == np.trace(m)  # index permutation only
        assert np.array_equal(pt, pt.conj().T)


class TestHermitianBasis:
    def test_n0(self):
        basis = hermitian_basis(0)
        assert len(basis) == 1
        assert basis.elements[0][0, 0] == pytest.approx(1.0)

    def test_element0_identity(self):
        basis = hermitian_basis(3)
        assert np.allclose(basis.elements[0], np.eye(4) / 2.0)

    @pytest.mark.parametrize("n_max", [1, 2, 4])
    def test_orthonormal(self, n_max):
        basis = hermitian_basis(n_max)
        d2 = (n_max + 1) ** 2
        assert len(basis) == d2
        gram = np.array(
            [[np.trace(a @ b).real for b in basis.elements] for a in basis.elements]
        )
        assert np.allclose(gram, np.eye(d2), atol=1e-12)

    def test_completeness_roundtrip(self):
        basis = hermitian_basis(4)
        m = random_hermitian(5)
        coeffs = basis.expand(m)
        assert np.max(np.abs(basis.reconstruct(coeffs) - m)) < 1e-12


class TestEig:
    def test_identity(self):
        w, _ = eig_hermitian(identity_matrix(4))
        assert np.allclose(w, 1.0)

    def test_sorted(self):
        w, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_spectral_identity(self):
        m = random_hermitian(50)
        w, v = eig_hermitian(m)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-9
        for i in (0, 24, 49):
            res = np.linalg.norm(m @ v[:, i] - w[i] * v[:, i])
            assert res <= 1e-9 * np.linalg.norm(m, 2) + 1e-12

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_trace_matches_eigensum(self):
        for d in (3, 8, 17):
            m = random_hermitian(d, scale=2.0)
            w, _ = eig_hermitian(m)
            assert abs(np.sum(w) - np.trace(m).real) <= 1e-9 * max(
                1.0, abs(np.trace(m).real)
            )


def random_product_mixture(n_max, n_terms, basis_tag=PHYSICAL):
    d = n_max + 1
    weights = rng.dirichlet(np.ones(n_terms))
    m = np.zeros((d * d, d * d), dtype=complex)
    for w in weights:
        u = random_state_vector(d)
        v = random_state_vector(d)
        uv = np.kron(u, v)
        m += w * np.outer(uv, uv.conj())
    return TwoModeState(m, n_max, basis_tag)


class TestLogNegativity:
    def test_product_state_zero(self):
        u = random_state_vector(4)
        v = random_state_vector(4)
        state = TwoModeState.from_pure(np.kron(u, v), 3, PHYSICAL)
        assert log_negativity(state) == 0.0

    def test_bell_log2(self):
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        state = TwoModeState.from_pure(v, 1, PHYSICAL)
        assert log_negativity(state) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_convexity_spot_check(self):
        for _ in range(5):
            a = random_product_mixture(2, 2)
            v = random_state_vector(9)
            b = TwoModeState.from_pure(v, 2, PHYSICAL)
            mix = TwoModeState(0.5 * a.matrix + 0.5 * b.matrix, 2, PHYSICAL)
            assert log_negativity(mix) <= max(log_negativity(a), log_negativity(b)) + 1e-12

    def test_separable_mixtures_stay_zero(self):
        for _ in range(20):
            state = random_product_mixture(3, rng.integers(1, 6))
            assert log_negativity(state) <= 1e-9

    def test_wrong_basis_rejected(self):
        state = random_product_mixture(2, 2, basis_tag=NORMAL)
        with pytest.raises(WrongBasisTag):
            log_negativity(state)
