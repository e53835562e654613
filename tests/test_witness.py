import math

import numpy as np
import pytest
from scipy.special import erf

from oscwit.errors import EvenK, SearchFailed
from oscwit.fock import (
    NORMAL,
    PHYSICAL,
    FockOperator,
    TwoModeState,
    coherent_state,
    identity_matrix,
)
from oscwit.protocol import classical_bound, max_score, score_state
from oscwit.witness import (
    _probe_state_expectation,
    coherent_expectation,
    coherent_witness_erf,
    nondecomposability_check,
    optimality_probe,
    witness_matrix,
)
from oracles import erfinv_probe_hint, witness_expectation

rng = np.random.default_rng(23)


def random_separable_physical(n_max, support, n_terms=4):
    """Mixture of product states supported on levels <= support."""
    d = n_max + 1
    weights = rng.dirichlet(np.ones(n_terms))
    m = np.zeros((d * d, d * d), dtype=complex)
    for w in weights:
        u = np.zeros(d, dtype=complex)
        v = np.zeros(d, dtype=complex)
        u[: support + 1] = rng.normal(size=support + 1) + 1j * rng.normal(size=support + 1)
        v[: support + 1] = rng.normal(size=support + 1) + 1j * rng.normal(size=support + 1)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        uv = np.kron(u, v)
        m += w * np.outer(uv, uv.conj())
    return TwoModeState(m, n_max, PHYSICAL)


class TestWitnessMatrix:
    def test_even_rejected(self):
        with pytest.raises(EvenK):
            witness_matrix(4, 5)

    def test_vacuum_expectation(self):
        w = witness_matrix(3, 5)
        assert w.matrix[0, 0].real == pytest.approx(2.0 / 3.0 - 0.5, abs=1e-12)

    def test_expectation_score_identity(self):
        n_max = 5
        d = (n_max + 1) ** 2
        for _ in range(6):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = m @ m.conj().T
            rho = TwoModeState(m / np.trace(m).real, n_max, NORMAL)
            lhs = float(np.trace(witness_matrix(3, n_max).matrix @ rho.matrix).real)
            rhs = float(classical_bound(3)) - score_state(rho, 3)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert lhs == pytest.approx(witness_expectation(3, rho), abs=1e-10)

    def test_max_eigenstate_is_detected(self):
        n_max = 30
        p, vec = max_score(3, n_max)
        d = n_max + 1
        vac = np.zeros(d)
        vac[0] = 1.0
        rho = TwoModeState.from_pure(np.kron(vec, vac), n_max, NORMAL)
        expectation = witness_expectation(3, rho)
        assert expectation == pytest.approx(2.0 / 3.0 - p, abs=1e-10)
        assert expectation < -0.03

    def test_separable_states_never_trigger(self):
        # support headroom keeps the rotation exact
        for _ in range(50):
            rho = random_separable_physical(n_max=6, support=3)
            assert witness_expectation(3, rho) >= -1e-9


class TestCoherentExpectation:
    def test_r_zero_is_vacuum_value(self):
        assert coherent_expectation(0.0) == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert coherent_witness_erf(0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_erf_closed_form_value(self):
        # (1 - 2 erf(1) + erf(2))/6
        assert coherent_witness_erf(1.0) == pytest.approx(0.0516534465, abs=1e-9)
        assert coherent_expectation(1.0) == pytest.approx(0.0516534465, abs=1e-8)

    @pytest.mark.parametrize("r", [0.0, 0.05, 0.5, 0.75, 1.0, 2.0, 3.5, 20.0])
    def test_math_erf_matches_scipy_form(self, r):
        ref = (1.0 - 2.0 * erf(r) + erf(2.0 * r)) / 6.0
        assert abs(coherent_witness_erf(r) - ref) <= 1e-15

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_numeric_matches_erf(self, r):
        assert coherent_expectation(r) == pytest.approx(
            coherent_witness_erf(r), abs=1e-8
        )

    def test_large_r_positive_and_bounded(self):
        # witness expectation on coherent probes is positive but vanishes
        # like (1 - erf r)/3 at large displacement
        val = coherent_expectation(3.0)
        assert 0.0 < val <= (1.0 - erf(3.0)) / 3.0 + 1e-12
        assert val == pytest.approx(7.36e-6, rel=1e-2)

    @pytest.mark.parametrize("r", [0.3, 0.8, 1.5, 2.5])
    def test_upper_bound_chain(self, r):
        # (1 - 2 erf r + erf 2r)/6 = (1 - erf r)/6 + (erf 2r - erf r)/6 is
        # bounded by (1 - erf r)/3, with equality approached at large r
        assert coherent_expectation(r) <= (1.0 - erf(r)) / 3.0 + 1e-10
        assert coherent_expectation(r) >= (1.0 - erf(r)) / 6.0 - 1e-10


class TestOptimalityProbe:
    def test_identity_probe_verified(self):
        p = identity_matrix(40, modes=2, basis_tag=NORMAL)
        r, value = optimality_probe(p, epsilon=0.1)
        assert value < 0.0
        # the probe state is separable, so no improvement of W survives
        assert (1.0 + 0.1) * coherent_expectation(r) - 0.1 < 0.0

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.3])
    def test_single_mode_probe_is_the_plus_mode_block(self, epsilon):
        # a single-mode P is read with the - mode in vacuum, exactly as the
        # normal-basis two-mode P through its (i, 0) levels
        single = optimality_probe(identity_matrix(40), epsilon)
        two_mode = optimality_probe(identity_matrix(40, modes=2, basis_tag=NORMAL), epsilon)
        assert single == two_mode

    def test_zero_probe_rejected(self):
        zero = FockOperator(np.zeros((25, 25)), 4, 2, NORMAL)
        with pytest.raises(ValueError):
            optimality_probe(zero, epsilon=0.1)

    def test_monotone_in_epsilon(self):
        p = identity_matrix(40, modes=2, basis_tag=NORMAL)
        r_small, _ = optimality_probe(p, epsilon=0.05)
        r_large, _ = optimality_probe(p, epsilon=0.3)
        assert r_large <= r_small

    def test_truncation_guard(self):
        p = identity_matrix(3, modes=2, basis_tag=NORMAL)
        with pytest.raises(SearchFailed):
            optimality_probe(p, epsilon=1e-6)

    def test_physical_basis_probe(self):
        p = identity_matrix(40, modes=2, basis_tag=PHYSICAL)
        r, value = optimality_probe(p, epsilon=0.2)
        assert value < 0.0

    @pytest.mark.parametrize("tag", [NORMAL, PHYSICAL])
    @pytest.mark.parametrize("r", [0.05, 0.4, 1.1])
    def test_probe_expectation_matches_dense(self, tag, r):
        n_max = 20
        d = n_max + 1
        gen = np.random.default_rng(5)
        m = gen.normal(size=(d * d, d * d)) + 1j * gen.normal(size=(d * d, d * d))
        p = FockOperator((m + m.conj().T) / 2.0, n_max, 2, tag)
        if tag == NORMAL:
            vac = np.zeros(d)
            vac[0] = 1.0
            vec = np.kron(coherent_state(-math.sqrt(2.0) * r, n_max), vac)
        else:
            single = coherent_state(-r, n_max)
            vec = np.kron(single, single)
        dense = np.vdot(vec, p.matrix @ vec).real
        assert _probe_state_expectation(p, r, 1e-10) == pytest.approx(dense, rel=1e-12, abs=1e-14)

    def test_erfinv_hint_bounds_search(self):
        # beyond the hinted displacement the witness expectation must fall
        # below eps <P> / (1+eps); for P = identity the probe lands near it
        hint = erfinv_probe_hint(1.0, 0.1)
        p = identity_matrix(40, modes=2, basis_tag=NORMAL)
        r, _ = optimality_probe(p, epsilon=0.1, r_step=0.01)
        assert hint <= r <= hint + 0.5


class TestNondecomposability:
    def test_k3_level2_converged_value(self):
        # the projected minimum is positive once the parent truncation is
        # large enough for exact matrix elements (parent >= 2 * level);
        # smaller parents produce spurious negative eigenvalues
        assert nondecomposability_check(3, 2) == pytest.approx(
            0.060881, abs=1e-5
        )

    def test_sign_stable_once_elements_exact(self):
        vals = [nondecomposability_check(3, 2, n_max) for n_max in range(4, 9)]
        assert np.allclose(vals, 0.060881, atol=1e-5)

    def test_projected_minima_decrease_toward_zero(self):
        vals = [nondecomposability_check(3, lvl, 2 * lvl) for lvl in (2, 3, 5, 6)]
        assert all(v > 0 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals == pytest.approx([0.060881, 0.016631, 0.003784, 0.000777],
                                     abs=1e-5)

    def test_small_parent_artifact(self):
        # projecting at the parent's own cutoff leaves incomplete rotation
        # blocks and manufactures negativity
        assert nondecomposability_check(3, 3, n_max=3) < 0.0
        assert nondecomposability_check(3, 3, n_max=6) > 0.0

    def test_level_zero_projection_positive(self):
        val = nondecomposability_check(3, 0, n_max=4)
        assert val == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_k5_recorded(self):
        val = nondecomposability_check(5, 3)
        assert np.isfinite(val)
