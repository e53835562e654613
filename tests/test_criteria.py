import math

import numpy as np
import pytest

from oscwit.criteria import (
    FamilyState,
    MomentTable,
    abiuso_margin,
    duan_detects,
    duan_margin,
    family_state,
    hillery_zubairy_detects,
    moments,
    zhang_detects,
)
from oscwit.errors import (
    DimensionMismatch,
    NonzeroFirstMoments,
    NormalizationError,
    PsiZeroUnit,
    WrongBasisTag,
)
from oscwit.fock import NORMAL, PHYSICAL, TwoModeState, coherent_state, log_negativity
from oscwit.protocol import classical_bound, max_score, score_state
from oracles import (
    abiuso_family_margin_closed_form,
    duan_family_margin_closed_form,
    family_moments_closed_form,
    mean_n,
    mean_n_sq,
)

rng = np.random.default_rng(11)


def vacuum_state(n_max=4):
    d = n_max + 1
    v = np.zeros(d * d)
    v[0] = 1.0
    return TwoModeState.from_pure(v, n_max, PHYSICAL)


def random_psi(n_levels):
    v = rng.normal(size=n_levels) + 1j * rng.normal(size=n_levels)
    v[0] *= 0.3  # keep weight off the vacuum
    return v / np.linalg.norm(v)


class TestFamilyState:
    def test_binomial_coefficients(self):
        psi = np.zeros(4)
        psi[3] = 1.0
        fs = family_state(psi, K=3, theta=math.pi / 4, n_max=5)
        d = 6
        vec = np.zeros(d * d, dtype=complex)
        for j in range(4):
            vec[(3 - j) * d + j] = (
                math.sqrt(math.comb(3, j)) * 2.0 ** -1.5
            )
        got = fs.state_physical.matrix
        assert np.max(np.abs(got - np.outer(vec, vec.conj()))) < 1e-10

    def test_vacuum_only_rejected(self):
        with pytest.raises(PsiZeroUnit):
            family_state([1.0, 0.0], K=3, theta=0.4, n_max=3)

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            family_state([0.5, 0.5], K=3, theta=0.4, n_max=3)

    def test_support_budget(self):
        with pytest.raises(DimensionMismatch):
            family_state([0.0, 1.0], K=3, theta=0.4, n_max=2,
                         support_mode="multiples")

    def test_entangled_for_interior_angles(self):
        psi = random_psi(3)
        for theta in (0.3, math.pi / 4, 1.2):
            fs = family_state(psi, K=3, theta=theta, n_max=6)
            assert log_negativity(fs.state_physical) > 0.01

    def test_support_modes(self):
        psi = np.array([0.6, 0.8])
        fs_l = family_state(psi, K=3, theta=0.5, n_max=4, support_mode="levels")
        fs_m = family_state(psi, K=3, theta=0.5, n_max=4, support_mode="multiples")
        assert mean_n(fs_l) == pytest.approx(0.64)
        assert mean_n(fs_m) == pytest.approx(3 * 0.64)
        # both placements are separable across the normal-mode split and
        # entangled across the physical one
        assert log_negativity(fs_m.state_physical) > 0.0


class TestMoments:
    def test_vacuum_all_zero(self):
        m = moments(vacuum_state())
        for name in ("a1", "a2", "a1_sq", "a2_sq", "a1_a2", "n1", "n2",
                     "a1d_a2", "n1_n2"):
            assert abs(getattr(m, name)) < 1e-12

    def test_wrong_basis(self):
        d = 3
        v = np.zeros(d * d)
        v[0] = 1.0
        with pytest.raises(WrongBasisTag):
            moments(TwoModeState.from_pure(v, d - 1, NORMAL))

    @pytest.mark.parametrize("trial", range(6))
    def test_family_closed_forms(self, trial):
        # closed forms need support spacing >= 3: use the multiples placement
        psi = random_psi(int(rng.integers(2, 4)))
        theta = float(rng.uniform(0.1, math.pi / 2 - 0.1))
        fs = family_state(psi, K=3, theta=theta, n_max=9,
                          support_mode="multiples")
        direct = moments(fs.state_physical)
        closed = family_moments_closed_form(fs)
        for name in ("a1", "a2", "a1_sq", "a2_sq", "a1_a2", "n1", "n2",
                     "a1d_a2", "n1_n2"):
            assert abs(getattr(direct, name) - getattr(closed, name)) < 1e-9, name

    def test_family_pair_moment_vanishes(self):
        fs = family_state(random_psi(3), K=3, theta=0.7, n_max=8,
                          support_mode="multiples")
        assert abs(moments(fs.state_physical).a1_a2) < 1e-10

    def test_dense_placement_has_first_moments(self):
        # adjacent occupied levels break the zero-first-moment structure
        fs = family_state(random_psi(3), K=3, theta=0.7, n_max=8)
        assert abs(moments(fs.state_physical).a1) > 1e-3


class TestDuan:
    def test_vacuum_saturates(self):
        m = moments(vacuum_state())
        assert duan_margin(m, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_family_margin_closed_form(self):
        fs = family_state(random_psi(3), K=3, theta=0.6, n_max=8,
                          support_mode="multiples")
        m = moments(fs.state_physical)
        for c in (0.5, 1.0, -1.3, 2.0):
            assert duan_margin(m, c) == pytest.approx(
                duan_family_margin_closed_form(fs, c), abs=1e-9
            )

    def test_family_never_detected(self):
        for _ in range(5):
            psi = random_psi(int(rng.integers(2, 5)))
            theta = float(rng.uniform(0.1, math.pi / 2 - 0.1))
            fs = family_state(psi, K=3, theta=theta, n_max=3 * (len(psi) - 1) + 2,
                              support_mode="multiples")
            m = moments(fs.state_physical)
            detected, best, margins = duan_detects(m)
            assert not detected
            floor = math.sin(2 * theta) * mean_n(fs)
            assert best >= floor - 1e-9

    def test_two_mode_squeezed_is_detected(self):
        # sanity direction check: the criterion does flag EPR-type states
        lam = 0.6
        n_max = 14
        d = n_max + 1
        vec = np.zeros(d * d)
        for k in range(n_max + 1):
            vec[k * d + k] = lam ** k
        vec /= np.linalg.norm(vec)
        state = TwoModeState.from_pure(vec, n_max, PHYSICAL)
        detected, best, _ = duan_detects(moments(state))
        assert detected
        assert best < -0.5


class TestZhang:
    def test_vacuum_not_detected(self):
        res = zhang_detects(moments(vacuum_state()))
        assert not res.detected

    def test_requires_zero_first_moments(self):
        n_max = 12
        alpha = coherent_state(0.8, n_max)
        vac = np.zeros(n_max + 1)
        vac[0] = 1.0
        state = TwoModeState.from_pure(np.kron(alpha, vac), n_max, PHYSICAL)
        with pytest.raises(NonzeroFirstMoments):
            zhang_detects(moments(state))

    def test_family_exchange_equality(self):
        for _ in range(5):
            fs = family_state(random_psi(3), K=3,
                              theta=float(rng.uniform(0.2, 1.3)), n_max=8,
                              support_mode="multiples")
            res = zhang_detects(moments(fs.state_physical))
            assert not res.detected
            assert res.slack_exchange == pytest.approx(0.0, abs=1e-9)
            assert res.slack_pair >= -1e-12


class TestHilleryZubairy:
    def test_vacuum_not_detected(self):
        assert not hillery_zubairy_detects(moments(vacuum_state())).detected

    def test_spread_family_escapes(self):
        # equal weight on levels 0 and 3: variance 2.25 >= mean 1.5
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        fs = family_state(psi, K=3, theta=0.8, n_max=8)  # levels {0, 3}
        res = hillery_zubairy_detects(moments(fs.state_physical))
        assert not res.detected

    def test_single_level_family_detected(self):
        psi = np.zeros(4)
        psi[3] = 1.0
        fs = family_state(psi, K=3, theta=0.8, n_max=8)
        res = hillery_zubairy_detects(moments(fs.state_physical))
        assert res.detected

    @pytest.mark.parametrize("trial", range(8))
    def test_detection_iff_variance_below_mean(self, trial):
        psi = random_psi(int(rng.integers(2, 4)))
        fs = family_state(psi, K=3, theta=float(rng.uniform(0.2, 1.3)),
                          n_max=9, support_mode="multiples")
        res = hillery_zubairy_detects(moments(fs.state_physical))
        variance = mean_n_sq(fs) - mean_n(fs) ** 2
        if variance >= mean_n(fs) + 1e-9:
            assert not res.detected
        elif variance <= mean_n(fs) - 1e-9:
            assert res.detected


class TestAbiuso:
    def test_vacuum_value(self):
        # kappa = sigma = 1: (3 - 2 sqrt 2 + 2) + 1 - 1/2
        margin = abiuso_margin(vacuum_state(), 1.0, 1.0)
        expect = (3.0 - 2.0 * math.sqrt(2.0) + 2.0) + 0.0 - 0.5
        assert margin == pytest.approx(expect, abs=1e-12)

    def test_family_closed_form_at_unit_kappa(self):
        fs = family_state(random_psi(3), K=3, theta=0.9, n_max=8,
                          support_mode="multiples")
        got = abiuso_margin(fs, 1.0, 1.4)
        coef = 1.0
        expect = (
            coef * ((3.0 - 2.0 * math.sqrt(2.0)) * 1.4 ** 2 + 2.0)
            + mean_n(fs)
            - coef * 1.4 ** 2 / (1.0 + 1.4 ** 2)
        )
        assert got == pytest.approx(expect, abs=1e-9)

    def test_general_kappa_closed_form(self):
        fs = family_state(random_psi(4), K=3, theta=0.5, n_max=9,
                          support_mode="multiples")
        for kappa in (0.6, 1.0, 1.8):
            assert abiuso_margin(fs, kappa, 0.9) == pytest.approx(
                abiuso_family_margin_closed_form(fs, kappa, 0.9), abs=1e-9
            )

    def test_small_source_spread_limit(self):
        fs = family_state(random_psi(3), K=3, theta=0.7, n_max=8,
                          support_mode="multiples")
        assert abiuso_margin(fs, 1.0, 1e-4) > 1.9

    def test_family_grid_positive(self):
        fs = family_state(random_psi(3), K=3, theta=1.0, n_max=8,
                          support_mode="multiples")
        for kappa in np.logspace(-0.5, 0.5, 5):
            for sigma in (0.3, 1.0, 3.0):
                assert abiuso_margin(fs, float(kappa), float(sigma)) > 0.0


class TestHeadlineSeparation:
    def test_maximal_eigenstate_family(self):
        # protocol-violating family state that evades every moment test
        n_max = 8
        p_max, vec = max_score(3, n_max)
        assert p_max > float(classical_bound(3))
        fs = family_state(vec, K=3, theta=math.pi / 4, n_max=n_max)
        assert score_state(fs.state_normal, 3) == pytest.approx(p_max, abs=1e-10)
        m = moments(fs.state_physical)
        assert not duan_detects(m)[0]
        assert not zhang_detects(m).detected
        for kappa in (0.7, 1.0, 1.5):
            assert abiuso_margin(m, kappa, 1.0) > 0.0
        assert log_negativity(fs.state_physical) > 0.3
