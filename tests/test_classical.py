import math

import numpy as np
import pytest

from oscwit.classical import (
    bimodal,
    gaussian_cloud,
    point_mass,
    ring,
    simulate_classical_score,
    uniform_box,
)
from oscwit.modes import normal_mode_params
from oscwit.protocol import ProtocolSpec, classical_bound
from oscwit.protocol import pos_x_matrix
from oracles import (
    UnstableStep,
    bundled_distributions,
    counts_consistent,
    energy,
    evolve_exact,
    hermite_overlap_quadrature,
    integrate_trajectory,
    n_rounds,
    slot_counts_by_mask,
)


SPEC_SYMMETRIC = normal_mode_params(1.0, 1.0, 1.0, 1.0, 0.0, theta=math.pi / 4)


class TestSimulate:
    def test_point_mass_slot_pattern(self):
        # x1 = x2 = 1 at theta = pi/4: x+(t_k) signs are (+, -, -)
        est = simulate_classical_score(
            point_mass(1.0, 0.0, 1.0, 0.0), SPEC_SYMMETRIC, ProtocolSpec(3), 3000, seed=5
        )
        sign_pattern = []
        for pos, zero, neg in est.counts:
            assert pos == 0 or neg == 0
            assert zero == 0
            sign_pattern.append("+" if pos else "-")
        assert sign_pattern == ["+", "-", "-"]
        assert est.p_value == pytest.approx(1.0 / 3.0, abs=4 * est.stderr + 1e-12)

    def test_opposite_point_mass(self):
        est = simulate_classical_score(
            point_mass(-1.0, 0.0, -1.0, 0.0), SPEC_SYMMETRIC, ProtocolSpec(3), 3000, seed=5
        )
        assert est.p_value == pytest.approx(2.0 / 3.0, abs=4 * est.stderr + 1e-12)
        assert est.p_value <= float(classical_bound(3)) + 4 * est.stderr

    def test_symmetric_gaussian_scores_half(self):
        est = simulate_classical_score(
            gaussian_cloud(1.0), SPEC_SYMMETRIC, ProtocolSpec(3), 40000, seed=11
        )
        assert abs(est.p_value - 0.5) <= 4 * est.stderr

    def test_seed_reproducible(self):
        kwargs = dict(
            dist=ring(1.2), spec=SPEC_SYMMETRIC, protocol=ProtocolSpec(3),
            n_rounds=5000, seed=77,
        )
        a = simulate_classical_score(**kwargs)
        b = simulate_classical_score(**kwargs)
        assert a == b

    def test_counts_consistent(self):
        est = simulate_classical_score(
            bimodal(), SPEC_SYMMETRIC, ProtocolSpec(3), 2000, seed=3
        )
        assert counts_consistent(est)
        assert n_rounds(est) == 2000

    @pytest.mark.parametrize("K", [3, 5])
    def test_no_false_positives_quick(self, K):
        bound = float(classical_bound(K))
        spec = normal_mode_params(1.3, 0.8, 1.1, 0.9, 0.35)
        for dist in bundled_distributions():
            for seed in (1, 2, 3):
                est = simulate_classical_score(dist, spec, ProtocolSpec(K), 20000, seed)
                assert est.p_value <= bound + 4 * est.stderr + 1e-12, dist.descriptor

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_counts_match_one_mask_per_slot(self, K):
        # the all-zero point mass puts every round in the zero tally
        spec = normal_mode_params(1.0, 2.0, 1.0, 1.5, 0.3)
        for dist in bundled_distributions() + [point_mass(0.0, 0.0, 0.0, 0.0)]:
            for sigma in "+-":
                protocol = ProtocolSpec(K, sigma, 0.1)
                est = simulate_classical_score(dist, spec, protocol, 2000, seed=3)
                assert est.counts == slot_counts_by_mask(dist, spec, protocol, 2000, 3)

    def test_uniform_k_assignment(self):
        est = simulate_classical_score(
            uniform_box(1.0), SPEC_SYMMETRIC, ProtocolSpec(3), 30000, seed=21
        )
        slot_totals = [sum(c) for c in est.counts]
        assert sum(slot_totals) == 30000
        for tot in slot_totals:
            assert abs(tot - 10000) < 5 * math.sqrt(30000 * (1 / 3) * (2 / 3))


class TestProtocolTimes:
    def test_schedule(self):
        spec = normal_mode_params(1.0, 1.0, 2.0, 1.0, 0.0)
        proto = ProtocolSpec(3, "+", t0=0.25)
        period = spec.period("+")
        times = proto.times(spec)
        assert np.allclose(times, [(k / 3 + 0.25) * period for k in range(3)])


class TestIntegrator:
    def test_free_oscillators_return(self):
        spec = normal_mode_params(1.0, 2.0, 1.0, 0.5, 0.0)
        t1 = 2.0 * math.pi / spec.omega1
        out = integrate_trajectory(1.0, 0.0, 0.0, 0.0, spec, t1, dt=1e-4 * t1)
        assert out[0] == pytest.approx(1.0, abs=1e-6)
        assert out[1] == pytest.approx(0.0, abs=1e-6)

    def test_energy_conservation(self):
        spec = normal_mode_params(1.0, 1.5, 1.2, 0.7, 0.4)
        period = spec.period("+")
        x0 = (0.7, -0.2, -0.4, 0.5)
        e0 = energy(*x0, spec)
        out = integrate_trajectory(*x0, spec, 10 * period, dt=2e-5 * period)
        assert energy(*out, spec) == pytest.approx(e0, rel=1e-8)

    def test_matches_exact_rotation(self):
        spec = normal_mode_params(0.9, 1.4, 1.3, 0.8, 0.5)
        x0 = (0.3, 0.8, -0.6, 0.1)
        t = 2.7
        exact = evolve_exact(*x0, spec, t)
        num = integrate_trajectory(*x0, spec, t, dt=1e-4)
        assert np.allclose(np.array(num), np.array(exact, dtype=float), atol=1e-6)

    def test_quadratic_convergence(self):
        spec = normal_mode_params(1.0, 1.0, 1.1, 0.9, 0.3)
        x0 = (1.0, 0.0, 0.0, 0.5)
        t = spec.period("+")
        exact = np.array(evolve_exact(*x0, spec, t), dtype=float)
        dts = np.array([4e-3, 2e-3, 1e-3, 5e-4])
        errs = []
        for dt in dts:
            num = np.array(integrate_trajectory(*x0, spec, t, dt))
            errs.append(np.max(np.abs(num - exact)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_unstable_step_rejected(self):
        spec = normal_mode_params(1.0, 1.0, 2.0, 1.0, 0.0)
        with pytest.raises(UnstableStep):
            integrate_trajectory(1.0, 0.0, 0.0, 0.0, spec, 1.0, dt=0.2)


class TestQuadratureOracle:
    def test_diagonal(self):
        assert hermite_overlap_quadrature(0, 0) == pytest.approx(0.5, abs=1e-12)

    def test_ground_first(self):
        assert hermite_overlap_quadrature(0, 1) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-12
        )

    def test_matches_recursion(self):
        p = pos_x_matrix(3).matrix
        assert hermite_overlap_quadrature(1, 3) == pytest.approx(p[1, 3].real, abs=1e-12)
