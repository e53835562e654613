"""Acceptance suite: one test per criterion, one printed line per result.

Four sub-clauses are numerically unattainable as stated and are kept as
strict expected failures with the faithful assertion in place; each has a
green companion exercising the intended physics at attainable parameters.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from oscwit.classical import simulate_classical_score
from oscwit.cli import main as cli_main
from oscwit.criteria import (
    abiuso_margin,
    duan_detects,
    family_state,
    hillery_zubairy_detects,
    moments,
    zhang_detects,
)
from oscwit.errors import InfeasibleTarget
from oscwit.fock import (
    NORMAL,
    PHYSICAL,
    TwoModeState,
    log_negativity,
)
from oscwit.modes import normal_mode_params, transform_state
from oscwit.protocol import (
    ProtocolSpec,
    classical_bound,
    max_score,
    pos_x_matrix,
    score_state,
)
from oscwit.sdp import build_problem, monotonicity_violations, solve, sweep
from oscwit.witness import (
    coherent_expectation,
    coherent_witness_erf,
    nondecomposability_check,
)
from oracles import (
    bundled_distributions,
    embed_state,
    family_moments_closed_form,
    hermite_overlap_quadrature,
    mean_n,
    mean_n_sq,
)

rng = np.random.default_rng(2024)


def report(num, text):
    print(f"PASS criterion {num}: {text}")


class TestCriterion1:
    def test_classical_bounds_exact(self):
        assert classical_bound(3) == Fraction(2, 3)
        assert classical_bound(4) == Fraction(1, 2)
        assert classical_bound(5) == Fraction(3, 5)
        report(1, "classical bounds 2/3, 1/2, 3/5 exact")


class TestCriterion2:
    def test_no_false_positives(self):
        spec = normal_mode_params(1.2, 0.9, 1.1, 0.8, 0.4)
        dists = bundled_distributions()
        assert len(dists) >= 5
        worst = -np.inf
        for K in (3, 5):
            bound = float(classical_bound(K))
            protocol = ProtocolSpec(K)
            for dist in dists:
                for seed in range(50):
                    est = simulate_classical_score(dist, spec, protocol,
                                                   100000, seed)
                    excess = est.p_value - bound - 4.0 * est.stderr
                    worst = max(worst, excess)
                    assert excess <= 0.0, (dist.descriptor, K, seed)
        report(2, f"600 runs stay below bound (worst margin {worst:+.2e})")


class TestCriterion3:
    def test_nondecreasing(self):
        vals = [max_score(3, n)[0] for n in range(16)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        report(3, "truncated quantum maximum nondecreasing in n_max")

    @pytest.mark.xfail(
        strict=True,
        reason="unattainable as stated: the truncated maximum at n_max=30 is "
               "0.697334774, outside [0.705, 0.715]; convergence to the "
               "~0.7094 limit goes like n^(-1/2) and enters the bracket "
               "only around n_max ~ 500",
    )
    def test_value_bracket_at_30(self):
        p, _ = max_score(3, 30)
        assert 0.705 <= p <= 0.715

    @pytest.mark.xfail(
        strict=True,
        reason="unattainable as stated: the maximum changes at every multiple of K=3 "
               "(jumps at 3, 6, 9, 12, 15), not only every 2K; the jumps "
               "at 9 and 15 are small (8e-5, 7e-6) but real",
    )
    def test_plateaus_of_width_six(self):
        vals = [max_score(3, n)[0] for n in range(16)]
        jumps = {n for n in range(1, 16) if vals[n] - vals[n - 1] > 1e-12}
        assert jumps <= {3, 9, 15}

    def test_true_structure_companion(self):
        # frozen eigensolve values documenting the actual behavior
        vals = [max_score(3, n)[0] for n in range(16)]
        jumps = {n for n in range(1, 16) if vals[n] - vals[n - 1] > 1e-12}
        assert jumps == {3, 6, 9, 12, 15}
        p30, _ = max_score(3, 30)
        assert p30 == pytest.approx(0.697334774130, abs=1e-9)
        p60, _ = max_score(3, 60)
        assert 2 / 3 < p30 < p60 < 0.7094
        report(3, "companion: value 0.6973347741 at n_max=30, jumps at "
                  "multiples of 3, increasing toward ~0.7094")


class TestCriterion4:
    def test_pos_matrix_against_quadrature(self):
        n_max = 30
        p = pos_x_matrix(n_max).matrix.real
        worst = 0.0
        for m in range(n_max + 1):
            for n in range(m, n_max + 1):
                q = hermite_overlap_quadrature(m, n)
                worst = max(worst, abs(p[m, n] - q))
                assert abs(p[m, n] - q) < 1e-10, (m, n)
        report(4, f"closed form matches quadrature for all m,n <= 30 "
                  f"(worst {worst:.1e})")


def random_separable_physical(n_max, support):
    d = n_max + 1
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 6))))
    m = np.zeros((d * d, d * d), dtype=complex)
    for w in weights:
        u = np.zeros(d, dtype=complex)
        v = np.zeros(d, dtype=complex)
        u[: support + 1] = rng.normal(size=support + 1) + 1j * rng.normal(
            size=support + 1)
        v[: support + 1] = rng.normal(size=support + 1) + 1j * rng.normal(
            size=support + 1)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        uv = np.kron(u, v)
        m += w * np.outer(uv, uv.conj())
    return TwoModeState(m, n_max, PHYSICAL)


class TestCriterion5:
    def test_separable_states_respect_bound(self):
        bound = float(classical_bound(3))
        worst = -np.inf
        for _ in range(200):
            rho = random_separable_physical(5, 5)
            score = score_state(transform_state(rho, math.pi / 4, NORMAL), 3)
            worst = max(worst, score - bound)
            assert score <= bound + 1e-9
        report(5, f"200 separable states at n_max=5 stay below 2/3 "
                  f"(worst margin {worst:+.3e})")

    def test_nonvacuous_companion(self):
        # at n_max=8 the protocol operator does exceed 2/3, so staying
        # below the bound is informative; support headroom keeps the
        # basis change exact
        p_max, _ = max_score(3, 8)
        assert p_max > 2 / 3
        for _ in range(100):
            rho = random_separable_physical(8, 4)
            score = score_state(transform_state(rho, math.pi / 4, NORMAL), 3)
            assert score <= 2 / 3 + 1e-9
        report(5, "companion: bound still holds where violation is possible")


class TestCriterion6:
    def test_theta_zero_column(self):
        for p in (0.5, 0.55, 0.6, 0.66):
            sol = solve(build_problem(3, 0.0, p, 3), tol=1e-6)
            assert sol.s_n <= sol.dual_gap + 1e-12
        report(6, "theta=0 column never certifies")

    @pytest.mark.xfail(
        strict=True,
        raises=InfeasibleTarget,
        reason="unattainable as stated: p_target=0.68 exceeds the largest obtainable "
               "score 0.662868 at n_max=3 (and 0.5 at n_max=2); the first "
               "truncation admitting 0.68 is n_max=6, so the instance as "
               "stated has an empty feasible set",
    )
    def test_certification_at_068_n3(self):
        sol = solve(build_problem(3, math.pi / 4, 0.68, 3), tol=1e-6)
        assert sol.s_n - sol.dual_gap > 0

    def test_certification_companion_n3(self):
        # nearest attainable analogue at n_max=3 (frozen, cross-checked
        # against an independent conic solver during development)
        sol = solve(build_problem(3, math.pi / 4, 0.66, 3), tol=1e-6)
        assert sol.certified
        assert sol.s_n - sol.dual_gap > 0.6
        assert sol.s_n == pytest.approx(0.6617, abs=1e-3)
        report(6, f"companion: certified s_n = {sol.s_n:.4f} at "
                  f"(theta=pi/4, p=0.66, n=3)")

    def test_certification_companion_068_at_n6(self):
        # the intended instance at the first truncation where it is
        # feasible, via the splitting engine and its certified bound
        sol = solve(build_problem(3, math.pi / 4, 0.68, 6), tol=1e-4,
                    engine="first-order", max_iters=600)
        assert sol.s_n_lb > 0.5
        report(6, f"companion: certified s_n >= {sol.s_n_lb:.4f} at "
                  f"(theta=pi/4, p=0.68, n=6)")

    def test_half_target(self):
        sol = solve(build_problem(3, math.pi / 4, 0.5, 3), tol=1e-6)
        assert sol.s_n <= sol.dual_gap + 1e-12
        report(6, "p=1/2 stays separable at theta=pi/4")

    def test_monotonicity_grid(self):
        # grid keeps clear of the spectral-edge face, where minimizers are
        # forced product-in-normal-mode states and the heat-map
        # monotonicity claims do not apply
        thetas = [i * math.pi / 16 for i in range(5)]
        ps = [0.5 + 0.15 * i / 4 for i in range(5)]
        cells = sweep(thetas, ps, 3, 3, tol=1e-6)
        assert all(sol.status in ("optimal", "max-iter") for _, _, sol in cells)
        assert monotonicity_violations(cells) == []
        certified = [sol for _, _, sol in cells if sol.s_n - sol.dual_gap > 1e-6]
        assert certified, "no grid cell certified entanglement"
        for theta, _, sol in cells:
            if abs(theta) < 1e-12:
                assert sol.s_n <= sol.dual_gap + 1e-12
        report(6, f"5x5 grid monotone along both axes; "
                  f"{len(certified)} cells certify")


class TestCriterion7:
    def _random_family(self):
        n_coeff = int(rng.integers(2, 4))
        psi = rng.normal(size=n_coeff) + 1j * rng.normal(size=n_coeff)
        psi[0] *= 0.4
        psi /= np.linalg.norm(psi)
        theta = float(rng.uniform(0.15, math.pi / 2 - 0.15))
        return family_state(psi, K=3, theta=theta, n_max=3 * (n_coeff - 1) + 3,
                            support_mode="multiples")

    def test_family_grid_evasion(self):
        c_mags = np.logspace(-1, 1, 9)
        c_grid = np.concatenate([c_mags, -c_mags])
        checked = 0
        for _ in range(20):
            fs = self._random_family()
            m = moments(fs.state_physical)
            closed = family_moments_closed_form(fs)
            for name in ("a1", "a2", "a1_sq", "a2_sq", "a1_a2", "n1", "n2",
                         "a1d_a2", "n1_n2"):
                assert abs(getattr(m, name) - getattr(closed, name)) < 1e-9
            detected, best, _ = duan_detects(m, c_grid)
            assert not detected and best > 0.0
            z = zhang_detects(m)
            assert not z.detected
            assert abs(z.slack_exchange) <= 1e-9
            for kappa in (0.5, 1.0, 2.0):
                for sigma in (0.5, 1.0, 2.0):
                    assert abiuso_margin(m, kappa, sigma) > 0.0
            hz = hillery_zubairy_detects(m)
            variance = mean_n_sq(fs) - mean_n(fs) ** 2
            assert hz.detected == (variance < mean_n(fs) - 1e-12)
            checked += 1
        assert checked == 20
        report(7, "20 family states evade duan/zhang/abiuso; "
                  "hz matches the variance-vs-mean condition; closed forms "
                  "agree with traces to 1e-9")


class TestCriterion8:
    def test_erf_closed_form(self):
        worst = 0.0
        for r in (0.0, 0.5, 1.0, 2.0):
            got = coherent_expectation(r)  # automatic truncation selection
            want = coherent_witness_erf(r)
            worst = max(worst, abs(got - want))
            assert abs(got - want) < 1e-8
        assert coherent_expectation(0.0) == pytest.approx(1 / 6, abs=1e-12)
        report(8, f"coherent witness expectation matches erf form "
                  f"(worst {worst:.1e})")

    @pytest.mark.xfail(
        strict=True,
        reason="unattainable as stated: with exact matrix elements the level-2 "
               "projection of the partial-transposed witness has minimum "
               "eigenvalue +0.060881 for every parent truncation >= 4 "
               "(and +1/6, +0.0615 at parents 2, 3); the reported "
               "negativity reproduces only as a truncation artifact when "
               "the parent cutoff equals the projection level",
    )
    def test_projected_negativity(self):
        vals = [nondecomposability_check(3, 2, n) for n in range(2, 9)]
        assert all(v < 0 for v in vals)

    def test_projection_companion(self):
        vals = {n: nondecomposability_check(3, 2, n) for n in range(2, 9)}
        assert vals[2] == pytest.approx(1 / 6, abs=1e-12)
        for n in range(4, 9):
            assert vals[n] == pytest.approx(0.060881, abs=1e-5)
        # deeper exact projections shrink toward zero but stay nonnegative
        seq = [nondecomposability_check(3, lvl, 2 * lvl) for lvl in (2, 3, 5, 6)]
        assert all(v > 0 for v in seq)
        assert seq == sorted(seq, reverse=True)
        report(8, "companion: projected minima positive and decreasing "
                  "(0.0609, 0.0166, 0.0038, 0.0008)")


class TestCriterion9:
    def test_reconstructed_minimizer(self):
        prob = build_problem(3, math.pi / 4, 0.64, 3)
        sol = solve(prob, tol=1e-7)
        rho = sol.rho.matrix.real
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert abs(prob.score_of(rho) - 0.64) < 1e-7
        assert np.linalg.eigvalsh((rho + rho.T) / 2)[0] >= -1e-8
        state = TwoModeState(rho.astype(complex), 3, NORMAL, validate=False)
        physical = transform_state(embed_state(state, 6), math.pi / 4, PHYSICAL)
        sn_direct = log_negativity(
            TwoModeState(physical.matrix, 6, PHYSICAL, validate=False)
        )
        assert sn_direct >= sol.s_n - sol.dual_gap - 1e-9
        report(9, f"minimizer feasible to 1e-7 and log-negativity "
                  f"{sn_direct:.6f} >= certified {sol.s_n - sol.dual_gap:.6f}")


class TestCriterion10:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "K": 3, "n_max": 2, "theta_grid": [0.0, math.pi / 4],
            "p_grid": [0.5], "tol": 1e-6,
        }))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["certify", "--config", str(cfg),
                             "--out", str(out)]) == 0
            assert cli_main(["simulate", "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("certify.csv", "certify_manifest.json",
                      "simulate.json", "simulate_manifest.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname
        report(10, "CSV and JSON outputs byte-identical across reruns")
