import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscwit.sdp
from oscwit.cli import main
from oscwit.errors import NumericalFailure


def run(args):
    return main(args)


def rejection(command, values, message, number=None):
    """One case of ``TestErrors.test_invalid_value_rejected``, with an ID
    that its place in the list does not change.

    A numbered case keeps the ID it had while the IDs were list positions,
    ``<command>-values<number>-<message>``; a case without a number is
    named by its command and its keys and values.
    """
    if number is None:
        name = "-".join([command] + [f"{k}={v!r}" for k, v in values.items()])
    else:
        name = f"{command}-values{number}-{message}"
    return pytest.param(command, values, message, id=name)


class TestBounds:
    def test_table(self, tmp_path, capsys):
        assert run(["bounds", "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "bounds.csv").read_text().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in csv[1:]}
        assert rows["3"][1] == "2/3"
        assert rows["4"][1] == "1/2"
        assert rows["5"][1] == "3/5"
        assert float(rows["3"][3]) == pytest.approx(0.697334774, abs=1e-8)
        assert (tmp_path / "bounds_manifest.json").exists()

    def test_writes_the_checked_integers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 3.0, "k_list": [3.0, 5]}))
        assert run(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "bounds.csv").read_text().splitlines()
        assert [(row[0], row[4]) for row in (line.split(",") for line in csv[1:])] == [
            ("3", "3"), ("5", "3")]
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("(truncation 3)")
        assert [line.split()[0] for line in out[1:]] == ["3", "5"]


class TestSimulate:
    def test_default_gaussian_within_bound(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_rounds": 20000, "g": 0.3,
                                   "omega1": 1.2, "omega2": 0.9}))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "simulate.json").read_text())[0]
        assert rec["p_value"] <= 2 / 3 + 4 * rec["stderr"]
        assert rec["descriptor"].startswith("gaussian")

    def test_point_mass_pattern(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "distribution": {"kind": "point", "x1": -1.0, "x2": -1.0},
            "n_rounds": 5000,
        }))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "simulate.json").read_text())[0]
        # opposite-sign point mass scores 2/3 via the (-,+,+) slot pattern
        signs = ["+" if c[0] else "-" for c in rec["counts"]]
        assert signs == ["-", "+", "+"]
        assert rec["p_value"] == pytest.approx(2 / 3, abs=4 * rec["stderr"] + 1e-12)

    def test_seed_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_rounds": 4000, "seed": 9}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_rounds": 2000, "seed": 9}))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                    "--seed", "123"]) == 0
        rec = json.loads((tmp_path / "simulate.json").read_text())[0]
        assert rec["seed"] == 123
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["config"]["seed"] == 123

    def test_degenerate_angle_uses_config_theta(self, tmp_path):
        # equal uncoupled oscillators: every angle is a normal-mode choice,
        # so the configured theta must be honored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "m1": 1.0, "m2": 1.0, "omega1": 1.0, "omega2": 1.0, "g": 0.0,
            "theta": 0.3, "n_rounds": 2000,
        }))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "simulate.json").read_text())[0]
        assert rec["theta"] == pytest.approx(0.3)


class TestCertify:
    def test_tiny_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "K": 3, "n_max": 2, "theta_grid": [0.0, math.pi / 4],
            "p_grid": [0.5], "tol": 1e-6,
        }))
        assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "certify.csv").read_text().splitlines()
        assert lines[0].startswith("theta,p_target,z,s_n")
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[3]) <= float(parts[4]) + 1e-12  # s_n <= gap
            assert len(parts) == 7  # no timing column
        manifest = json.loads((tmp_path / "certify_manifest.json").read_text())
        assert manifest["config"]["n_max"] == 2
        assert manifest["failed_cells"] == []

    def test_manifest_lists_failed_cells(self, tmp_path, monkeypatch):
        def broken(prob, *args, **kwargs):
            if prob.theta > 0.0:
                raise NumericalFailure("no feasible primal point was recovered")
            return solve(prob, *args, **kwargs)

        solve = oscwit.sdp.solve
        monkeypatch.setattr(oscwit.sdp, "solve", broken)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "K": 3, "n_max": 2, "theta_grid": [0.0, 0.5],
            "p_grid": [0.5], "tol": 1e-6,
        }))
        assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "certify_manifest.json").read_text())
        assert manifest["failed_cells"] == [{
            "theta": 0.5, "p_target": 0.5,
            "reason": "no feasible primal point was recovered",
        }]

    def test_summary_count_matches_csv(self, tmp_path, capsys):
        # p = 0.7 lies above the n = 3 score range: its cells are
        # infeasible, and the summary does not count them as solved
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "K": 3, "n_max": 3, "theta_grid": [0.0, math.pi / 8, math.pi / 4],
            "p_grid": [0.5, 0.6, 0.64, 0.66, 0.7], "tol": 1e-6,
        }))
        assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "certify.csv").read_text().splitlines()[1:]]
        solved = [r for r in rows if r[5] in ("optimal", "max-iter")]
        certified = sum(1 for r in solved if float(r[3]) - float(r[4]) > 0)
        assert 0 < certified < len(solved) < len(rows)
        assert sum(1 for r in rows if r[5] == "infeasible") == 3
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary == f"{len(solved)} cells solved; {certified} certify entanglement"

    def test_certifying_cell(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "K": 3, "n_max": 3, "theta_grid": [math.pi / 4],
            "p_grid": [0.66], "tol": 1e-6,
        }))
        assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        row = (tmp_path / "certify.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) - float(row[4]) > 0.5  # certified entanglement


class TestCompare:
    def test_bundled_states(self, tmp_path):
        assert run(["compare", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        rows = {}
        for line in lines[1:]:
            parts = line.split(",")
            rows[parts[0]] = parts
        top = rows["max_eigenstate_n8"]
        assert float(top[1]) > 2 / 3          # protocol score beats the bound
        assert top[7] == "True"               # dynamic witness detects
        assert float(top[3]) > 0              # duan margin positive
        assert top[4] == "False"              # zhang blind
        assert float(top[6]) > 0              # abiuso margin positive
        single = rows["family_levels_4"]
        assert single[5] == "True"            # single-level state: hz detects
        vac = rows["vacuum"]
        assert vac[4] == "False" and vac[5] == "False" and vac[7] == "False"

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_dew_only_at_quarter_pi(self, tmp_path, capsys, theta):
        # the score still beats the classical bound, but off pi/4 that does
        # not witness entanglement: at theta = 0 the states are products
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": theta}))
        assert run(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "compare.csv").read_text().splitlines()[1:]]
        assert any(float(r[1]) > 2 / 3 for r in rows)
        assert "True" not in [r[7] for r in rows]
        assert "dew=True" not in capsys.readouterr().out

    def test_folded_quarter_pi_keeps_the_rows(self, tmp_path, capsys):
        outs = []
        for theta in (math.pi / 4, 3 * math.pi / 4):
            cfg, out = tmp_path / "cfg.json", tmp_path / str(theta)
            cfg.write_text(json.dumps({"theta": theta}))
            assert run(["compare", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(((out / "compare.csv").read_text(), capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert outs[0][0].splitlines()[1].split(",")[7] == "True"

    @pytest.mark.parametrize("K, n_max", [(2, 4), (4, 8)])
    def test_even_k_rounding_is_no_detection(self, tmp_path, capsys, K, n_max):
        # at even K, Q_K = I / 2 exactly and c_K = 1/2, so every score is
        # 1/2 up to rounding; one ulp above it witnesses nothing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": K, "n_max": n_max}))
        assert run(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "compare.csv").read_text().splitlines()[1:]]
        assert all(abs(float(r[1]) - 0.5) < 1e-11 for r in rows)
        assert "True" not in [r[7] for r in rows]
        assert "dew=True" not in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 3, "bogus": 1}))
        assert run(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestWitnessCmd:
    def test_report(self, tmp_path):
        assert run(["witness", "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "witness.json").read_text())
        assert rep["K"] == 3 and rep["proj_level"] == 2
        assert rep["erf_check_max_abs_error"] < 1e-8
        assert rep["min_eigenvalue"] == pytest.approx(0.060881, abs=1e-5)
        assert rep["optimality_probe"]["expectation"] < 0


ROOT = Path(__file__).resolve().parent.parent

NUMPY_ONLY_CONFIGS = {
    "simulate": "simulate_gaussian.json",
    "compare": "compare_family.json",
    "witness": "witness_default.json",
}


@pytest.mark.parametrize("command", ["bounds", "simulate", "compare", "witness"])
def test_command_runs_without_scipy(tmp_path, command):
    # only certify needs scipy (scipy.linalg); the other commands must not
    # pay for importing it
    argv = [command, "--out", str(tmp_path)]
    if command in NUMPY_ONLY_CONFIGS:
        argv += ["--config", str(ROOT / "configs" / NUMPY_ONLY_CONFIGS[command])]
    code = ("import sys\n"
            "from oscwit.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(rc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestErrors:
    def test_bad_distribution_kind(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"distribution": {"kind": "nope"}}))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_unreadable_config(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path)]) == 2

    def test_flags_only_on_their_subcommand(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "--out", str(tmp_path), "--tol", "1e-3", "--seed", "4",
                 "--threads", "9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3 --seed 4 --threads 9" in capsys.readouterr().err

    def test_unstable_coupling_keeps_its_reason(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 5.0}))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "coupling beyond stability" in capsys.readouterr().err

    def test_unknown_engine_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"engine": "fast"}))
        assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error: unknown config keys: ['engine']" in capsys.readouterr().err
        assert not (tmp_path / "certify.csv").exists()

    def test_score_outside_unit_interval_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_grid": [1.5]}))
        assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error: p_grid values must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "certify.csv").exists()

    @pytest.mark.parametrize("command, values, message", [rejection(*case) for case in [
        ("certify", {"n_max": -1}, "n_max must be >= 0, not -1", 0),
        ("certify", {"K": 0}, "K must be >= 1, not 0", 1),
        ("certify", {"p_grid": ["a"]}, "p_grid must be a list of numbers: ['a']", 2),
        ("certify", {"theta_grid": ["a"]}, "theta_grid must be a list of numbers: ['a']", 3),
        ("simulate", {"n_rounds": 0}, "n_rounds must be >= 1, not 0", 4),
        ("simulate", {"K": 0}, "K must be >= 1, not 0", 5),
        ("witness", {"probe_epsilon": 0}, "probe_epsilon must be > 0, not 0.0", 6),
        ("witness", {"probe_epsilon": -0.1}, "probe_epsilon must be > 0, not -0.1", 7),
        ("witness", {"probe_n_max": -1}, "probe_n_max must be >= 0, not -1", 8),
        ("witness", {"proj_level": -1}, "proj_level must be >= 0, not -1", 9),
        ("witness", {"erf_r_values": ["a"]}, "erf_r_values must be a list of numbers: ['a']", 10),
        ("witness", {"parent_n_max": 1}, "parent_n_max must be >= 2, not 1", 11),
        ("compare", {"n_max": -1}, "n_max must be >= 0, not -1", 12),
        ("compare", {"K": 0}, "K must be >= 1, not 0", 13),
        ("compare", {"theta": "a"}, "theta must be a number: 'a'", 14),
        ("certify", {"tol": "x"}, "tol must be a number: 'x'", 15),
        ("certify", {"tol": 0}, "tol must be > 0, not 0.0", 16),
        ("certify", {"threads": "x"}, "threads must be an integer: 'x'", 17),
        ("certify", {"threads": 0}, "threads must be >= 1, not 0", 18),
        ("simulate", {"n_seeds": "a"}, "n_seeds must be an integer: 'a'", 19),
        ("simulate", {"n_seeds": 0}, "n_seeds must be >= 1, not 0", 20),
        ("simulate", {"seed": "z"}, "seed must be an integer: 'z'", 21),
        ("simulate", {"seed": -1}, "seed must be >= 0, not -1", 22),
        ("simulate", {"t0": "q"}, "t0 must be a number: 'q'", 23),
        ("simulate", {"sigma": "x"}, "sigma must be '+' or '-', not 'x'", 24),
        ("simulate", {"m1": -1}, "m1 must be > 0, not -1.0", 25),
        ("simulate", {"omega2": 0}, "omega2 must be > 0, not 0.0", 26),
        ("simulate", {"g": "a"}, "g must be a number: 'a'", 27),
        ("simulate", {"distribution": {"kind": "gaussian", "scale": -1}},
         "scale must be > 0, not -1.0", 28),
        ("simulate", {"distribution": {"kind": "uniform", "half_width": "a"}},
         "half_width must be a number: 'a'", 29),
        ("simulate", {"distribution": "x"}, "distribution must be an object: 'x'", 30),
        ("simulate", {"distribution": {"kind": "gaussian", "center": [1]}},
         "center must list 4 numbers: [1]", 31),
        ("bounds", {"k_list": ["a"]}, "k_list must be a list of numbers: ['a']", 32),
        ("bounds", {"k_list": [0]}, "k_list must be >= 1, not 0", 33),
        ("bounds", {"k_list": 3}, "k_list must be a list of numbers: 3", 34),
        ("bounds", {"k_list": [2.5]}, "k_list must be an integer: 2.5", 35),
        ("bounds", {"n_max": -1}, "n_max must be >= 0, not -1", 36),
        ("bounds", {"n_max": "x"}, "n_max must be an integer: 'x'", 37),
        ("compare", {"c_grid": [0]}, "c_grid must list nonzero numbers: [0]", 38),
        ("compare", {"c_grid": ["a"]}, "c_grid must be a list of numbers: ['a']", 39),
        ("compare", {"kappa_grid": [0]}, "kappa_grid must list nonzero numbers: [0]", 40),
        ("compare", {"kappa_grid": "x"}, "kappa_grid must be a list of numbers: 'x'", 41),
        ("compare", {"sigma_grid": [-1]}, "sigma_grid must list positive numbers: [-1]", 42),
        ("compare", {"states": 3}, "states must be a list of objects: 3", 43),
        ("compare", {"states": [3]}, "states must be a list of objects: [3]", 44),
        ("compare", {"states": [{"kind": "family", "psi": "x"}]},
         "psi must be a list of [re, im] pairs: 'x'", 45),
        ("compare", {"states": [{"kind": "family", "psi": [[0.0, 0.0], [1.0, 0.0]],
                                 "support_mode": "zz"}]},
         "support_mode must be 'levels' or 'multiples', not 'zz'", 46),
        ("compare", {"states": [{"kind": "family", "psi": [[0.0, 0.0], [1.0, 0.0]],
                                 "extra": 1}]},
         "unknown state keys for family: ['extra']", 47),
        ("simulate", {"K": 2.5}, "K must be an integer: 2.5", 48),
        ("certify", {"record_timing": False}, "unknown config keys: ['record_timing']", 49),
        ("certify", {"theta_grid": "05"}, "theta_grid must be a list of numbers: '05'", 50),
        ("certify", {"theta_grid": {"0": 1}}, "theta_grid must be a list of numbers: {'0': 1}", 51),
        ("compare", {"kappa_grid": "12"}, "kappa_grid must be a list of numbers: '12'", 52),
        ("witness", {"erf_r_values": "05"}, "erf_r_values must be a list of numbers: '05'", 53),
        ("bounds", {"k_list": "23"}, "k_list must be a list of numbers: '23'", 54),
        # JSON booleans are Python ints, but no numeric key takes one
        ("bounds", {"n_max": True}, "n_max must be an integer: True", 55),
        ("bounds", {"k_list": [3, True]}, "k_list must be a list of numbers: [3, True]", 56),
        ("simulate", {"K": True}, "K must be an integer: True", 57),
        ("certify", {"theta_grid": [True]}, "theta_grid must be a list of numbers: [True]", 58),
        ("simulate", {"g": False}, "g must be a number: False", 59),
        ("witness", {"probe_epsilon": True}, "probe_epsilon must be a number: True", 60),
        ("compare", {"states": [{"kind": "family", "psi": [[False, False], [True, False]]}]},
         "psi must be a list of [re, im] pairs: [[False, False], [True, False]]", 61),
        # Python's json reads NaN and Infinity, but they are not JSON numbers,
        # and a numeric string is not a number either
        ("simulate", {"g": math.nan}, "g must be a number: nan", 62),
        ("simulate", {"t0": "0.25"}, "t0 must be a number: '0.25'", 63),
        ("compare", {"theta": math.inf}, "theta must be a number: inf", 64),
        ("witness", {"probe_epsilon": -math.inf}, "probe_epsilon must be a number: -inf", 65),
        ("certify", {"theta_grid": [math.nan], "p_grid": [0.5]},
         "theta_grid must be a list of numbers: [nan]", 66),
        ("certify", {"p_grid": ["0.5"]}, "p_grid must be a list of numbers: ['0.5']", 67),
        ("compare", {"states": [{"kind": "family", "psi": [[math.inf, 0.0], [1.0, 0.0]]}]},
         "psi must be a list of [re, im] pairs: [[inf, 0.0], [1.0, 0.0]]", 68),
        ("compare", {"states": [{"kind": "family", "psi": [["1", 0.0], [1.0, 0.0]]}]},
         "psi must be a list of [re, im] pairs: [['1', 0.0], [1.0, 0.0]]", 69),
        # an empty list would run, and report, nothing
        ("certify", {"theta_grid": []}, "theta_grid must not be empty", 70),
        ("certify", {"p_grid": []}, "p_grid must not be empty", 71),
        ("bounds", {"k_list": []}, "k_list must not be empty", 72),
        ("witness", {"erf_r_values": []}, "erf_r_values must not be empty", 73),
        ("compare", {"states": []}, "states must not be empty", 74),
        # the erf closed form of witness.json exists for K = 3 only
        ("witness", {"K": 5}, "K must be 3, not 5", 75),
        ("witness", {"K": 1}, "K must be 3, not 1", 76),
    ]])
    def test_invalid_value_rejected(self, tmp_path, capsys, command, values, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / f"{command}_manifest.json").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("text", ["5", "null", '[["K", 3]]', '"ab"'])
    def test_config_not_an_object_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: config {cfg} must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, values", [
        ("certify", {"K": 0}),
        ("simulate", {"g": 5.0}),             # coupling beyond stability
        ("witness", {"probe_n_max": 3}),      # the probe search runs out of levels
    ])
    def test_failed_run_writes_nothing(self, tmp_path, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("below", [None, "sub"])
    def test_out_through_a_file_rejected_before_the_run(self, tmp_path, capsys, below):
        # --out names an existing file, or a path through one
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken if below is None else taken / below
        assert run(["bounds", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"error: --out {out}: {taken} is not a directory" in captured.err
        assert captured.out == ""  # bounds prints its table as it runs
        assert taken.read_text() == "keep"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_infeasible_grid_cells_do_not_crash(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "K": 3, "n_max": 2, "theta_grid": [0.0],
            "p_grid": [0.5, 0.9], "tol": 1e-6,
        }))
        assert run(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "certify.csv").read_text().splitlines()
        statuses = {l.split(",")[1]: l.split(",")[5] for l in lines[1:]}
        assert statuses["0.9"] == "infeasible"
