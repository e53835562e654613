"""Seeded inputs, workload passes and correctness checks.

Three workloads, each stressing different layers of oscwit:

* ``certify-n3-grid`` -- ``oscwit certify`` on the 5 x 5 (theta, p) grid of
  ``configs/certify_small.json``: 25 small interior-point solves.
* ``splitting-ladder`` -- the first-order engine at theta = pi/4 with fixed
  iteration budgets at n = 6 and n = 11 (quality at a fixed budget).
* ``cli-toolkit`` -- ``oscwit bounds``, ``simulate``, ``compare`` and
  ``witness``, each in its own process as users run them.  No SDP.

Seed 0 reproduces the bundled configs byte for byte; other seeds jitter the
inputs slightly (see ``make_inputs``).  oscwit receives only the generated
grid, scores and configs.  Every pass records its checks in a ``Checks``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

K = 3
THETA_GRID = [i * math.pi / 16.0 for i in range(5)]
P_GRID = [0.5, 0.5375, 0.575, 0.6125, 0.65]
# Jitter of interior grid points on seeds other than 0.  The grid ends stay
# put: theta = 0 cells are one-iteration solves, so moving them would change
# the work, not just the inputs.  The widths keep the interior-point
# iteration counts within one of seed 0's in every cell: at ten times these
# widths several cells move by 1-3 iterations, which shifts the per-solve
# median by up to 6% from seed to seed.
THETA_JITTER = 0.0002
P_JITTER = 0.0001

LADDER_THETA = math.pi / 4
LADDER_P = 0.68
# s_n_lb at theta = pi/4 moves by ~14 nats per unit score at n = 6 and ~20 at
# n = 11 near p = 0.68 (0.64 -> 0.37 and 0.43 -> 0 nats from 0.68 to 0.66),
# and p = 0.70 is above the n = 6 maximum 0.6866; seeds stay this close.
LADDER_P_HALF_WIDTH = 0.0003
LADDER_RUNGS = [(6, 400), (11, 150)]
SMOKE_LADDER_RUNGS = [(6, 20), (11, 3)]

CLI_COMMANDS = ["bounds", "simulate", "compare", "witness"]
CLI_CONFIGS = {
    "simulate": "simulate_gaussian.json",
    "compare": "compare_family.json",
    "witness": "witness_default.json",
}
CLI_OUTPUTS = {
    "bounds": "bounds.csv",
    "simulate": "simulate.json",
    "compare": "compare.csv",
    "witness": "witness.json",
}


# ---------------------------------------------------------------------------
# inputs


def _num(x) -> str:
    text = json.dumps(x)
    if isinstance(x, float) and "e" in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}e{int(exponent)}"
    return text


def _value(v) -> str:
    if isinstance(v, list) and v and isinstance(v[0], dict):
        return "[\n" + ",\n".join("  " + _value(d) for d in v) + "\n ]"
    if isinstance(v, list):
        return "[" + ", ".join(_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_value(x)}" for k, x in v.items()) + "}"
    return _num(v)


def config_text(cfg: dict) -> str:
    """The layout of the bundled configs: one top-level key per line."""
    body = ",\n".join(f" {json.dumps(k)}: {_value(v)}" for k, v in cfg.items())
    return "{\n" + body + "\n}\n"


def make_inputs(workload: str, seed: int, small: bool = False) -> dict:
    """Configs (file name -> dict) and ladder scores generated from ``seed``."""
    rng = random.Random(seed)

    def jitter(grid, width):
        if seed == 0:
            return list(grid)
        return [grid[0]] + [x + rng.uniform(-width, width) for x in grid[1:-1]] + [grid[-1]]

    if workload == "certify-n3-grid":
        thetas = jitter(THETA_GRID, THETA_JITTER)
        ps = jitter(P_GRID, P_JITTER)
        if small:
            thetas, ps = [thetas[0], thetas[-1]], [ps[0], ps[-1]]
        cfg = {"K": K, "n_max": 3, "theta_grid": thetas, "p_grid": ps,
               "tol": 1e-6, "threads": 1}
        return {"configs": {"certify_small.json": cfg}}
    if workload == "splitting-ladder":
        p = LADDER_P if seed == 0 else rng.uniform(
            LADDER_P - LADDER_P_HALF_WIDTH, LADDER_P + LADDER_P_HALF_WIDTH)
        rungs = SMOKE_LADDER_RUNGS if small else LADDER_RUNGS
        return {"configs": {}, "p": p, "rungs": rungs}
    if workload == "cli-toolkit":
        simulate = {
            "distribution": {"kind": "gaussian", "scale": 1.0},
            "m1": 1.0, "m2": 1.3, "omega1": 1.1, "omega2": 0.9, "g": 0.35,
            "K": K, "n_rounds": 100000, "n_seeds": 5,
            # disjoint blocks of n_seeds simulate seeds per workload seed
            "seed": 1 + 5 * seed,
        }
        compare = {
            "K": K, "theta": math.pi / 4, "n_max": 8,
            "states": [
                {"kind": "max_eigenstate"},
                {"kind": "family", "psi": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                 "support_mode": "levels"},
                {"kind": "family", "psi": [[math.sqrt(0.5), 0.0], [math.sqrt(0.5), 0.0]],
                 "support_mode": "multiples"},
                {"kind": "vacuum"},
            ],
        }
        witness = {"K": K, "proj_level": 2, "erf_r_values": [0.0, 0.5, 1.0, 2.0],
                   "probe_epsilon": 0.1, "probe_n_max": 40}
        return {"configs": {"simulate_gaussian.json": simulate,
                            "compare_family.json": compare,
                            "witness_default.json": witness}}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks


class Checks:
    """Counts correctness checks attempted and failed, keeping the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _same(a, b, rtol=1e-9, atol=1e-12) -> bool:
    """Equal up to last-digit rounding of floats; exact for everything else."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=rtol, abs_tol=atol) or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _parse_field(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_output(path: Path):
    """A CSV as rows of typed fields, a JSON file as its value."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    return [[_parse_field(f) for f in line.split(",")] for line in text.splitlines()]


def _reference(name: str):
    return json.loads((REFERENCE / name).read_text())


def _check_certificate(checks: Checks, label: str, sol) -> None:
    checks.check(sol.status in ("optimal", "max-iter"), f"{label}: status {sol.status}")
    checks.check(sol.z >= sol.z_lb, f"{label}: z {sol.z!r} < z_lb {sol.z_lb!r}")


def _check_against_reference(checks: Checks, label: str, s_n, gap, ref) -> None:
    slack = gap + ref["dual_gap"] + 1e-9
    checks.check(abs(s_n - ref["s_n"]) <= slack,
                 f"{label}: s_n {s_n!r} outside reference {ref['s_n']!r} +- {slack:.3g}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Generated inputs plus one measured pass over them.

    ``run_pass`` returns a dict with ``wall`` (seconds), ``op_s`` (seconds
    per solve or command), ``lb_nats``, ``certified``, ``values`` (what must
    repeat exactly from pass to pass) and workload-specific extras.
    """

    name = ""

    def __init__(self, root: Path, out_dir: Path, seed: int, small: bool = False):
        self.root = root
        self.out_dir = out_dir
        self.seed = seed
        self.small = small
        self.inputs = make_inputs(self.name, seed, small)
        self.input_dir = out_dir / "inputs"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        for fname, cfg in self.inputs["configs"].items():
            (self.input_dir / fname).write_text(config_text(cfg))

    def check_inputs(self, checks: Checks) -> None:
        """Seed 0 must reproduce the bundled configs byte for byte."""
        if self.seed != 0 or self.small:
            return
        for fname in self.inputs["configs"]:
            bundled = (self.root / "configs" / fname).read_bytes()
            generated = (self.input_dir / fname).read_bytes()
            checks.check(generated == bundled, f"generated {fname} differs from configs/{fname}")

    def peak_rss_mb(self, passes) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CertifyGrid(Workload):
    name = "certify-n3-grid"

    def run_pass(self, checks: Checks, tracer=None) -> dict:
        import oscwit.cli
        import oscwit.sdp

        out = self.out_dir / "certify"
        shutil.rmtree(out, ignore_errors=True)
        solved = []
        inner = oscwit.sdp.solve

        def capture(*args, **kwargs):
            t0 = time.perf_counter()
            sol = inner(*args, **kwargs)
            solved.append((sol, time.perf_counter() - t0))
            return sol

        oscwit.sdp.solve = capture
        if tracer is not None:
            tracer.install()
        try:
            with open(self.out_dir / "certify.stdout", "w") as log, contextlib.redirect_stdout(log):
                t0 = time.perf_counter()
                rc = oscwit.cli.main(["certify", "--config",
                                      str(self.input_dir / "certify_small.json"),
                                      "--out", str(out)])
                wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
            oscwit.sdp.solve = inner
        checks.check(rc == 0, f"oscwit certify exited {rc}")
        table = read_output(out / "certify.csv") if rc == 0 else [[]]
        rows = [dict(zip(table[0], r)) for r in table[1:]]
        reference = _reference("certify.json") if self.seed == 0 and not self.small else None
        sols = iter(solved)
        for i, row in enumerate(rows):
            label = f"cell theta={row['theta']} p={row['p_target']}"
            checks.check(row["status"] not in ("failed", "infeasible"),
                         f"{label}: status {row['status']}")
            if row["status"] in ("failed", "infeasible"):
                continue
            sol, _ = next(sols)
            _check_certificate(checks, label, sol)
            if reference is not None:
                _check_against_reference(checks, label, row["s_n"], row["dual_gap"], reference[i])
        certified = sum(1 for r in rows if r["status"] in ("optimal", "max-iter")
                        and r["s_n"] - r["dual_gap"] > 0)
        return {
            "wall": wall,
            "op_s": [dt for _, dt in solved],
            "lb_nats": sum(s.s_n_lb for s, _ in solved),
            "certified": certified,
            "values": [[s.z, s.z_lb, s.iterations] for s, _ in solved],
            "gap_nats": max((s.dual_gap for s, _ in solved), default=0.0),
            "iterations": sum(s.iterations for s, _ in solved),
            "solve_s": sum(s.wall_time for s, _ in solved),
        }


class SplittingLadder(Workload):
    name = "splitting-ladder"

    def run_pass(self, checks: Checks, tracer=None) -> dict:
        import oscwit.sdp as sdp

        p = self.inputs["p"]
        reference = _reference("ladder.json") if self.seed == 0 and not self.small else None
        rungs = []
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            for n_max, budget in self.inputs["rungs"]:
                problem = sdp.build_problem(K, LADDER_THETA, p, n_max)
                t1 = time.perf_counter()
                sol = sdp.solve(problem, engine="first-order", max_iters=budget)
                rungs.append((n_max, budget, sol, time.perf_counter() - t1))
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        for i, (n_max, budget, sol, _) in enumerate(rungs):
            label = f"rung n={n_max} p={p}"
            _check_certificate(checks, label, sol)
            checks.check(sol.iterations <= budget,
                         f"{label}: {sol.iterations} iterations over the budget of {budget}")
            if reference is not None:
                _check_against_reference(checks, label, sol.s_n, sol.dual_gap, reference[i])
        sols = [r[2] for r in rungs]
        return {
            "wall": wall,
            "op_s": [r[3] for r in rungs],
            "lb_nats": sum(s.s_n_lb for s in sols),
            "certified": sum(1 for s in sols if s.s_n - s.dual_gap > 0),
            "values": [[s.z, s.z_lb, s.iterations] for s in sols],
            "gap_nats": max(s.dual_gap for s in sols),
            "iterations": sum(s.iterations for s in sols),
            "solve_s": sum(s.wall_time for s in sols),
        }


def run_child(argv, stdout_path: Path, stderr_path: Path):
    """Run one child to completion: (exit code, wall seconds, peak RSS in kB).

    The child inherits the environment, whose PYTHONPATH puts the
    checkout's ``src`` first (``run.py`` sets it).
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class CliToolkit(Workload):
    name = "cli-toolkit"

    def run_pass(self, checks: Checks, tracer=None) -> dict:
        out = self.out_dir / "cli"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rc, times, rss = {}, {}, {}
        t0 = time.perf_counter()
        for cmd in CLI_COMMANDS:
            argv = [sys.executable, str(HERE / "entry.py"), "oscwit"]
            if tracer is not None:
                argv += ["--trace", str(out / f"{cmd}.spans.json")]
            argv += [cmd, "--out", str(out)]
            if cmd in CLI_CONFIGS:
                argv += ["--config", str(self.input_dir / CLI_CONFIGS[cmd])]
            rc[cmd], times[cmd], rss[cmd] = run_child(
                argv, out / f"{cmd}.stdout", out / f"{cmd}.stderr")
            checks.check(rc[cmd] == 0, f"oscwit {cmd} exited {rc[cmd]}")
        wall = time.perf_counter() - t0
        if tracer is not None:
            for cmd in CLI_COMMANDS:
                tracer.merge(json.loads((out / f"{cmd}.spans.json").read_text()), cmd)
        # a command that failed has already counted; its outputs read as empty
        outputs = {cmd: read_output(out / CLI_OUTPUTS[cmd]) if rc[cmd] == 0 else []
                   for cmd in CLI_COMMANDS}
        for cmd in CLI_COMMANDS:
            if cmd == "simulate" and self.seed != 0:
                continue  # the simulate seed follows the workload seed
            ref = read_output(REFERENCE / CLI_OUTPUTS[cmd])
            checks.check(_same(outputs[cmd], ref), f"oscwit {cmd} output differs from the reference")
        for rec in outputs["simulate"]:
            bound = (1.0 + 1.0 / rec["K"]) / 2.0
            checks.check(rec["p_value"] <= bound + 4.0 * rec["stderr"],
                         f"simulate seed {rec['seed']}: classical score {rec['p_value']} "
                         f"above the bound {bound} + 4 stderr")
        header, *rows = outputs["compare"] or [[]]
        rows = [dict(zip(header, r)) for r in rows]
        return {
            "wall": wall,
            "op_s": [times[c] for c in CLI_COMMANDS],
            "lb_nats": sum(r["s_n"] for r in rows),
            "certified": sum(1 for r in rows if r["dew"] == "True"),
            "values": [outputs[c] for c in CLI_COMMANDS],
            "command_s": times,
            "rss_kb": max(rss.values()),
        }

    def peak_rss_mb(self, passes) -> float:
        return max(p["rss_kb"] for p in passes) / 1024.0


WORKLOADS = {w.name: w for w in (CertifyGrid, SplittingLadder, CliToolkit)}
