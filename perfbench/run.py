"""oscwit benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; oscwit is imported from its ``src``, with
no install step.  The workloads, their inputs and their checks are in
``workloads.py``; the names and units of the metrics are in
``BENCHMARK.json``, which ``--smoke`` checks against what a short run
prints.

``--trace 0`` repeats whole passes over the workload's inputs while the
next pass is expected to end within ``--seconds`` (always at least one) and
prints the end-to-end metrics:

* ``wall_s``          median wall time of one pass;
* ``setup_s``         median over 3 fresh interpreters of the time to
                      import oscwit and generate the inputs;
* ``peak_rss_mb``     peak resident memory of the process doing the work
                      (for ``cli-toolkit``, the largest command process);
* ``solve_s_p50/p90`` latency of one operation over all passes: one
                      ``sdp.solve`` call, or one command on ``cli-toolkit``;
* ``lb_nats``         sum of certified lower bounds ``s_n - dual_gap`` of
                      one pass; on ``cli-toolkit``, the sum of the
                      log-negativities ``oscwit compare`` reports;
* ``certified_cells`` solves with ``s_n - dual_gap > 0``; on
                      ``cli-toolkit``, compared states whose protocol score
                      beats the classical bound.

Failed correctness checks are counted in the result's ``failed`` out of
``attempted`` (``failed_frac`` is their ratio).

``--trace 1`` runs one untraced pass and then one traced pass, and prints
per-layer metrics: ``<layer>.<function>.calls``, ``.s`` (inclusive) and
``.self_s`` for every function ``tracing.TARGETS`` wraps, work counts,
solver iterations, the per-command times of ``cli-toolkit``, per-module
import times (``python3 -X importtime``) and the tracing overhead
(``trace.overhead_s`` = traced minus untraced pass wall time).  Layers a
workload does not exercise read 0.  The spans are written to
``perfbench/out/<workload>/spans.json``.

BLAS is pinned to one thread for every workload.  On a 2-core machine one
interior-point solve at n = 4 took 1.6-1.9 s with one OpenBLAS thread and
2.9-3.5 s with two, and the 25-cell grid 13 s against 25 s; only the n = 11
splitting rung gained from two threads (about 15%), with certified values
the same either way.  One thread is also the setting that stays steady when
other processes share the cores.  Every result is preceded by a line with
the environment: library versions, BLAS, thread variables, CPU and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracing import SPAN_NAMES, Tracer  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS, Checks, run_child  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
IMPORT_PROBES = 3
OSCWIT_MODULES = ["oscwit", "oscwit.errors", "oscwit.fock", "oscwit.modes", "oscwit.protocol",
                  "oscwit.classical", "oscwit.sdp", "oscwit.criteria", "oscwit.witness",
                  "oscwit.cli"]

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "solve_s_p50": "s",
    "solve_s_p90": "s", "lb_nats": "nats", "certified_cells": "count",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    for name in ("eigh", "eigvalsh", "cholesky", "cho_factor"):
        units[f"linalg.{name}.work"] = "count"
    units["linalg.cho_factor.failed"] = "count"
    units["classical.simulate_classical_score.rounds_per_s"] = "1/s"
    units.update({"sdp.iterations": "count", "sdp.iter_ms": "ms", "sdp.gap_nats": "nats"})
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}_s"] = "s"
    for mod in OSCWIT_MODULES:
        units[f"cli.import_s.{mod.rsplit('.', 1)[-1]}"] = "s"
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; src_sha256 identifies the code
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, inherited: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_inherited": inherited,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_times(workload: str, seed: int, out_dir: Path, checks: Checks) -> list:
    times = []
    for i in range(SETUP_PROBES):
        rc, wall, _ = run_child(
            [sys.executable, str(HERE / "entry.py"), "setup", workload, str(seed)],
            out_dir / f"setup{i}.stdout", out_dir / f"setup{i}.stderr")
        checks.check(rc == 0, f"set-up probe exited {rc}")
        times.append(wall)
    return times


def import_times(out_dir: Path) -> dict:
    """Median cumulative import seconds per oscwit module (-X importtime)."""
    samples = {mod: [] for mod in OSCWIT_MODULES}
    for i in range(IMPORT_PROBES):
        err = out_dir / f"importtime{i}.stderr"
        run_child([sys.executable, "-X", "importtime", "-c", "import oscwit.cli"],
                  out_dir / f"importtime{i}.stdout", err)
        for line in err.read_text().splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) * 1e-6)
    return {mod: statistics.median(v) if v else 0.0 for mod, v in samples.items()}


def measure(wl, checks: Checks, seconds: float, out_dir: Path):
    setup = setup_times(wl.name, wl.seed, out_dir, checks)
    passes = []
    t0 = time.perf_counter()
    while True:
        p = wl.run_pass(checks)
        if passes:
            checks.check(p["values"] == passes[0]["values"],
                         f"pass {len(passes) + 1} results differ from pass 1")
        passes.append(p)
        walls = [q["wall"] for q in passes]
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    ops = [x for q in passes for x in q["op_s"]]
    deciles = statistics.quantiles(ops, n=10, method="inclusive")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": wl.peak_rss_mb(passes),
        "solve_s_p50": deciles[4],
        "solve_s_p90": deciles[8],
        "lb_nats": passes[0]["lb_nats"],
        "certified_cells": passes[0]["certified"],
    }
    samples = {"passes": len(passes), "operations": len(ops), "setup_probes": len(setup)}
    return metrics, samples


def measure_traced(wl, checks: Checks, out_dir: Path):
    imports = import_times(out_dir)
    base = wl.run_pass(checks)
    tracer = Tracer()
    tracer.run_id = f"{wl.name}-seed{wl.seed}"
    traced = wl.run_pass(checks, tracer)
    checks.check(traced["values"] == base["values"], "traced results differ from untraced")
    tracer.write(out_dir / "spans.json")

    metrics = {}
    for name, row in tracer.summary().items():
        metrics.update({f"{name}.calls": row["calls"], f"{name}.s": row["s"],
                        f"{name}.self_s": row["self_s"]})
    for name in ("eigh", "eigvalsh", "cholesky", "cho_factor"):
        metrics[f"linalg.{name}.work"] = tracer.work[f"linalg.{name}"]
    metrics["linalg.cho_factor.failed"] = tracer.failed["linalg.cho_factor"]
    sim = "classical.simulate_classical_score"
    metrics[f"{sim}.rounds_per_s"] = tracer.work[sim] / metrics[f"{sim}.s"] if metrics[f"{sim}.s"] else 0.0
    iterations = traced.get("iterations", 0)
    metrics["sdp.iterations"] = iterations
    metrics["sdp.iter_ms"] = 1000.0 * traced["solve_s"] / iterations if iterations else 0.0
    metrics["sdp.gap_nats"] = traced.get("gap_nats", 0.0)
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}_s"] = traced.get("command_s", {}).get(cmd, 0.0)
    for mod, sec in imports.items():
        metrics[f"cli.import_s.{mod.rsplit('.', 1)[-1]}"] = sec
    metrics["trace.wall_s"] = traced["wall"]
    metrics["trace.overhead_s"] = traced["wall"] - base["wall"]
    samples = {"passes": 2, "spans": len(tracer.spans), "import_probes": IMPORT_PROBES}
    return metrics, samples


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run: (result printed last, information printed before it)."""
    out_dir = HERE / "out" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    checks = Checks()
    wl = WORKLOADS[workload](ROOT, out_dir, seed, small)
    wl.check_inputs(checks)
    if trace:
        values, samples = measure_traced(wl, checks, out_dir)
        units = per_layer_units()
    else:
        values, samples = measure(wl, checks, seconds, out_dir)
        units = END_TO_END
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info = {"workload": workload, "seed": seed, "trace": int(trace), "samples": samples,
            "failures": checks.failures}
    (out_dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    return result, info


def smoke() -> int:
    """Short runs of every workload in both modes, checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result, info = run(workload, 1, 1.0, trace, small=True)
            printed = json.loads(json.dumps(result))
            got = {name: m["unit"] for name, m in printed["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if got != want[trace]:
                problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
            if set(printed) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(printed)}")
            if not printed["correct"]:
                problems.append(f"{label}: failed checks {info['failures']}")
            for name, m in printed["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v) or (not trace and v <= 0):
                    problems.append(f"{label}: {name} = {v!r}")
            print(f"{label}: {len(got)} metrics, {printed['attempted']} checks", flush=True)
    for p in problems:
        print(p)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload, checking the printed metrics")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "oscwit" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no oscwit checkout at {ROOT}: src/oscwit and configs/ are required",
              file=sys.stderr)
        return 2

    inherited = {v: os.environ.get(v) for v in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import oscwit

    if Path(oscwit.__file__).resolve().parent != SRC / "oscwit":
        print(f"oscwit imported from {oscwit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in info["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": environment(args.seed, inherited), **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
