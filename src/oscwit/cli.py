"""Command-line harness: reproducible scenario runs with manifests.

Subcommands: bounds, simulate, certify, compare, witness.  Every run
resolves its configuration (JSON file over built-in defaults, unknown keys
rejected), executes deterministically for a given seed, and writes the
outputs plus a manifest sufficient to reproduce them byte for byte.  A
``cmd_*`` only computes; ``main`` writes its outputs and manifest once it has
succeeded, so a run that fails writes nothing.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classical import (
    ClassicalDistribution,
    bimodal,
    gaussian_cloud,
    point_mass,
    ring,
    simulate_classical_score,
    uniform_box,
)
from .errors import ConfigError, DegenerateAngle, NumericalFailure, OscwitError
from .fock import NORMAL, PHYSICAL, TwoModeState, identity_matrix, log_negativity
from .modes import fold_theta, normal_mode_params
from .protocol import ProtocolSpec, classical_bound, max_score, score_state


def _resolve_config(defaults: dict, path: str | None, overrides: dict) -> dict:
    cfg = dict(defaults)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a JSON object: {loaded!r}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    cfg.update((key, val) for key, val in overrides.items() if val is not None)
    return cfg


def _write_manifest(out_dir: Path, command: str, cfg: dict, outputs: list,
                    **extra) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "code_version": __version__,
        "outputs": sorted(outputs),
        **extra,
    }
    path = out_dir / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _int_at_least(cfg: dict, key: str, low: int) -> int:
    try:
        val = int(cfg[key])
        if val != cfg[key] or isinstance(cfg[key], bool):
            raise ValueError("not a whole number")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be an integer: {cfg[key]!r}") from exc
    if val < low:
        raise ConfigError(f"{key} must be >= {low}, not {val}")
    return val


def _number(val) -> float:
    """A JSON number as a float.  Booleans and strings are not numbers, and
    neither are the NaN and Infinity that Python's json reader accepts."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeError(f"not a number: {val!r}")
    if not math.isfinite(val):
        raise ValueError(f"not finite: {val!r}")
    return float(val)


def _float(cfg: dict, key: str) -> float:
    try:
        return _number(cfg[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a number: {cfg[key]!r}") from exc


def _positive(cfg: dict, key: str) -> float:
    val = _float(cfg, key)
    if not val > 0.0:
        raise ConfigError(f"{key} must be > 0, not {val}")
    return val


def _floats(cfg: dict, key: str) -> list:
    """A nonempty JSON list of numbers: an empty one would run, and report,
    nothing."""
    try:
        if not isinstance(cfg[key], list):
            raise TypeError("not a JSON list")
        vals = [_number(v) for v in cfg[key]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a list of numbers: {cfg[key]!r}") from exc
    if not vals:
        raise ConfigError(f"{key} must not be empty")
    return vals


def _grid(cfg: dict, key: str, what: str, ok) -> None:
    if not all(ok(v) for v in _floats(cfg, key)):
        raise ConfigError(f"{key} must list {what} numbers: {cfg[key]!r}")


# kind -> (factory, the keys it takes); a missing key takes the factory default
DISTRIBUTIONS = {
    "gaussian": (gaussian_cloud, {"scale", "center"}),
    "point": (point_mass, {"x1", "p1", "x2", "p2"}),
    "ring": (ring, {"radius"}),
    "bimodal": (bimodal, {"offset", "scale"}),
    "uniform": (uniform_box, {"half_width"}),
}


def _distribution_from_config(spec: dict) -> ClassicalDistribution:
    if not isinstance(spec, dict):
        raise ConfigError(f"distribution must be an object: {spec!r}")
    kind = spec.get("kind")
    if kind not in DISTRIBUTIONS:
        raise ConfigError(f"unknown distribution kind {kind!r}")
    factory, allowed = DISTRIBUTIONS[kind]
    params = {k: v for k, v in spec.items() if k != "kind"}
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown distribution keys for {kind}: {sorted(unknown)}")
    for key in params:
        if key in ("scale", "radius", "half_width"):
            _positive(params, key)
        elif key != "center":
            _float(params, key)
        elif len(_floats(params, key)) != 4:
            raise ConfigError(f"center must list 4 numbers: {params[key]!r}")
    return factory(**params)


# ---------------------------------------------------------------------------
# subcommands: each maps its resolved configuration to (outputs, extra), the
# text of every output file by name and the extra manifest fields.  The
# layers that a single command runs (sdp, criteria, witness) are imported
# inside it, so the other commands never compile them.

BOUNDS_DEFAULTS = {"k_list": [2, 3, 4, 5], "n_max": 30}


def cmd_bounds(cfg: dict) -> tuple[dict, dict]:
    n_max = _int_at_least(cfg, "n_max", 0)
    _floats(cfg, "k_list")
    k_list = [_int_at_least({"k_list": k}, "k_list", 1) for k in cfg["k_list"]]
    lines = ["K,classical_bound,classical_bound_float,quantum_max_truncated,n_max"]
    print(f"{'K':>3} {'classical':>12} {'quantum max':>14}  (truncation {n_max})")
    for k in k_list:
        bound = classical_bound(k)
        p_max, _ = max_score(k, n_max)
        print(f"{k:>3} {str(bound):>12} {p_max:>14.9f}")
        lines.append(f"{k},{bound},{float(bound):.12g},{p_max:.12g},{n_max}")
    return {"bounds.csv": "\n".join(lines) + "\n"}, {}


SIMULATE_DEFAULTS = {
    "distribution": {"kind": "gaussian", "scale": 1.0},
    "m1": 1.0, "m2": 1.0, "omega1": 1.0, "omega2": 1.0, "g": 0.0,
    "theta": 0.7853981633974483,  # pi/4; used only when the angle is free
    "K": 3, "sigma": "+", "t0": 0.0,
    "n_rounds": 100000, "n_seeds": 1, "seed": 1,
}


def cmd_simulate(cfg: dict) -> tuple[dict, dict]:
    k = _int_at_least(cfg, "K", 1)
    n_rounds = _int_at_least(cfg, "n_rounds", 1)
    n_seeds = _int_at_least(cfg, "n_seeds", 1)
    first_seed = _int_at_least(cfg, "seed", 0)
    system = [_positive(cfg, key) for key in ("m1", "m2", "omega1", "omega2")]
    system.append(_float(cfg, "g"))
    theta, t0 = _float(cfg, "theta"), _float(cfg, "t0")
    if cfg["sigma"] not in ("+", "-"):
        raise ConfigError(f"sigma must be '+' or '-', not {cfg['sigma']!r}")
    dist = _distribution_from_config(cfg["distribution"])
    try:
        spec = normal_mode_params(*system)
    except DegenerateAngle:
        spec = normal_mode_params(*system, theta=theta)
    protocol = ProtocolSpec(k, cfg["sigma"], t0)
    records = []
    for i in range(n_seeds):
        seed = first_seed + i
        est = simulate_classical_score(dist, spec, protocol, n_rounds, seed)
        records.append({
            "descriptor": dist.descriptor, "K": protocol.K,
            "theta": spec.theta, "seed": seed,
            "n_rounds": n_rounds,
            "p_value": est.p_value, "stderr": est.stderr,
            "counts": [list(c) for c in est.counts],
        })
        bound = float(classical_bound(protocol.K))
        flag = "" if est.p_value <= bound + 4 * est.stderr else "  <-- BOUND EXCEEDED"
        print(f"seed={seed}: p={est.p_value:.6f} (stderr {est.stderr:.2g}, "
              f"classical bound {bound:.6f}){flag}")
    return {"simulate.json": json.dumps(records, sort_keys=True, indent=1) + "\n"}, {}


CERTIFY_DEFAULTS = {
    "K": 3, "n_max": 3,
    "theta_grid": None,  # defaults to 5 angles in [0, pi/4]
    "p_grid": None,      # defaults to 5 scores across the feasible range
    "tol": 1e-6, "threads": 1,
}


def cmd_certify(cfg: dict) -> tuple[dict, dict]:
    from .sdp import certify_csv, monotonicity_violations, sweep

    k = _int_at_least(cfg, "K", 1)
    n_max = _int_at_least(cfg, "n_max", 0)
    tol = _positive(cfg, "tol")
    threads = _int_at_least(cfg, "threads", 1)
    # the resolved grids go into cfg, so that the manifest records them
    if cfg["theta_grid"] is None:
        cfg["theta_grid"] = [i * math.pi / 16.0 for i in range(5)]
    if cfg["p_grid"] is None:
        # stay clear of the spectral edge, where solves are facial and slow
        p_top, _ = max_score(k, n_max)
        p_hi = 0.5 + 0.9 * (p_top - 0.5)
        cfg["p_grid"] = [0.5 + i * (p_hi - 0.5) / 4.0 for i in range(5)]
    cfg["theta_grid"] = _floats(cfg, "theta_grid")
    cfg["p_grid"] = _floats(cfg, "p_grid")
    if not all(0.0 <= p <= 1.0 for p in cfg["p_grid"]):
        raise ConfigError(f"p_grid values must lie in [0, 1]: {cfg['p_grid']}")
    cells = sweep(cfg["theta_grid"], cfg["p_grid"], k, n_max, tol=tol, threads=threads)
    solved = sum(sol.solved for _, _, sol in cells)
    certified = sum(sol.certified for _, _, sol in cells)
    print(f"{solved} cells solved; {certified} certify entanglement")
    print(f"monotonicity violations: {len(monotonicity_violations(cells))}")
    failed = [{"theta": theta, "p_target": p, "reason": sol.reason}
              for theta, p, sol in cells if sol.status == "failed"]
    return {"certify.csv": certify_csv(cells)}, {"failed_cells": failed}


COMPARE_DEFAULTS = {
    "K": 3, "theta": 0.7853981633974483, "n_max": 8,
    "states": [
        {"kind": "max_eigenstate"},
        {"kind": "family", "psi": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
         "support_mode": "levels"},
        {"kind": "family", "psi": [[0.7071067811865476, 0.0],
                                   [0.7071067811865476, 0.0]],
         "support_mode": "multiples"},
        {"kind": "vacuum"},
    ],
    "c_grid": None, "kappa_grid": [0.5, 1.0, 2.0], "sigma_grid": [0.5, 1.0, 2.0],
}

# state kind -> the keys it takes besides "kind"
STATE_KEYS = {"vacuum": set(), "max_eigenstate": set(), "family": {"psi", "support_mode"}}


def _state_spec(spec: dict) -> tuple:
    """(kind, psi, support mode) of one ``states`` entry, checked."""
    kind = spec.get("kind")
    if kind not in STATE_KEYS:
        raise ConfigError(f"unknown state kind {kind!r}")
    unknown = set(spec) - STATE_KEYS[kind] - {"kind"}
    if unknown:
        raise ConfigError(f"unknown state keys for {kind}: {sorted(unknown)}")
    if kind != "family":
        return kind, None, "levels"
    try:
        psi = np.array([complex(_number(re), _number(im)) for re, im in spec.get("psi")])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"psi must be a list of [re, im] pairs: {spec.get('psi')!r}") from exc
    mode = spec.get("support_mode", "levels")
    if mode not in ("levels", "multiples"):
        raise ConfigError(f"support_mode must be 'levels' or 'multiples', not {mode!r}")
    return kind, psi, mode


def _compare_row(label, state_physical, state_normal, cfg) -> str:
    """The ``compare.csv`` line of one state, also printed as a summary."""
    from .criteria import (
        abiuso_margin,
        duan_detects,
        hillery_zubairy_detects,
        moments,
        zhang_detects,
    )

    k = int(cfg["K"])
    score = score_state(state_normal, k)
    s_n = log_negativity(state_physical)
    m = moments(state_physical)
    _, duan, _ = duan_detects(m, cfg["c_grid"])
    try:
        zh = zhang_detects(m).detected
    except OscwitError:
        zh = False  # simplified test inapplicable (nonzero first moments)
    hz = hillery_zubairy_detects(m).detected
    abiuso = min(abiuso_margin(m, float(kp), float(sg))
                 for kp in cfg["kappa_grid"] for sg in cfg["sigma_grid"])
    # the score test witnesses entanglement only at the folded angle pi/4
    at_pi4 = abs(fold_theta(float(cfg["theta"])) - math.pi / 4) < 1e-12
    # strictly above c_K, by more than rounding: the floor of zhang and hz
    dew = at_pi4 and score - float(classical_bound(k)) > 1e-11
    print(f"{label:>28}: score={score:.4f} S_N={s_n:.4f} duan>{0 if duan > 0 else '!'}"
          f" zhang={zh} hz={hz} dew={dew}")
    return f"{label},{score:.12g},{s_n:.12g},{duan:.12g},{zh},{hz},{abiuso:.12g},{dew}"


def cmd_compare(cfg: dict) -> tuple[dict, dict]:
    from .criteria import family_state

    k = _int_at_least(cfg, "K", 1)
    n_max = _int_at_least(cfg, "n_max", 0)
    theta = _float(cfg, "theta")
    if cfg["c_grid"] is not None:
        _grid(cfg, "c_grid", "nonzero", lambda v: v != 0.0)
    _grid(cfg, "kappa_grid", "nonzero", lambda v: v != 0.0)
    _grid(cfg, "sigma_grid", "positive", lambda v: v > 0.0)
    specs = cfg["states"]
    if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
        raise ConfigError(f"states must be a list of objects: {specs!r}")
    if not specs:
        raise ConfigError("states must not be empty")
    lines = ["descriptor,score,s_n,duan_min_margin,zhang,hz,abiuso_min_margin,dew"]
    for kind, psi, mode in [_state_spec(spec) for spec in specs]:
        if kind == "vacuum":
            vac = np.zeros((n_max + 1) ** 2)
            vac[0] = 1.0
            lines.append(_compare_row("vacuum", TwoModeState.from_pure(vac, n_max, PHYSICAL),
                                      TwoModeState.from_pure(vac, n_max, NORMAL), cfg))
            continue
        if kind == "max_eigenstate":
            _, psi = max_score(k, n_max)
            label = f"max_eigenstate_n{n_max}"
        else:
            label = f"family_{mode}_{len(psi)}"
        fs = family_state(psi, K=k, theta=theta, n_max=n_max, support_mode=mode)
        lines.append(_compare_row(label, fs.state_physical, fs.state_normal, cfg))
    return {"compare.csv": "\n".join(lines) + "\n"}, {}


WITNESS_DEFAULTS = {
    "K": 3, "proj_level": 2, "parent_n_max": None,
    "erf_r_values": [0.0, 0.5, 1.0, 2.0],
    "probe_epsilon": 0.1, "probe_n_max": 40,
}


def cmd_witness(cfg: dict) -> tuple[dict, dict]:
    from .witness import (
        coherent_expectation,
        coherent_witness_erf,
        nondecomposability_check,
        optimality_probe,
    )

    k = _int_at_least(cfg, "K", 1)
    if k != 3:
        raise ConfigError(f"K must be 3, not {k}: the erf closed form exists for K = 3 only")
    proj = _int_at_least(cfg, "proj_level", 0)
    parent = (2 * proj + 2 if cfg["parent_n_max"] is None
              else _int_at_least(cfg, "parent_n_max", proj))
    r_values = _floats(cfg, "erf_r_values")
    epsilon = _positive(cfg, "probe_epsilon")
    probe_n_max = _int_at_least(cfg, "probe_n_max", 0)
    min_eig = nondecomposability_check(k, proj, parent)
    err = 0.0
    for r in r_values:
        err = max(err, abs(coherent_expectation(r, K=k) - coherent_witness_erf(r, K=k)))
    # P is the + mode identity: the probe keeps the - mode in vacuum
    r_star, probe_value = optimality_probe(identity_matrix(probe_n_max), epsilon, K=k)
    report = {
        "K": k, "proj_level": proj, "parent_truncation": parent,
        "min_eigenvalue": min_eig,
        "erf_check_max_abs_error": err,
        "optimality_probe": {
            "epsilon": epsilon,
            "r_star": r_star, "expectation": probe_value,
        },
    }
    print(f"projected partial-transpose minimum eigenvalue: {min_eig:+.6f} "
          f"(level {proj}, parent {parent})")
    print(f"erf closed-form max abs error: {err:.2e}")
    print(f"optimality probe: r={r_star:.2f} gives expectation {probe_value:.3e}")
    return {"witness.json": json.dumps(report, sort_keys=True, indent=1) + "\n"}, {}


# name -> (command, its configuration defaults)
COMMANDS = {
    "bounds": (cmd_bounds, BOUNDS_DEFAULTS),
    "simulate": (cmd_simulate, SIMULATE_DEFAULTS),
    "certify": (cmd_certify, CERTIFY_DEFAULTS),
    "compare": (cmd_compare, COMPARE_DEFAULTS),
    "witness": (cmd_witness, WITNESS_DEFAULTS),
}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscwit",
        description="Precession-protocol entanglement certification for "
                    "coupled oscillators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name in COMMANDS:
        p = subs[name] = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--out", default="oscwit_out", help="output directory")
    subs["simulate"].add_argument("--seed", type=int, default=None)
    subs["certify"].add_argument("--threads", type=int, default=None)
    subs["certify"].add_argument("--tol", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, defaults = COMMANDS[args.command]
    out_dir = Path(args.out)
    # checked up front, so that an unwritable --out costs no work
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        print(f"error: --out {args.out}: {existing} is not a directory", file=sys.stderr)
        return 2
    # each flag exists only on the subcommands whose defaults hold its key
    flags = {key: getattr(args, key, None) for key in ("seed", "threads", "tol")}
    try:
        cfg = _resolve_config(defaults, args.config, flags)
        outputs, extra = command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OscwitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (out_dir / name).write_text(text)
    _write_manifest(out_dir, args.command, cfg, list(outputs), **extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
