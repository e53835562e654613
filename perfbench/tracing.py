"""Span recorder for the benchmark's traced runs.

Wraps oscwit's public functions and the numpy.linalg / scipy.linalg entry
points from outside the package: nothing under ``src/`` knows it is being
traced.  Each name is patched where it is looked up, so a function that a
module bound with ``from ... import`` is replaced in that module too, and
``scipy.linalg.cho_factor`` (imported inside ``_SchurSolver`` at call time)
is replaced on ``scipy.linalg`` itself.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and
written out when the run ends; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _cube(a, *args, **kwargs) -> float:
    """Work of a dense factorisation or eigensolve: d**3 for a d x d matrix."""
    return float(a.shape[-1]) ** 3


def _rounds(dist, spec, protocol, n_rounds, *args, **kwargs) -> float:
    return float(n_rounds)


# (layer, module, attribute, work) -- ``attribute`` may be ``Class.method``.
TARGETS = [
    ("linalg", "numpy.linalg", "eigh", _cube),
    ("linalg", "numpy.linalg", "eigvalsh", _cube),
    ("linalg", "numpy.linalg", "cholesky", _cube),
    ("linalg", "numpy.linalg", "solve", None),
    ("linalg", "numpy.linalg", "inv", None),
    ("linalg", "scipy.linalg", "cho_factor", _cube),
    ("linalg", "scipy.linalg", "cho_solve", None),
    ("sdp", "oscwit.sdp", "build_problem", None),
    ("sdp", "oscwit.sdp", "solve", None),
    ("sdp", "oscwit.sdp", "sweep", None),
    ("sdp", "oscwit.sdp", "SdpProblem.phi", None),
    ("sdp", "oscwit.sdp", "SdpProblem.phi_adjoint", None),
    ("fock", "oscwit.fock", "partial_transpose_matrix", None),
    ("fock", "oscwit.fock", "log_negativity", None),
    ("modes", "oscwit.modes", "mode_rotation_unitary", None),
    ("modes", "oscwit.modes", "transform_state", None),
    ("protocol", "oscwit.protocol", "max_score", None),
    ("classical", "oscwit.classical", "simulate_classical_score", _rounds),
    ("criteria", "oscwit.criteria", "moments", None),
    ("criteria", "oscwit.criteria", "family_state", None),
    ("witness", "oscwit.witness", "nondecomposability_check", None),
    ("witness", "oscwit.witness", "optimality_probe", None),
    ("witness", "oscwit.witness", "coherent_expectation", None),
    ("cli", "oscwit.cli", "main", None),
]

SPAN_NAMES = [f"{layer}.{attr}" for layer, _, attr, _ in TARGETS]


class Tracer:
    """Records one span per call into each wrapped function."""

    def __init__(self):
        self.spans: list = []
        self.work = defaultdict(float)
        self.failed = defaultdict(int)
        self.run_id = ""
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer, module_name, attr, work in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            fname = attr
            if "." in attr:
                cls_name, fname = attr.split(".")
                owner = getattr(module, cls_name)
            orig = getattr(owner, fname)
            wrapped = self._wrap(f"{layer}.{attr}", orig, work)
            self._patch(owner, fname, wrapped)
            if owner is not module:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is module or not mod_name.startswith("oscwit"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def merge(self, data: dict, run_id: str) -> None:
        """Add the spans and counters another process wrote with ``dump``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, run_id])
        for name, value in data["work"].items():
            self.work[name] += value
        for name, value in data["failed"].items():
            self.failed[name] += value

    def dump(self) -> dict:
        return {"spans": self.spans, "work": dict(self.work), "failed": dict(self.failed)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out
