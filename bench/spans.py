"""In-memory span tracer that wraps acflow's layer functions from outside.

Each wrapped call records one span: its name, start, end and the span that
caused it (the innermost wrapped call still open).  Spans are appended to flat
arrays while the program runs and are only summarised and written out after
it returns, so the per-call cost is two clock reads and four appends.

The tracer keeps one call stack, so it is correct only for single-threaded
runs (``--workers 1``), which is how the benchmark invokes the CLI.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (object that holds the attribute, attribute, span name).  Functions are
# patched at every site that calls them: a name bound by ``from ... import``
# in another module is a separate reference and must be patched there too.
PATCHES = (
    ("acflow.cli", "main", "cli.main"),
    ("acflow.cli", "load_config", "config.load_config"),
    ("acflow.cli", "write_csv", "config.write_csv"),
    ("acflow.cli", "write_json_report", "config.write_json_report"),
    ("acflow.cli", "build_spaces", "spaces.build_spaces"),
    ("acflow.cli", "write_snapshot", "integrator.write_snapshot"),
    ("acflow.cli", "simulate_paths", "diagnostics.simulate_paths"),
    ("acflow.cli", "mc_energy_bound", "diagnostics.mc_energy_bound"),
    ("acflow.cli", "epsilon_sweep", "eps_limit.epsilon_sweep"),
    # integrator re-imports bhat_operator from acflow.operators on every call
    ("acflow.operators", "bhat_operator", "operators.bhat_operator"),
    ("acflow.integrator", "cho_solve", "integrator.cho_solve"),
    ("acflow.forcing", "sample_increment", "forcing.sample_increment"),
    ("acflow.integrator", "sample_increment", "forcing.sample_increment"),
    ("acflow.diagnostics", "sample_increment", "forcing.sample_increment"),
    ("acflow.eps_limit", "sample_increment", "forcing.sample_increment"),
    ("acflow.integrator", "noise_contribution", "forcing.noise_contribution"),
    ("acflow.eps_limit", "noise_contribution", "forcing.noise_contribution"),
    (
        "acflow.eps_limit",
        "run_incompressible_reference",
        "eps_limit.run_incompressible_reference",
    ),
    ("acflow.eps_limit", "leray_projector", "eps_limit.leray_projector"),
    (
        "acflow.integrator:GalerkinIntegrator",
        "__init__",
        "integrator.GalerkinIntegrator.__init__",
    ),
    ("acflow.integrator:GalerkinIntegrator", "step", "integrator.step"),
    ("acflow.integrator:GalerkinIntegrator", "run_path", "integrator.run_path"),
    ("acflow.spaces:SpectralSpaces", "l4_norm", "spaces.l4_norm"),
    ("acflow.spaces:SpectralSpaces", "pressure_l2", "spaces.pressure_l2"),
    ("acflow.spaces:SpectralSpaces", "divergence_l2", "spaces.divergence_l2"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))
ROOT = "cli.main"


def _resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name: str, fn):
        nid = self.name_ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Patch every call site; returns the sites that no longer exist, whose
        calls then go unrecorded (the coverage check reports the gap)."""
        absent = []
        for target, attr, name in PATCHES:
            owner = _resolve(target)
            original = vars(owner).get(attr)
            if original is None:
                absent.append(f"{target}.{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))
        return absent

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Calls and self time per span name; self time is the span's
        duration minus the durations of its direct children."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_time, minlength=n)
        return {
            span: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, span in enumerate(SPAN_NAMES)
        }

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
