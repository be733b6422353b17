"""Span recorder for a traced benchmark execution.

``Tracer.install`` wraps every public function of the evoheat modules (the names
in each module's ``__all__``) and rebinds the wrapper wherever a module holds
the function: ``from .linalg import cg_solve`` copies the binding into
``evoheat.scheme``, so patching ``evoheat.linalg`` alone would miss the calls
made from there.  Module-level dicts (the CLI's command table) are patched too.

Each call records one span: function id, parent span, start and end.  Spans
live in flat arrays in memory and are written once, at the end.  Self time is
a span's duration minus the durations of its direct children; a function's
module is its layer.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("geometry", "profiles", "linalg", "scheme", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self.fn_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        self.names.append(fn.__name__)
        self.layers.append(layer)
        fn_id, parent, start, end, stack = (self.fn_id, self.parent, self.start,
                                            self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(fn_id)
            fn_id.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self, package: types.ModuleType) -> int:
        """Wrap the package's public functions at every binding; returns the rebind count."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, layer)
        rebound = 0
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    rebound += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            value[key] = wrappers[item]
                            rebound += 1
        return rebound

    def save(self, path: str) -> None:
        np.savez_compressed(path, fn_id=np.asarray(self.fn_id), parent=np.asarray(self.parent),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            names=np.array(self.names), layers=np.array(self.layers))

    def summary(self, wall_s: float, n_vertices: int, n_edges: int) -> dict:
        """Per-layer metrics of one traced call that took ``wall_s``."""
        fn_id = np.asarray(self.fn_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        n = len(dur)
        has_parent = parent >= 0
        child_dur = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_dur = dur - child_dur
        ids = {name: i for i, name in enumerate(self.names)}
        parent_fn = np.where(has_parent, fn_id[np.maximum(parent, 0)], -1)

        def mask(name, under=None):
            m = fn_id == ids.get(name, -2)
            if under is not None:
                m &= parent_fn == ids.get(under, -2)
            return m

        def count(name, under=None):
            return int(np.count_nonzero(mask(name, under)))

        def total(name, under=None):
            return float(dur[mask(name, under)].sum())

        def self_total(name):
            return float(self_dur[mask(name)].sum())

        layer_of = np.array([LAYERS.index(layer) for layer in self.layers], dtype=np.int64)
        layer_self = np.bincount(layer_of[fn_id], weights=self_dur, minlength=len(LAYERS))

        solves = count("cg_solve")
        matvec = mask("stiffness_apply", under="cg_solve")
        matvecs = int(np.count_nonzero(matvec))
        steps = mask("euler_step")
        cg_in_step = mask("cg_solve", under="euler_step")
        cg_per_step = np.bincount(parent[cg_in_step], weights=dur[cg_in_step], minlength=n)

        metrics = {f"{layer}.self_s": float(layer_self[i]) for i, layer in enumerate(LAYERS)}
        metrics.update({
            "linalg.solves": solves,
            "linalg.matvecs": matvecs,
            "linalg.matvecs_per_solve": matvecs / solves if solves else 0.0,
            "linalg.solve_s": total("cg_solve"),
            "linalg.matvec_s": float(dur[matvec].sum()),
            # computed, not measured: reads of x, mass, coeffs and the int64 edge
            # pairs plus the write of the result, 8 * (3n + 3E) bytes per mat-vec
            "linalg.matvec_bytes_computed": matvecs * 8 * (3 * n_vertices + 3 * n_edges),
            "scheme.steps": int(np.count_nonzero(steps)),
            "scheme.run_s": total("run_interpolated"),
            "scheme.step_self_s": float((dur[steps] - cg_per_step[steps]).sum()),
            "geometry.build_s": total("build_scenario"),
            "geometry.coeff_calls": count("vertex_weights") + count("edge_conductances"),
            "geometry.coeff_s": total("vertex_weights") + total("edge_conductances"),
            "geometry.energy_calls": count("dirichlet_energy"),
            "geometry.growth_bound_s": total("volume_growth_bound"),
            "profiles.initial_s": total("make_initial_data"),
            "verify.energy_s": total("energy_estimate"),
            "verify.extremum_s": total("extremum_check"),
            "verify.contraction_self_s": self_total("contraction_check"),
            "verify.weak_residual_s": total("weak_residual"),
            "verify.attainment_s": total("initial_attainment_check"),
            "verify.chain_error_s": total("chain_error_vs_oracle"),
            "verify.oracle_s": total("semidiscrete_oracle"),
            "verify.oracle_rhs_evals": count("stiffness_apply", under="semidiscrete_oracle"),
            "trace.unattributed_s": float(wall_s - layer_self.sum()),
        })
        return metrics
