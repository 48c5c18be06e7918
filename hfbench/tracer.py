"""Spans around the calls into each hypflux module, recorded from outside.

`install()` replaces the public functions of the layers listed in
`TARGETS` with wrappers that record a span (name, start, end, parent,
attributes) and re-binds every module-level name that refers to them, so
that calls made through `from .mesh import build_uniform_1d` copies are
caught too.  Nothing inside `src/hypflux` changes.  Spans are kept in
memory as lists and written out once, when the traced process ends.

The attributes carry the sizes the per-layer metrics divide by (cells,
interfaces, steps, rows, points) and, for `solver.run`, how many calls
of `SystemModel.directional_flux` happened inside it.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# layer -> public functions wrapped with a span
TARGETS = {
    "cli": ["run_single", "run_study", "execute_run", "build_problem",
            "_write_snapshots"],
    "mesh": ["build_uniform_1d", "build_uniform_quad_2d",
             "build_perturbed_quad_2d", "validate_mesh"],
    "systems": ["make_advection", "make_burgers", "make_friedrichs",
                "make_shallow_water_1d", "compute_lf"],
    "numflux": ["make_rusanov", "make_godunov_scalar"],
    "solver": ["run", "project_initial", "compute_dt",
               "interface_flux_records"],
    "diagnostics": ["accumulate_step", "measure_masses", "projection_masses",
                    "cone_l2_error", "reference_cell_means",
                    "relative_entropy_norm", "squared_l2_cell_error",
                    "fit_rate", "wbv_scaling_report",
                    "measure_scaling_report"],
    "reference": ["exact_advection", "exact_burgers", "exact_friedrichs",
                  "fine_grid_reference"],
}


class Tracer:
    """In-memory span store.  A span is [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.flux_evals = 0

    def open(self, name, attrs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()


def _attrs_before(name, args):
    """Sizes known from the arguments, recorded when the span opens."""
    if name == "solver.interface_flux_records":
        return {"ifaces": int(args[0].n_interfaces)}
    if name == "diagnostics.accumulate_step":
        return {"cells": int(args[1].n_cells)}
    if name == "cli._write_snapshots":
        mesh, traj, mode = args[1], args[3], args[4]
        snaps = {"all": len(traj.snapshots), "ends": 2, "none": 0}[mode]
        return {"rows": snaps * int(mesh.n_cells)}
    if name == "diagnostics.reference_cell_means":
        return {"t": float(args[2])}
    if name == "solver.run":
        return {"cells": int(args[0].n_cells)}
    return {}


def _attrs_after(name, result, attrs):
    if name == "solver.run":
        snaps = result.snapshots
        attrs["steps"] = int(result.n_steps)
        attrs["snapshots"] = len(snaps)
        attrs["trajectory_bytes"] = int(sum(f.values.nbytes for _, f in snaps))
    elif name == "cli.execute_run":
        attrs["passed"] = bool(result["passed"])


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = _attrs_before(name, args)
        if name == "solver.run":
            evals0 = tracer.flux_evals
        idx = tracer.open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if name == "solver.run":
            attrs["flux_evals"] = tracer.flux_evals - evals0
        if name.startswith("reference."):
            result.eval = _wrap_eval(tracer, result.eval)
        _attrs_after(name, result, attrs)
        return result

    return wrapper


def _wrap_eval(tracer, evalfn):
    def traced_eval(x, t):
        idx = tracer.open("reference.eval",
                          {"points": int(np.prod(np.shape(x)[:-1]))})
        try:
            return evalfn(x, t)
        finally:
            tracer.close(idx)

    return traced_eval


def install(tracer: Tracer) -> None:
    """Wrap every target and re-bind all references inside hypflux."""
    import hypflux.cli  # noqa: F401  (loads every submodule)
    from hypflux import systems

    modules = [m for key, m in sys.modules.items()
               if key == "hypflux" or key.startswith("hypflux.")]
    replace = {}
    for layer, names in TARGETS.items():
        mod = sys.modules[f"hypflux.{layer}"]
        for fname in names:
            fn = getattr(mod, fname)
            replace[id(fn)] = _wrap(tracer, f"{layer}.{fname}", fn)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if id(value) in replace and callable(value):
                setattr(mod, key, replace[id(value)])

    # class methods: a count for the flux, a span for the admissibility test
    flux = systems.SystemModel.directional_flux

    def counted_flux(self, u, n):
        tracer.flux_evals += 1
        return flux(self, u, n)

    systems.SystemModel.directional_flux = counted_flux

    check = systems.StateField.check_admissible

    def traced_check(self, sysm, tol=1e-12):
        idx = tracer.open("systems.check_admissible",
                          {"cells": int(self.values.shape[0])})
        try:
            return check(self, sysm, tol)
        finally:
            tracer.close(idx)

    systems.StateField.check_admissible = traced_check
