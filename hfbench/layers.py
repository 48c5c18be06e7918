"""Per-layer metrics from the spans of one traced command.

A span is [name, start, end, parent, attrs] (tracer.py).  Times are sums
of span durations; rates divide them by the work the attributes record.
Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

from collections import defaultdict

# metric -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "cli.problem_builds": "count",
    "cli.snapshot_us_per_row": "us",
    "mesh.build_s": "s",
    "mesh.validate_s": "s",
    "systems.make_system_s": "s",
    "systems.compute_lf_s": "s",
    "systems.flux_evals_per_step": "count",
    "systems.admissibility_ns_per_cell": "ns",
    "numflux.make_scheme_s": "s",
    "solver.records_ns_per_iface": "ns",
    "solver.update_ns_per_cell": "ns",
    "solver.snapshots_retained": "count",
    "solver.trajectory_mb": "MB",
    "diagnostics.ledger_ns_per_cell": "ns",
    "diagnostics.cone_l2_s": "s",
    "diagnostics.measure_masses_s": "s",
    "diagnostics.reference_means_per_step": "count",
    "reference.build_s": "s",
    "reference.eval_ns_per_point": "ns",
    "traced_wall_s": "s",
}

# metrics that count work rather than time: they must repeat exactly
COUNTS = ("cli.problem_builds", "systems.flux_evals_per_step",
          "solver.snapshots_retained", "solver.trajectory_mb",
          "diagnostics.reference_means_per_step")

MESH_BUILDERS = ("mesh.build_uniform_1d", "mesh.build_uniform_quad_2d",
                 "mesh.build_perturbed_quad_2d")


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans, final_time):
    """Every per-layer metric except traced_wall_s, from one command."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for name, t0, t1, _, attrs in spans:
        dur[name] += t1 - t0
        calls[name] += 1
        for key in ("cells", "ifaces", "rows", "points"):
            if key in attrs:
                work[name] += attrs[key]
    runs = [s[4] for s in spans if s[0] == "solver.run"]
    steps = sum(r["steps"] for r in runs)
    cell_steps = sum(r["steps"] * r["cells"] for r in runs)
    # reference means taken at a step's start time t^n < T; the one taken
    # at the final time belongs to no step
    ref_means = sum(1 for s in spans if s[0] == "diagnostics.reference_cell_means"
                    and s[4]["t"] < final_time * (1 - 1e-12))
    return {
        "cli.problem_builds": calls["cli.build_problem"],
        "cli.snapshot_us_per_row": _per(dur["cli._write_snapshots"],
                                        work["cli._write_snapshots"], 1e6),
        "mesh.build_s": sum((dur[n] for n in MESH_BUILDERS), 0.0),
        "mesh.validate_s": dur["mesh.validate_mesh"],
        "systems.make_system_s": sum((v for k, v in dur.items()
                                      if k.startswith("systems.make_")), 0.0),
        "systems.compute_lf_s": dur["systems.compute_lf"],
        "systems.flux_evals_per_step": _per(sum(r["flux_evals"] for r in runs),
                                            steps),
        "systems.admissibility_ns_per_cell": _per(
            dur["systems.check_admissible"], work["systems.check_admissible"],
            1e9),
        "numflux.make_scheme_s": sum((v for k, v in dur.items()
                                      if k.startswith("numflux.make_")), 0.0),
        "solver.records_ns_per_iface": _per(
            dur["solver.interface_flux_records"],
            work["solver.interface_flux_records"], 1e9),
        "solver.update_ns_per_cell": _per(self_time(spans, "solver.run"),
                                          cell_steps, 1e9),
        "solver.snapshots_retained": max((r["snapshots"] for r in runs),
                                         default=0),
        "solver.trajectory_mb": max((r["trajectory_bytes"] for r in runs),
                                    default=0) / 1e6,
        "diagnostics.ledger_ns_per_cell": _per(
            dur["diagnostics.accumulate_step"],
            work["diagnostics.accumulate_step"], 1e9),
        "diagnostics.cone_l2_s": dur["diagnostics.cone_l2_error"],
        "diagnostics.measure_masses_s": dur["diagnostics.measure_masses"],
        "diagnostics.reference_means_per_step": _per(ref_means, steps),
        "reference.build_s": sum((v for k, v in dur.items()
                                  if k.startswith("reference.")
                                  and k != "reference.eval"), 0.0),
        "reference.eval_ns_per_point": _per(dur["reference.eval"],
                                            work["reference.eval"], 1e9),
    }


def _child_time(spans):
    child = defaultdict(float)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return child


def self_time(spans, name):
    """Summed self time of the spans called `name`."""
    child = _child_time(spans)
    return sum(s[2] - s[1] - child[i] for i, s in enumerate(spans)
               if s[0] == name)


def layer_shares(spans):
    """Self time per layer (the module part of each span name), seconds."""
    child = _child_time(spans)
    out = defaultdict(float)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += t1 - t0 - child[i]
    return dict(out)
