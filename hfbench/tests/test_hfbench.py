"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python -m pytest hfbench/tests -q
"""

import configparser
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import layers
import run
from workloads import WORKLOADS, cli_args, config_seed, config_text, write_config

from conftest import HFBENCH, ROOT

SEED = 5


def _run_child(workload, tmp_path, trace=0):
    """Run the tiny workload once, keep its outputs; return (outdir, rc, stats)."""
    config = write_config(workload, SEED, str(tmp_path), size="tiny")
    outdir = str(tmp_path / "out")
    stats_path = str(tmp_path / "stats.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HFBENCH, "child.py"), stats_path,
         str(trace)] + cli_args(workload, config, outdir),
        env=run.child_env(ROOT), cwd=ROOT, capture_output=True, timeout=120)
    with open(stats_path) as fh:
        return outdir, proc.returncode, json.load(fh)


def _check(workload, outdir, rc):
    return checks.check(workload, workload.tiny, outdir, rc, config_seed(SEED))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_independent_check(name, tmp_path):
    workload = WORKLOADS[name]
    outdir, rc, stats = _run_child(workload, tmp_path)
    assert rc == 0
    ops = _check(workload, outdir, rc)
    assert [op.problems for op in ops] == [[] for _ in ops]
    levels = str(workload.tiny.get("levels", "x")).count(",") + 1
    assert len(ops) == levels
    assert stats["builds"] == (levels + 1 if workload.command == "study" else 1)
    assert 0.0 < stats["setup_s"]


def _perturb_last_snapshot(outdir, cell, delta):
    snaps = sorted(p for p in os.listdir(outdir) if p.startswith("snapshot_"))
    path = os.path.join(outdir, snaps[-1])
    with open(path) as fh:
        lines = fh.read().split("\n")
    row = lines[2 + cell].split(",")
    row[-1] = repr(float(row[-1]) + delta)
    lines[2 + cell] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _write_initial_state_into_last_snapshot(outdir):
    """Replace the last snapshot's states by the first one's.  Mass,
    bounds, entropy and final time still hold; only the solution is
    wrong."""
    snaps = sorted(p for p in os.listdir(outdir) if p.startswith("snapshot_"))
    rows = []
    for name in (snaps[0], snaps[-1]):
        with open(os.path.join(outdir, name)) as fh:
            rows.append(fh.read().split("\n"))
    first, last = rows
    for i in range(2, len(last)):
        if last[i]:
            last[i] = ",".join(last[i].split(",")[:-1]
                               + first[i].split(",")[-1:])
    with open(os.path.join(outdir, snaps[-1]), "w") as fh:
        fh.write("\n".join(last))


# "cell": one cell moved by 0.05, which breaks the mass first.  "initial":
# the initial state written at t = T, which keeps mass, bounds and entropy,
# so that only the error against the independent solution can catch it.
PERTURBATIONS = [(name, "cell") for name in sorted(WORKLOADS)] + [
    (name, "initial") for name in ("adv2d-run", "burgers-study", "godunov-run")]


@pytest.mark.parametrize("name,how", PERTURBATIONS)
def test_perturbed_snapshot_fails_the_check_and_counts_as_failed(
        name, how, tmp_path):
    workload = WORKLOADS[name]
    outdir, rc, _ = _run_child(workload, tmp_path)
    target = outdir
    if workload.command == "study":
        last = workload.tiny["levels"].split(",")[-1].strip()
        target = os.path.join(outdir, f"level_{last}")
    if how == "cell":
        _perturb_last_snapshot(target, cell=3, delta=0.05)
    else:
        _write_initial_state_into_last_snapshot(target)
    ops = _check(workload, outdir, rc)
    failed = [op for op in ops if not op.ok]
    assert failed, "a perturbed snapshot passed the independent check"
    if how == "initial":
        problems = ops[-1].problems
        assert any(p.startswith("final L2 error") and "above tolerance" in p
                   for p in problems), problems
        # the study's slope check may fail with it, nothing else may
        assert all(p.startswith(("final L2 error", "errors "))
                   for p in problems), problems
    rnd = {"ops": ops, "wall_s": 1.0, "setup_s": 0.1, "rss_mb": 1.0,
           "cell_updates": 1, "scale": 1.0}
    result = run.summarize([rnd], trace=False)
    assert result["failed"] == len(failed) >= 1
    # the program reported success on an output the check rejects
    assert result["correct"] is False


def test_nonzero_exit_fails_every_level(tmp_path):
    workload = WORKLOADS["burgers-study"]
    ops = checks.check(workload, workload.tiny, str(tmp_path / "none"), 4, SEED)
    assert len(ops) == 3 and not any(op.ok or op.exited_ok for op in ops)
    assert run.summarize([{"ops": ops, "wall_s": 1.0, "setup_s": 0.1,
                           "rss_mb": 1.0, "cell_updates": 0, "scale": 1.0}],
                         trace=False)["correct"] is True


# counts named in the README: (problem builds, flux evaluations per step,
# reference means per step)
EXPECTED_COUNTS = {
    "burgers-study": (4, 12.0, 2.0),   # 3 tiny levels + 1 validation build
    "adv2d-run": (1, 12.0, 2.0),
    "sw-run": (1, 12.0, 0.0),
    "godunov-run": (1, 4.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_are_exact_and_repeat(name, tmp_path):
    workload = WORKLOADS[name]
    got = []
    for k in range(2):
        outdir, rc, stats = _run_child(workload, tmp_path / str(k), trace=1)
        assert rc == 0
        metrics = layers.layer_metrics(stats["spans"], workload.tiny["t"])
        assert set(metrics) == set(layers.UNITS) - {"traced_wall_s"}
        got.append({c: metrics[c] for c in layers.COUNTS})
        runs = [s[4] for s in stats["spans"] if s[0] == "solver.run"]
        # the largest level keeps every step
        assert metrics["solver.snapshots_retained"] == max(
            r["steps"] for r in runs) + 1
    assert got[0] == got[1]
    builds, evals, means = EXPECTED_COUNTS[name]
    assert got[0]["cli.problem_builds"] == builds
    assert got[0]["systems.flux_evals_per_step"] == evals
    assert got[0]["diagnostics.reference_means_per_step"] == means


def test_run_prints_one_json_line_with_every_metric():
    for trace, names in ((0, ["wall_s", "setup_s", "cell_updates_per_s",
                              "peak_rss_mb"]), (1, list(layers.UNITS))):
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HFBENCH, "run.py"), "--workload",
             "godunov-run", "--seed", "3", "--seconds", "0", "--trace",
             str(trace), "--size", "tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        res = json.loads(stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["attempted"] == 1
        assert res["failed"] == 0
        assert sorted(res["metrics"]) == sorted(names)
        # the run removed its outputs
        assert not os.path.exists(
            os.path.join(ROOT, ".hfbench", f"godunov-run-{proc.pid}"))


def test_times_are_rescaled_by_the_calibration():
    rnd = {"ops": [], "wall_s": 2.0, "setup_s": 0.5, "rss_mb": 7.0,
           "cell_updates": 300, "scale": 0.5}
    m = run.summarize([rnd], trace=False)["metrics"]
    assert m["wall_s"]["value"] == 1.0 and m["setup_s"]["value"] == 0.25
    assert m["cell_updates_per_s"]["value"] == 400.0
    assert m["peak_rss_mb"]["value"] == 7.0


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.UNITS)
    assert [m["unit"] for m in bench["per_layer"]] == list(layers.UNITS.values())
    # burgers-study is defined but left out (README)
    assert [w["name"] for w in bench["workloads"]] == [
        name for name in WORKLOADS if name != "burgers-study"]


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HFBENCH, tmp_path / "hfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "hfbench/run.py", "--workload", "sw-run", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


# config diffs against the shipped configs, as the README states them
SHIPPED = {
    "burgers-study": ("burgers1d_study.ini",
                      {("study", "levels"): "256, 512, 1024, 2048"}),
    "adv2d-run": ("advection2d.ini",
                  {("run", "nx"): "128", ("run", "ny"): "128",
                   ("output", "snapshots"): "ends"}),
    "sw-run": ("shallow_water1d.ini", {}),
    "godunov-run": ("burgers1d.ini",
                    {("run", "n_cells"): "1024", ("flux", "name"): "godunov",
                     ("flux", "c"): None, ("output", "snapshots"): "ends"}),
}


def _flat(text):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(text)
    return {(s, k): v for s in cp.sections() for k, v in cp.items(s)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_differs_from_the_shipped_one_as_documented(name):
    fname, diff = SHIPPED[name]
    with open(os.path.join(ROOT, "configs", fname)) as fh:
        expected = _flat(fh.read())
    section = "study" if name == "burgers-study" else "run"
    expected[(section, "seed")] = str(config_seed(SEED))
    for key, value in diff.items():
        if value is None:
            expected.pop(key)
        else:
            expected[key] = value
    assert _flat(config_text(WORKLOADS[name], SEED)) == expected


def test_burgers_exact_solution_and_quadrature():
    x = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(checks.burgers_exact(x, 0.0), checks.burgers_u0(x))
    t = 0.2
    u = checks.burgers_exact(x, t)
    # the characteristic through (x, t) starts at y = x - u t with u0(y) = u
    assert np.abs(checks.burgers_u0(x - u * t) - u).max() < 1e-14
    means = checks.gauss_cell_means(lambda y: np.sin(2 * np.pi * y), 16)
    exact = (np.cos(2 * np.pi * np.arange(16) / 16)
             - np.cos(2 * np.pi * np.arange(1, 17) / 16)) * 16 / (2 * np.pi)
    assert np.abs(means - exact).max() < 1e-13


def test_rebuilt_jittered_mesh_matches_build_perturbed_quad_2d():
    import hypflux as hf
    for seed in (0, 7, 2 ** 31 - 1):
        mesh = hf.build_perturbed_quad_2d(9, 9, 1.0, 1.0, 0.15, seed)
        area, cents = checks.jittered_quad_geometry(9, 0.15, seed)
        assert np.abs(area - mesh.cell_volumes).max() < 1e-15
        assert np.abs(cents - mesh.cell_centroids).max() < 1e-15
        assert abs(area.sum() - 1.0) < 1e-13
