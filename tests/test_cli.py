import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import hypflux as hf
import hypflux.cli as cli
from hypflux.errors import AdmissibilityError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

BURGERS_RUN = """
[run]
problem = burgers1d
n_cells = 64
t = 0.1
zeta = 0.1
record_every = 1
seed = 7
r = 10.0

[initial]
kind = sine
mean = 0.5
amplitude = 0.25

[flux]
name = rusanov
c = auto

[output]
dir = out
reference = exact
"""

CONSTANT_RUN = """
[run]
problem = advection1d
n_cells = 16
t = 0.1
seed = 1

[initial]
kind = constant
value = 0.75

[system]
speed = 1.0

[flux]
name = godunov

[output]
dir = out
"""

ADVECTION_STUDY = """
[study]
problem = advection1d
levels = 32, 64, 128, 256
t = 0.25
zeta = 0.1
seed = 5
r = 10.0

[initial]
kind = sine
mean = 0.2
amplitude = 0.5

[system]
speed = 1.0

[flux]
name = godunov

[output]
dir = study_out
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hypflux", *args],
                          capture_output=True, text=True)


def test_config_round_trip_fixed_point():
    cfg = cli.parse_config_text(BURGERS_RUN)
    text = cli.serialize_config(cfg)
    assert cli.parse_config_text(text) == cfg
    # serialize is a fixed point once canonicalized
    assert cli.serialize_config(cli.parse_config_text(text)) == text


def test_parse_error_reports_key(tmp_path):
    path = write(tmp_path, "bad.ini", "[run]\nproblem = burgers1d\n")
    assert cli.run_single(path, output_dir=str(tmp_path / "o")) == cli.EXIT_PARSE


def test_garbage_config_is_parse_error(tmp_path):
    path = write(tmp_path, "garbage.ini", "not an ini [[[")
    assert cli.run_single(path) == cli.EXIT_PARSE


def test_zeta_out_of_range_is_validation_error(tmp_path):
    text = BURGERS_RUN.replace("zeta = 0.1", "zeta = 1.5")
    path = write(tmp_path, "z.ini", text)
    assert cli.run_single(path, output_dir=str(tmp_path / "o")) == cli.EXIT_VALIDATION


def test_unknown_problem_is_validation_error(tmp_path):
    text = BURGERS_RUN.replace("burgers1d", "kdv")
    path = write(tmp_path, "p.ini", text)
    assert cli.validate_only(path) == cli.EXIT_VALIDATION


def test_validate_accepts_shipped_configs():
    for name in ("burgers1d.ini", "constant.ini", "shallow_water1d.ini",
                 "friedrichs1d.ini", "advection2d.ini", "burgers1d_study.ini"):
        assert cli.validate_only(os.path.join(CONFIG_DIR, name)) == cli.EXIT_OK


def test_constant_run_all_zero_diagnostics(tmp_path):
    path = write(tmp_path, "c.ini", CONSTANT_RUN)
    out = str(tmp_path / "out")
    assert cli.run_single(path, output_dir=out) == cli.EXIT_OK
    ledger = json.load(open(os.path.join(out, "ledger.json")))
    assert ledger["wbv_sq"] == 0.0
    assert ledger["wbv_l1"] == 0.0
    assert ledger["entropy_residual_max"] == 0.0
    assert ledger["mu0_mass"] == 0.0
    assert ledger["mu_t_mass"] == 0.0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["passed"] is True
    assert report["errors"]["cone_l2"] == 0.0


def test_burgers_run_report_contents(tmp_path):
    path = write(tmp_path, "b.ini", BURGERS_RUN)
    out = str(tmp_path / "out")
    assert cli.run_single(path, output_dir=out) == cli.EXIT_OK
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["ledger"]["entropy_residual_max_scaled"] <= 1e-10
    assert report["flags"]["dissipation_gap"] is True
    assert report["flags"]["mbeta_bracket"] is True
    assert report["errors"]["l2_spacetime"] > 0
    md = report["metadata"]
    assert md["n_steps"] * md["dt"] == pytest.approx(md["T"], rel=1e-14)
    # snapshots exist with the expected layout
    snap0 = open(os.path.join(out, "snapshot_000000.csv")).read().splitlines()
    assert snap0[1] == "cell_id,x,u_0"
    assert len(snap0) == 2 + 64


class _EndsOnly(list):
    """Snapshot list that lets a caller read only the first and last state."""

    def __iter__(self):
        raise AssertionError("the trajectory was walked after the run")

    def __getitem__(self, i):
        if not (isinstance(i, int) and i in (0, -1, len(self) - 1)):
            raise AssertionError(f"snapshot {i!r} read after the run")
        return super().__getitem__(i)


def test_run_takes_one_reference_mean_per_level(monkeypatch):
    # the error functionals are folded into the step loop: one reference
    # evaluation per time level t^0..t^N, and after solver.run nothing
    # reads more than the first and last state
    means = []
    ref_means = cli.diag.reference_cell_means
    run = cli.solver.run

    def counted_means(*args, **kwargs):
        means.append(args[2])
        return ref_means(*args, **kwargs)

    def guarded_run(*args, **kwargs):
        traj = run(*args, **kwargs)
        assert len(traj.snapshots) == traj.n_steps + 1  # record_every = 1
        traj.snapshots = _EndsOnly(traj.snapshots)
        return traj

    monkeypatch.setattr(cli.diag, "reference_cell_means", counted_means)
    monkeypatch.setattr(cli.solver, "run", guarded_run)
    report = cli.execute_run(cli.parse_config_text(BURGERS_RUN))
    md = report["metadata"]
    assert len(means) == md["n_steps"] + 1
    assert means == [n * md["dt"] for n in range(md["n_steps"] + 1)]
    assert report["passed"] is True


def test_ends_only_run_keeps_two_states(tmp_path, monkeypatch):
    kept = []
    run = cli.solver.run

    def recording_run(*args, **kwargs):
        traj = run(*args, **kwargs)
        kept.append((traj.n_steps, len(traj.snapshots)))
        return traj

    monkeypatch.setattr(cli.solver, "run", recording_run)
    path = write(tmp_path, "b.ini", BURGERS_RUN + "snapshots = ends\n")
    out = str(tmp_path / "out")
    assert cli.run_single(path, output_dir=out) == cli.EXIT_OK
    (n_steps, n_kept), = kept
    assert n_steps > 2 and n_kept == 2
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["metadata"]["record_every"] == 1  # the config's value
    assert sorted(f for f in os.listdir(out) if f.startswith("snapshot_")) \
        == ["snapshot_000000.csv", "snapshot_000001.csv"]


def test_record_every_changes_no_error_mass_or_flag():
    # errors, masses and flags are step sums folded during the run, so
    # keeping every 5th state gives the same bits as keeping every state
    reports = [cli.execute_run(cli.parse_config_text(
        BURGERS_RUN.replace("record_every = 1", f"record_every = {k}")))
        for k in (1, 5)]
    for key in ("errors", "ledger", "flags"):
        a, b = (json.dumps(rep[key], sort_keys=True) for rep in reports)
        assert a == b
    assert reports[1]["errors"]["cone_l2"] > 0.0
    assert reports[1]["ledger"]["mu_t_mass"] > 0.0
    assert reports[1]["flags"]["mbeta_bracket"] is True


def test_advection_study_rate_band(tmp_path):
    path = write(tmp_path, "s.ini", ADVECTION_STUDY)
    out = str(tmp_path / "study")
    assert cli.run_study(path, output_dir=out, jobs=1) == cli.EXIT_OK
    rep = json.load(open(os.path.join(out, "study_report.json")))
    assert 0.45 <= rep["fitted_rate"] <= 1.05
    csv = open(os.path.join(out, "convergence.csv")).read().splitlines()
    assert csv[0] == "h,dt,err_l2,wbv_l1,wbv_sq,mu0,mu_t"
    assert csv[-1].startswith("# fitted_rate = ")
    assert len(csv) == 1 + 4 + 1


def test_study_needs_three_levels(tmp_path):
    text = ADVECTION_STUDY.replace("levels = 32, 64, 128, 256",
                                   "levels = 32, 64")
    path = write(tmp_path, "s.ini", text)
    assert cli.run_study(path, output_dir=str(tmp_path / "o")) == cli.EXIT_VALIDATION


def test_study_builds_each_level_once(tmp_path, monkeypatch):
    # no extra validation build: a 3-level study builds exactly 3 problems
    text = ADVECTION_STUDY.replace("levels = 32, 64, 128, 256",
                                   "levels = 16, 32, 64")
    path = write(tmp_path, "s.ini", text)
    calls = []
    build = cli.build_problem

    def counted(cfg, n_override=None):
        calls.append(n_override)
        return build(cfg, n_override=n_override)

    monkeypatch.setattr(cli, "build_problem", counted)
    assert cli.run_study(path, output_dir=str(tmp_path / "o"),
                         jobs=1) == cli.EXIT_OK
    assert calls == [16, 32, 64]


def test_study_rerun_identical_bytes(tmp_path):
    path = write(tmp_path, "s.ini", ADVECTION_STUDY)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert cli.run_study(path, output_dir=out, jobs=1) == cli.EXIT_OK
        outs.append(out)
    for name in ("convergence.csv", "study_report.json"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b


def test_final_time_past_reference_horizon_is_validation_error(tmp_path):
    # the Burgers characteristics reference expires at ~0.573
    text = BURGERS_RUN.replace("t = 0.1", "t = 0.6")
    path = write(tmp_path, "late.ini", text)
    assert cli.run_single(path, output_dir=str(tmp_path / "o")) == cli.EXIT_VALIDATION


def test_shallow_water_study_without_reference(tmp_path):
    text = """
[study]
problem = shallow_water1d
levels = 16, 24, 32
t = 0.02
zeta = 0.1
seed = 11
r = 10.0

[initial]
kind = shallow-water-smooth-wave
h_mean = 1.2
h_amp = 0.1
q_mean = 0.3
q_amp = 0.05

[system]
g = 9.81
h_min = 0.8
h_max = 1.7
q_max = 1.0

[flux]
name = rusanov

[output]
dir = swstudy
reference = none
"""
    path = write(tmp_path, "sw.ini", text)
    out = str(tmp_path / "swstudy")
    assert cli.run_study(path, output_dir=out, jobs=1) == cli.EXIT_OK
    rep = json.load(open(os.path.join(out, "study_report.json")))
    assert rep["fitted_rate"] is None
    assert rep["measure_scaling"]["passed"] is True
    csv = open(os.path.join(out, "convergence.csv")).read().splitlines()
    assert csv[1].split(",")[2] == ""  # no error column without a reference


def test_friedrichs_run(tmp_path):
    text = """
[run]
problem = friedrichs1d
n_cells = 48
t = 0.1
seed = 2
r = 10.0

[initial]
kind = sine
means = 0.0, 0.1
amplitudes = 0.4, 0.3

[system]
matrix = 0, 1; 1, 0

[flux]
name = rusanov

[output]
dir = out
"""
    path = write(tmp_path, "f.ini", text)
    out = str(tmp_path / "out")
    assert cli.run_single(path, output_dir=out) == cli.EXIT_OK
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["flags"]["mbeta_bracket"] is True
    assert report["metadata"]["beta0"] == 2.0


def test_advection2d_run_on_perturbed_mesh(tmp_path):
    text = """
[run]
problem = advection2d
nx = 8
ny = 8
jitter = 0.15
t = 0.05
seed = 3
r = 10.0

[initial]
kind = sine
mean = 0.1
amplitude = 0.5

[system]
speed = 1.0, 0.5

[flux]
name = rusanov

[output]
dir = out
"""
    path = write(tmp_path, "a2.ini", text)
    out = str(tmp_path / "out")
    assert cli.run_single(path, output_dir=out) == cli.EXIT_OK
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["flags"]["entropy_residual"] is True
    snap = open(os.path.join(out, "snapshot_000000.csv")).read().splitlines()
    assert snap[1] == "cell_id,x,y,u_0"


def test_cli_subprocess_entry_point(tmp_path):
    path = write(tmp_path, "c.ini", CONSTANT_RUN)
    res = run_cli("run", path, "--output-dir", str(tmp_path / "o"))
    assert res.returncode == 0, res.stderr
    res2 = run_cli("validate", path)
    assert res2.returncode == 0


def _blown_up_run(monkeypatch, check):
    # twenty times the CFL step: the scheme is unstable and the state
    # leaves the admissible set within a few steps
    text = (BURGERS_RUN.replace("t = 0.1", "t = 0.5")
            .replace("reference = exact", "reference = none")
            .replace("seed = 7", f"seed = 7\ncheck_admissibility = {check}"))
    compute_dt = cli.solver.compute_dt
    monkeypatch.setattr(cli.solver, "compute_dt",
                        lambda *args: 20.0 * compute_dt(*args))
    return cli.execute_run(cli.parse_config_text(text))


def test_admissibility_flag_checks_final_state(monkeypatch):
    with pytest.raises(AdmissibilityError):
        _blown_up_run(monkeypatch, "true")
    report = _blown_up_run(monkeypatch, "false")
    assert report["flags"]["admissibility"] is False
    assert report["passed"] is False


def test_blown_up_run_with_reference_reports_the_flag(monkeypatch, tmp_path):
    # the error fold must not raise where the run does not check: the
    # state outside Omega reaches the final-state flag and exits 5
    text = (BURGERS_RUN.replace("t = 0.1", "t = 0.5")
            .replace("seed = 7", "seed = 7\ncheck_admissibility = false"))
    compute_dt = cli.solver.compute_dt
    monkeypatch.setattr(cli.solver, "compute_dt",
                        lambda *args: 20.0 * compute_dt(*args))
    path = write(tmp_path, "b.ini", text)
    assert cli.run_single(path, str(tmp_path / "o")) == cli.EXIT_INVARIANT
    report = json.load(open(tmp_path / "o" / "report.json"))
    assert report["flags"]["admissibility"] is False
    assert report["errors"]["cone_l2"] is not None


def test_admissibility_flag_fails_on_nan_final_state(monkeypatch):
    run = cli.solver.run

    def nan_run(*args, **kwargs):
        traj = run(*args, **kwargs)
        traj.final_field.values[5, 0] = float("nan")
        return traj

    monkeypatch.setattr(cli.solver, "run", nan_run)
    text = (BURGERS_RUN.replace("reference = exact", "reference = none")
            .replace("seed = 7", "seed = 7\ncheck_admissibility = false"))
    report = cli.execute_run(cli.parse_config_text(text))
    assert report["flags"]["admissibility"] is False
    assert report["flags"]["dissipation_gap"] is True  # the steps were fine


def test_godunov_in_2d_is_validation_error(tmp_path):
    with open(os.path.join(CONFIG_DIR, "advection2d.ini")) as fh:
        text = (fh.read().replace("nx = 12", "nx = 8").replace("ny = 12", "ny = 8")
                .replace("name = rusanov", "name = godunov"))
    path = write(tmp_path, "g2.ini", text)
    res = run_cli("validate", path)
    assert res.returncode == cli.EXIT_VALIDATION, res.stderr
    assert "1D only" in res.stderr


def test_import_leaves_scipy_unloaded():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypflux.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def _write_snapshots_row_by_row(output_dir, mesh, system, traj):
    """The writer as it was, one value at a time: the byte oracle."""
    header = ",".join(["cell_id"] + ["x", "y"][: mesh.dim]
                      + [f"u_{k}" for k in range(system.m)])
    for idx, (t, fld) in enumerate(traj.snapshots):
        with open(os.path.join(output_dir, f"snapshot_{idx:06d}.csv"), "w") as fh:
            fh.write(f"# t = {repr(float(t))}\n")
            fh.write(header + "\n")
            for k in range(mesh.n_cells):
                row = ([str(k)] + [repr(float(c)) for c in mesh.cell_centroids[k]]
                       + [repr(float(v)) for v in fld.values[k]])
                fh.write(",".join(row) + "\n")


def test_snapshot_csv_matches_row_by_row_bytes(tmp_path):
    mesh = hf.build_perturbed_quad_2d(5, 4, 1.0, 0.7, 0.2, 3)
    special = np.array([-0.0, 1e-7, 1e16, 5e-324, -1.5, 0.1, 1e300, -2.5e-310,
                        0.0])
    traj = cli.solver.Trajectory(snapshots=[], dt=0.1, n_steps=2)
    for k, t in enumerate((0.0, 0.1, 0.30000000000000004)):
        vals = np.resize(np.roll(special, k), (mesh.n_cells, 2))
        traj.snapshots.append((t, hf.StateField(vals, t, mesh.mesh_id)))
    system = types.SimpleNamespace(m=2)
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    cli._write_snapshots(str(tmp_path / "new"), mesh, system, traj, "all")
    _write_snapshots_row_by_row(str(tmp_path / "old"), mesh, system, traj)
    names = sorted(os.listdir(tmp_path / "old"))
    assert sorted(os.listdir(tmp_path / "new")) == names and len(names) == 3
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() \
            == (tmp_path / "old" / name).read_bytes()
    text = (tmp_path / "new" / names[0]).read_text()
    assert all(tok in text for tok in (",-0.0,", "1e-07", "1e+16", "5e-324"))


FINE_ADVECTION2D = {"nx = 12": "nx = 24", "ny = 12": "ny = 24",
                    "reference = exact": "reference = fine:8\nsnapshots = ends"}


def _fine_advection2d(tmp_path):
    with open(os.path.join(CONFIG_DIR, "advection2d.ini")) as fh:
        text = fh.read()
    for old, new in FINE_ADVECTION2D.items():
        assert old in text
        text = text.replace(old, new)
    return write(tmp_path, "fine.ini", text)


def test_validate_runs_no_fine_solve(monkeypatch, tmp_path):
    calls = []
    records = cli.solver.interface_flux_records
    monkeypatch.setattr(cli.solver, "interface_flux_records",
                        lambda *args: calls.append(1) or records(*args))
    assert cli.validate_only(_fine_advection2d(tmp_path)) == cli.EXIT_OK
    assert calls == []


def test_fine_reference_run_memory(tmp_path):
    # the fine-grid reference keeps one fine state; storing its whole
    # trajectory instead peaks near 250 MB on this config
    code = ("import resource, sys; from hypflux.cli import main; "
            "rc = main(sys.argv[1:]); "
            "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    res = subprocess.run([sys.executable, "-c", code, "run",
                          _fine_advection2d(tmp_path), "--output-dir",
                          str(tmp_path / "o")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    rc, maxrss_kb = map(int, res.stdout.split()[-2:])
    assert rc == cli.EXIT_OK
    assert maxrss_kb / 1024 < 120.0


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("name, old, new, key", [
    ("burgers1d.ini", "c = auto", "c = fast", "[flux] c"),
    ("burgers1d.ini", "reference = exact", "reference = fine:x",
     "[output] reference"),
    ("burgers1d.ini", "amplitude = 0.25", "amplitude = big",
     "[initial] amplitude"),
    ("constant.ini", "speed = 1.0", "speed = 1.0, fast", "[system] speed"),
    ("friedrichs1d.ini", "matrix = 0, 1; 1, 0", "matrix = 0, 1; 1",
     "[system] matrix"),
    ("friedrichs1d.ini", "matrix = 0, 1; 1, 0", "matrix = 0, 1; 1, 0; 1, 1",
     "[system] matrix"),
    ("friedrichs1d.ini", "amplitudes = 0.4, 0.3", "amplitudes = 0.4, x",
     "[initial] amplitudes"),
])
def test_malformed_number_is_parse_error(tmp_path, capsys, name, old, new, key):
    text = _shipped(name)
    assert old in text
    path = write(tmp_path, name, text.replace(old, new))
    assert cli.validate_only(path) == cli.EXIT_PARSE
    assert cli.run_single(path, output_dir=str(tmp_path / "o")) == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith(f"parse error: {key}: not ")


@pytest.mark.parametrize("levels", ["64, 32, 16", "16, 16, 32", "0, 16, 32"])
def test_study_levels_must_strictly_increase(tmp_path, monkeypatch, capsys,
                                             levels):
    ran = []
    monkeypatch.setattr(cli, "execute_run",
                        lambda cfg, n_override=None, **kw: ran.append(n_override))
    text = ADVECTION_STUDY.replace("levels = 32, 64, 128, 256",
                                   f"levels = {levels}")
    path = write(tmp_path, "s.ini", text)
    assert cli.validate_only(path) == cli.EXIT_VALIDATION
    assert cli.run_study(path, output_dir=str(tmp_path / "o"),
                         jobs=1) == cli.EXIT_VALIDATION
    assert ran == []
    assert "strictly increase" in capsys.readouterr().err


def test_study_with_zero_errors_is_validation_error(tmp_path, capsys):
    # constant data: every level's error is exactly zero, so the rate fit
    # fails after the levels have run; that is a validation error, not a
    # traceback
    text = _shipped("constant.ini").replace("[run]", "[study]").replace(
        "n_cells = 16", "levels = 16, 32, 64")
    path = write(tmp_path, "s.ini", text)
    out = str(tmp_path / "o")
    assert cli.run_study(path, output_dir=out, jobs=1) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == \
        "validation error: rate fit needs positive errors\n"
    report = json.load(open(os.path.join(out, "level_64", "report.json")))
    assert report["errors"]["cone_l2"] == 0.0


@pytest.mark.parametrize("mode, per_step, extra", [("exact", 2, 4),
                                                   ("none", 1, 3)])
def test_run_entropy_evaluations_per_step(monkeypatch, mode, per_step,
                                          extra):
    # each step evaluates eta(u^{n+1}) once, for the ledger and the error
    # fold; it serves as eta(u^n) of the next step and of the relative
    # entropy, so only the first step evaluates eta(u^0) (one extra).  A
    # reference adds eta(ubar^n) per level.  The ends add the projection
    # masses (two) and, with a reference, eta(ubar^N) of the final level.
    calls, hooks = [], []
    build, run = cli.build_problem, cli.solver.run

    def counted_build(cfg, n_override=None):
        setup = build(cfg, n_override=n_override)
        entropy = setup.system.entropy

        def counted(u):
            calls.append(u)
            return entropy(u)

        setup.system.entropy = counted
        return setup

    def recording_run(*args, **kwargs):
        hooks.append(len(args[5]))
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "build_problem", counted_build)
    monkeypatch.setattr(cli.solver, "run", recording_run)
    cfg = cli.parse_config_text(_shipped("burgers1d.ini"))
    cfg["output"]["reference"] = mode
    report = cli.execute_run(cfg)
    n_steps = report["metadata"]["n_steps"]
    assert n_steps == 180 and report["passed"] is True
    assert hooks == [1]
    assert len(calls) == per_step * n_steps + extra
