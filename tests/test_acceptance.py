"""Acceptance suite: one test per exit criterion, one printed line each.

The refinement studies and single runs are executed once (module-scoped
fixture) and shared across criteria.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import hypflux as hf

from conftest import fixed_pairs, sample_pairs, tree_bytes

LEVELS = (32, 64, 128, 256)
T_BURGERS = 0.2
R_BALL = 10.0


def _status(ok):
    return "PASS" if ok else "FAIL"


def burgers_wave(x):
    x = np.asarray(x, dtype=float)
    return (0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0]))[..., None]


def burgers_wave_prime(y):
    return 0.5 * np.pi * np.cos(2 * np.pi * np.asarray(y, dtype=float))


def sine_scalar(x):
    x = np.asarray(x, dtype=float)
    return (0.2 + 0.5 * np.sin(2 * np.pi * x[..., 0]))[..., None]


def friedrichs_u0(x):
    x = np.asarray(x, dtype=float)
    s = np.sin(2 * np.pi * x[..., 0])
    c = np.cos(2 * np.pi * x[..., 0])
    return np.stack([0.4 * s, 0.1 + 0.3 * c], axis=-1)


def sw_wave(x):
    x = np.asarray(x, dtype=float)
    s = np.sin(2 * np.pi * x[..., 0])
    return np.stack([1.2 + 0.1 * s, 0.3 + 0.05 * s], axis=-1)


def _run_case(mesh, sysm, sch, u0, T, ref, zeta=0.1):
    cfg = hf.RunConfig(final_time=T, cfl_mode="strengthened", zeta=zeta,
                       record_every=1, check_admissibility=True)
    led = hf.DiagnosticsLedger()
    fold = hf.ErrorFold(led, mesh, sysm, sch, u0, R_BALL, T, sysm.lf)
    traj = hf.run(mesh, sysm, sch, u0, cfg, [fold])
    masses = hf.measure_masses(mesh, sysm, u0, traj, r=R_BALL, T=T)
    case = {"mesh": mesh, "sys": sysm, "scheme": sch, "traj": traj,
            "ledger": led, "masses": masses, "zeta": zeta,
            "name": f"{sysm.name}/{sch.name}"}
    if ref is not None:
        case["cone"] = hf.cone_l2_error(mesh, sysm, traj, ref, r=R_BALL, T=T,
                                        lf=sysm.lf)
        case["err"] = math.sqrt(case["cone"])
        lo_margin = math.inf
        hi_margin = math.inf
        factor1_worst = 0.0
        for t, fld in traj.snapshots:
            ubar = hf.reference_cell_means(mesh, ref, t)
            norm = hf.relative_entropy_norm(mesh, sysm, fld, ubar)
            esq = hf.squared_l2_cell_error(mesh, fld, ubar)
            tol = 1e-10 * max(1.0, esq, abs(norm))
            lo_margin = min(lo_margin, norm - 0.5 * sysm.beta0 * esq + tol)
            hi_margin = min(hi_margin, 0.5 * sysm.beta1 * esq - norm + tol)
            factor1_worst = max(factor1_worst,
                                abs(norm - esq) / max(1.0, esq, abs(norm)))
        case["bracket_ok"] = bool(lo_margin >= 0.0 and hi_margin >= 0.0)
        case["factor1_worst"] = factor1_worst
    return case


@pytest.fixture(scope="module")
def acceptance():
    data = {}

    ref_burgers = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    assert T_BURGERS <= ref_burgers.valid_until

    sys_b = hf.make_burgers(1, u_range=(0.225, 0.775))
    t0 = time.time()
    rus = hf.make_rusanov(sys_b, c="auto")
    data["study_rusanov"] = [
        _run_case(hf.build_uniform_1d(n, 1.0), sys_b, rus, burgers_wave,
                  T_BURGERS, ref_burgers) for n in LEVELS]
    data["runtime_rusanov_study"] = time.time() - t0

    god = hf.make_godunov_scalar(sys_b)
    data["study_godunov"] = [
        _run_case(hf.build_uniform_1d(n, 1.0), sys_b, god, burgers_wave,
                  T_BURGERS, ref_burgers) for n in LEVELS]

    sys_sw = hf.make_shallow_water_1d(9.81, 0.8, 1.7, 1.0)
    data["sw"] = _run_case(hf.build_uniform_1d(64, 1.0), sys_sw,
                           hf.make_rusanov(sys_sw), sw_wave, 0.05, None)

    sys_a = hf.make_advection(1, [1.0], u_range=(-0.335, 0.735))
    ref_a = hf.exact_advection([1.0], sine_scalar, (1.0,))
    data["advection"] = _run_case(hf.build_uniform_1d(64, 1.0), sys_a,
                                  hf.make_godunov_scalar(sys_a), sine_scalar,
                                  0.2, ref_a)

    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    _, R = np.linalg.eigh(A)
    xs = np.linspace(0.0, 1.0, 2049)[:, None]
    rad = 1.05 * float(np.abs(friedrichs_u0(xs) @ R).max())
    sys_f = hf.make_friedrichs([A], radius=rad)
    ref_f = hf.exact_friedrichs(A, friedrichs_u0, (1.0,))
    data["friedrichs"] = _run_case(hf.build_uniform_1d(64, 1.0), sys_f,
                                   hf.make_rusanov(sys_f), friedrichs_u0,
                                   0.2, ref_f)
    return data


def _all_cases(data):
    return (data["study_rusanov"] + data["study_godunov"]
            + [data["sw"], data["advection"], data["friedrichs"]])


def _pair_list():
    """(system, scheme) pairs covering every built-in combination."""
    sys_b = hf.make_burgers(1, u_range=(-1.0, 1.0))
    sys_a1 = hf.make_advection(1, [1.0], u_range=(-1.0, 1.0))
    sys_a2 = hf.make_advection(2, [1.0, 0.5], u_range=(-1.0, 1.0))
    sys_f = hf.make_friedrichs([np.array([[0.0, 1.0], [1.0, 0.0]])], radius=1.5)
    sys_sw = hf.make_shallow_water_1d(9.81, 0.8, 1.7, 1.0)
    return [
        (sys_b, hf.make_rusanov(sys_b)),
        (sys_b, hf.make_godunov_scalar(sys_b)),
        (sys_a1, hf.make_rusanov(sys_a1)),
        (sys_a1, hf.make_godunov_scalar(sys_a1)),
        (sys_a2, hf.make_rusanov(sys_a2)),
        (sys_f, hf.make_rusanov(sys_f)),
        (sys_sw, hf.make_rusanov(sys_sw)),
    ]


@pytest.fixture(scope="module")
def flux_pairs():
    return _pair_list()


def _table(cases):
    rows = [hf.ConvergenceRow(h=c["mesh"].h, dt=c["traj"].dt,
                              error_l2_spacetime=c["err"],
                              wbv_l1=c["ledger"].wbv_l1,
                              wbv_sq=c["ledger"].wbv_sq,
                              mu0_mass=c["masses"].mu0,
                              mu_t_mass=c["masses"].mu_t)
            for c in cases]
    return hf.ConvergenceTable(rows=rows)


def test_criterion_01_burgers_rusanov_rate(acceptance):
    rate = hf.fit_rate(_table(acceptance["study_rusanov"]))
    runtime = acceptance["runtime_rusanov_study"]
    ok = rate >= 0.25 and runtime < 60.0
    print(f"[{_status(ok)}] criterion 1: Burgers/Rusanov space-time L2 rate "
          f"= {rate:.3f} (floor 0.25), study runtime {runtime:.1f}s (< 60s)")
    assert rate >= 0.25
    assert runtime < 60.0


def test_criterion_02_godunov_rate_and_sharper_errors(acceptance):
    rate = hf.fit_rate(_table(acceptance["study_godunov"]))
    errs_g = [c["err"] for c in acceptance["study_godunov"]]
    errs_r = [c["err"] for c in acceptance["study_rusanov"]]
    sharper = all(g <= r for g, r in zip(errs_g, errs_r))
    ok = rate >= 0.25 and sharper
    print(f"[{_status(ok)}] criterion 2: Burgers/Godunov rate = {rate:.3f}, "
          f"errors below Rusanov at every level: {sharper}")
    assert rate >= 0.25
    assert sharper, (errs_g, errs_r)


def _total_entropy(case, field):
    """E = sum_K |K| eta(u_K)."""
    return float((case["mesh"].cell_volumes
                  * case["sys"].entropy(field.values)).sum())


def test_criterion_03_weak_bv_boundedness(acceptance):
    """The weak-BV sums stay bounded independently of h.

    Growth across levels is checked by `wbv_scaling_report`, the same rule
    `hypflux study` applies; decay (like h for wbv_sq on smooth data) is
    allowed, since the estimate is an upper bound only.

    At every level the squared sum must also fit the entropy budget the
    estimate is derived from:

        (beta0 zeta / (2 lambda*)) wbv_sq <= E(0) - E(T).

    Under the strengthened CFL condition each cell update
    u_K^{n+1} = u_K - (dt/|K|) sum |sigma| (G - f(u_K).n) is a convex
    combination that keeps weight at least zeta on u_K and puts the rest
    on the states u_K - (G - f(u_K).n)/lambda*.  The interfacial entropy
    inequality and the beta0-convexity of eta then give
    E^n - E^{n+1} >= (beta0 zeta / (2 lambda*)) dt sum_K sum_sigma
    |sigma| |G - f(u_K).n|^2, a sum over both orientations of every
    interface, so it bounds wbv_sq (one orientation) as well.  PAPER.md
    holds only the abstract; the zeta factor is that of this derivation.
    """
    cases = acceptance["study_rusanov"]
    rep = hf.wbv_scaling_report(_table(cases))
    sq = [c["ledger"].wbv_sq for c in cases]
    budget = []
    for c in cases:
        snaps = c["traj"].snapshots
        drop = (_total_entropy(c, snaps[0][1])
                - _total_entropy(c, snaps[-1][1]))
        coef = c["sys"].beta0 * c["zeta"] / (2.0 * c["scheme"].lambda_star)
        budget.append((coef * c["ledger"].wbv_sq, drop))
    budget_ok = all(lhs <= drop for lhs, drop in budget)
    ratios = [lhs / drop if drop > 0 else math.inf for lhs, drop in budget]
    ok = rep.passed_l1 and rep.passed_sq and budget_ok
    print(f"[{_status(ok)}] criterion 3: no growth of wbv_l1*sqrt(h) "
          f"(last/first {rep.wbv_l1h_last_over_first:.3f}): {rep.passed_l1}; "
          f"no growth of wbv_sq (last/first {sq[-1] / sq[0]:.3f}, max/min "
          f"{rep.wbv_sq_max_over_min:.2f}, values "
          f"{['%.2e' % v for v in sq]}): {rep.passed_sq}; "
          f"entropy budget used {max(ratios):.4f} (<= 1): {budget_ok}")
    assert rep.passed_l1
    assert rep.passed_sq, (
        f"wbv_sq grows under refinement (values {sq}); see the "
        "'Weak-BV gate' section of README.md")
    assert budget_ok, (
        "beta0 zeta/(2 lambda*) wbv_sq exceeds the entropy dissipated "
        f"(lhs, E(0)-E(T) per level: {budget}); see the "
        "'Weak-BV gate' section of README.md")


def test_criterion_04_discrete_entropy_inequality(acceptance):
    worst = max(c["ledger"].entropy_residual_max_scaled
                for c in _all_cases(acceptance))
    ok = worst <= 1e-10
    print(f"[{_status(ok)}] criterion 4: max positive entropy residual "
          f"(scaled by dt/|K|) over all runs = {worst:.2e} (<= 1e-10)")
    assert ok


def test_criterion_05_dissipation_gap(acceptance, flux_pairs):
    sampled_ok = fixed_ok = True
    for sysm, sch in flux_pairs:
        u, v, n = sample_pairs(sysm, 10000, seed=606)
        chk = hf.dissipation_gap_check(sysm, sch, u, v, n)
        sampled_ok = sampled_ok and bool(np.all(chk.passed))
        chk = hf.dissipation_gap_check(sysm, sch, *fixed_pairs(sysm))
        fixed_ok = fixed_ok and bool(np.all(chk.passed))
    run_ok = all(c["ledger"].gap_all_pass for c in _all_cases(acceptance))
    ok = sampled_ok and fixed_ok and run_ok
    print(f"[{_status(ok)}] criterion 5: dissipation-gap inequality on 10^4 "
          f"samples x {len(flux_pairs)} pairs: {sampled_ok}; on the fixed "
          f"setup pairs: {fixed_ok}; every interface of every run: {run_ok}")
    assert ok


def test_criterion_06_flux_axiom_suite(flux_pairs):
    ok = True
    details = []
    for sysm, sch in flux_pairs:
        u, v, n = sample_pairs(sysm, 10000, seed=707)
        cons_g = float(np.abs(sch.g(u, v, n) + sch.g(v, u, -n)).max())
        cons_xi = float(np.abs(sch.xi_num(u, v, n) + sch.xi_num(v, u, -n)).max())
        consist_g = float(np.abs(sch.g(u, u, n)
                                 - sysm.directional_flux(u, n)).max())
        consist_xi = float(np.abs(sch.xi_num(u, u, n)
                                  - sysm.directional_entropy_flux(u, n)).max())
        delta = sch.g(u, v, n) - sysm.directional_flux(u, n)
        lhs = sch.xi_num(u, v, n) - sysm.directional_entropy_flux(u, n)
        bouchut = -math.inf
        for mult in (1.0, 2.0, 10.0):
            lam = mult * sch.lambda_star
            rhs = -lam * (sysm.entropy(u - delta / lam) - sysm.entropy(u))
            bouchut = max(bouchut, float((lhs - rhs).max()))
        pair_ok = (cons_g <= 1e-14 and cons_xi <= 1e-14
                   and consist_g <= 1e-14 and consist_xi <= 1e-12
                   and bouchut <= 1e-10)
        ok = ok and pair_ok
        details.append(f"{sysm.name}/{sch.name}:{'ok' if pair_ok else 'FAIL'}")
    print(f"[{_status(ok)}] criterion 6: flux axiom suite on 10^4 samples "
          f"per pair ({', '.join(details)})")
    assert ok


def test_criterion_07_invariant_domain_shallow_water(acceptance):
    case = acceptance["sw"]
    sysm, sch = case["sys"], case["scheme"]
    h_min = sysm.params["h_min"]
    min_h = min(float(f.values[:, 0].min()) for _, f in case["traj"].snapshots)
    run_ok = min_h >= h_min
    u, v, n = sample_pairs(sysm, 10000, seed=808)
    samp = hf.omega_stability_check(sysm, sch, u, v, n)
    samp_ok = bool(np.all(samp))
    ok = run_ok and samp_ok
    print(f"[{_status(ok)}] criterion 7: shallow-water run keeps h >= "
          f"{h_min} (min {min_h:.3f}); interface stability on 10^4 samples: "
          f"{samp_ok}")
    assert ok


def test_criterion_08_relative_entropy_bracket(acceptance):
    refd = [c for c in _all_cases(acceptance) if "bracket_ok" in c]
    bracket_ok = all(c["bracket_ok"] for c in refd)
    fr = acceptance["friedrichs"]
    factor1_ok = fr["factor1_worst"] <= 1e-12
    ok = bracket_ok and factor1_ok
    print(f"[{_status(ok)}] criterion 8: Mbeta bracket on every snapshot of "
          f"{len(refd)} referenced runs: {bracket_ok}; Friedrichs factor-1 "
          f"deviation {fr['factor1_worst']:.2e} (<= 1e-12)")
    assert ok


def test_criterion_09_measure_mass_scalings(acceptance):
    cases = acceptance["study_rusanov"]
    hs = [c["mesh"].h for c in cases]
    masses = [c["masses"] for c in cases]
    mu0h = [m.mu0 / h for m, h in zip(masses, hs)]
    mub0h = [m.mu_bar0 / h for m, h in zip(masses, hs)]
    mut = [m.mu_t / math.sqrt(h) for m, h in zip(masses, hs)]
    mubt = [m.mu_bar_t / math.sqrt(h) for m, h in zip(masses, hs)]
    ok = (max(mu0h) / min(mu0h) < 2.0 and max(mub0h) / min(mub0h) < 2.0
          and mut[-1] <= 1.5 * mut[0] and mubt[-1] <= 1.5 * mubt[0])
    print(f"[{_status(ok)}] criterion 9: mu0/h ratio "
          f"{max(mu0h) / min(mu0h):.3f}, mu_bar0/h ratio "
          f"{max(mub0h) / min(mub0h):.3f} (< 2); mu_T/sqrt(h) last/first "
          f"{mut[-1] / mut[0]:.3f}, mu_bar_T/sqrt(h) last/first "
          f"{mubt[-1] / mubt[0]:.3f} (<= 1.5)")
    assert ok


def test_criterion_10_finite_speed_bound(flux_pairs):
    systems = {id(s): s for s, _ in flux_pairs}.values()
    ok = True
    worst = 0.0
    for sysm in systems:
        for u, v, _ in (sample_pairs(sysm, 10000, seed=909),
                        fixed_pairs(sysm)):
            H = hf.relative_entropy(sysm, v, u)
            for a in range(sysm.d):
                Q = hf.relative_entropy_flux(sysm, v, u, a)
                excess = np.abs(Q) - 1.01 * sysm.lf * H
                worst = max(worst, float(excess.max()))
                ok = ok and bool(np.all(excess <= 1e-14))
    print(f"[{_status(ok)}] criterion 10: |Q| <= 1.01 L_f H on 10^4 samples "
          f"and the fixed setup pairs per system, worst excess {worst:.2e}")
    assert ok


def test_criterion_11_determinism(tmp_path):
    run_ini = """
[run]
problem = burgers1d
n_cells = 48
t = 0.05
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

[output]
dir = out
"""
    study_ini = """
[study]
problem = burgers1d
levels = 24, 32, 48
t = 0.05
zeta = 0.1
seed = 7
r = 10.0

[initial]
kind = sine
mean = 0.5
amplitude = 0.25

[flux]
name = rusanov

[output]
dir = study
"""
    run_path = tmp_path / "run.ini"
    run_path.write_text(run_ini)
    study_path = tmp_path / "study.ini"
    study_path.write_text(study_ini)

    def invoke(*args):
        res = subprocess.run([sys.executable, "-m", "hypflux", *args],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res

    invoke("run", str(run_path), "--output-dir", str(tmp_path / "r1"),
           "--jobs", "1")
    invoke("run", str(run_path), "--output-dir", str(tmp_path / "r2"),
           "--jobs", "4")
    runs_equal = tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    invoke("study", str(study_path), "--output-dir", str(tmp_path / "s1"),
           "--jobs", "1")
    invoke("study", str(study_path), "--output-dir", str(tmp_path / "s2"),
           "--jobs", "4")
    invoke("study", str(study_path), "--output-dir", str(tmp_path / "s3"),
           "--jobs", "1")
    studies_equal = (tree_bytes(tmp_path / "s1") == tree_bytes(tmp_path / "s2")
                     == tree_bytes(tmp_path / "s3"))
    ok = runs_equal and studies_equal
    print(f"[{_status(ok)}] criterion 11: byte-identical reruns "
          f"(runs: {runs_equal}, studies with --jobs 1/4: {studies_equal})")
    assert ok
