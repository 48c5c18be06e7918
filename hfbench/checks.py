"""Independent checks of the written outputs.

Nothing here imports hypflux.  The checks read the snapshot CSVs and the
report files that a command wrote and compare them with solutions the
benchmark computes on its own, or with properties the scheme must have:

- Burgers (sine data, pre-shock): cell averages of the exact solution by
  bisection on y + u0(y) T = x and 8-point Gauss-Legendre quadrature per
  cell; the final-time L2 error must lie under ERR_TOL_PER_H * h, and
  across study levels it must decrease with a fitted slope >= 1/4.
- Advection 2D on the jittered quad mesh: the mesh is rebuilt from its
  seed (shoelace areas and centroids) and must match the written
  centroids; the error is taken against u0(x - c T) at the centroids.
- Shallow water: one snapshot per step, h > 0 in every snapshot, masses
  of h and q conserved in every snapshot.
- Every problem: mass conserved to MASS_RTOL, E(T) <= E(0) for the
  problem's entropy, and for the scalar problems the maximum principle
  min u0 <= u_h <= max u0.

An operation is one solver run: one `hypflux run`, or one level of a
study.  `check(...)` returns one `OpResult` per operation.
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

MASS_RTOL = 1e-12
BOUND_TOL = 1e-12
# final-time L2 error bounds, as a multiple of h (first-order scheme);
# set at about 1.5 times the errors measured at the benchmark sizes (README)
ERR_TOL_PER_H = {"rusanov": 0.9, "godunov": 0.5, "advection2d": 1.6}
MIN_STUDY_SLOPE = 0.25


@dataclass
class OpResult:
    name: str
    ok: bool = True
    exited_ok: bool = True   # exit code 0 and every report flag true
    problems: list = field(default_factory=list)
    cell_updates: int = 0    # n_cells * n_steps, from report.json
    l2_error: float = None   # final-time L2 error, where one is checked

    def fail(self, why):
        self.ok = False
        self.problems.append(why)


def read_snapshot(path):
    """(t, values) of one snapshot CSV: columns cell_id, coords, states."""
    with open(path) as fh:
        text = fh.read()
    first, header, body = text.split("\n", 2)
    t = float(first.split("=", 1)[1])
    ncol = header.count(",") + 1
    vals = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    return t, vals.reshape(-1, ncol)


def _report(outdir, op):
    path = os.path.join(outdir, "report.json")
    try:
        with open(path) as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        op.fail(f"no readable report.json: {exc}")
        op.exited_ok = False
        return None
    bad = [k for k, v in rep["flags"].items() if not v]
    if bad or not rep["passed"]:
        op.fail(f"report flags false: {bad}")
        op.exited_ok = False
    return rep


def _ends(outdir, op):
    """First and last snapshot of a run written with snapshots = ends."""
    paths = sorted(glob.glob(os.path.join(outdir, "snapshot_*.csv")))
    if len(paths) != 2:
        op.fail(f"expected 2 snapshots, found {len(paths)}")
        return None
    return read_snapshot(paths[0]), read_snapshot(paths[1])


def _common(op, vols, u0, uT, t_end, T, entropy):
    """Mass, entropy decay and final time, for any system."""
    if abs(t_end - T) > 1e-12 * max(1.0, T):
        op.fail(f"last snapshot at t={t_end!r}, expected {T!r}")
    m0 = (vols[:, None] * u0).sum(axis=0)
    mT = (vols[:, None] * uT).sum(axis=0)
    drift = np.abs(mT - m0) / np.maximum(np.abs(m0), 1e-300)
    if not np.all(drift <= MASS_RTOL):
        op.fail(f"mass not conserved: relative drift {drift.max():.3e}")
    e0 = float((vols * entropy(u0)).sum())
    eT = float((vols * entropy(uT)).sum())
    if not eT <= e0:
        op.fail(f"entropy grew: E(T)={eT!r} > E(0)={e0!r}")


def _max_principle(op, u, lo, hi):
    if not (u.min() >= lo - BOUND_TOL and u.max() <= hi + BOUND_TOL):
        op.fail(f"maximum principle broken: [{u.min()!r}, {u.max()!r}] "
                f"outside [{lo}, {hi}]")


def _scalar_entropy(u):
    return 0.5 * u[:, 0] ** 2


# ---------------------------------------------------------------------------
# Burgers
# ---------------------------------------------------------------------------

BURGERS_MEAN, BURGERS_AMP = 0.5, 0.25


def burgers_u0(x):
    return BURGERS_MEAN + BURGERS_AMP * np.sin(2.0 * math.pi * x)


def burgers_exact(x, t):
    """u(x, t) = u0(y) with y + u0(y) t = x, by bisection (pre-shock)."""
    x = np.asarray(x, dtype=float)
    lo = x - (BURGERS_MEAN + BURGERS_AMP) * t   # g(lo) <= 0
    hi = x - (BURGERS_MEAN - BURGERS_AMP) * t   # g(hi) >= 0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = mid + burgers_u0(mid) * t - x > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return burgers_u0(0.5 * (lo + hi))


def gauss_cell_means(fn, n_cells, length=1.0, order=8):
    """Averages of fn over the cells [k h, (k+1) h] of a uniform grid."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    h = length / n_cells
    left = np.arange(n_cells) * h
    pts = left[:, None] + 0.5 * h * (nodes[None, :] + 1.0)
    return 0.5 * (fn(pts) * weights[None, :]).sum(axis=1)


def _burgers_level(outdir, n_cells, T, flux, op):
    rep = _report(outdir, op)
    ends = _ends(outdir, op)
    if rep is None or ends is None:
        return None
    op.cell_updates = n_cells * int(rep["metadata"]["n_steps"])
    (t0, s0), (tT, sT) = ends
    h = 1.0 / n_cells
    if s0.shape != (n_cells, 3) or sT.shape != (n_cells, 3):
        op.fail(f"snapshot shape {sT.shape}, expected ({n_cells}, 3)")
        return None
    if np.abs(sT[:, 1] - (np.arange(n_cells) + 0.5) * h).max() > 1e-12:
        op.fail("centroids are not those of the uniform grid")
    u0, uT = s0[:, 2:], sT[:, 2:]
    vols = np.full(n_cells, h)
    _common(op, vols, u0, uT, tT, T, _scalar_entropy)
    for u in (u0, uT):
        _max_principle(op, u, BURGERS_MEAN - BURGERS_AMP,
                       BURGERS_MEAN + BURGERS_AMP)
    exact = gauss_cell_means(lambda x: burgers_exact(x, T), n_cells)
    err = math.sqrt(float((vols * (uT[:, 0] - exact) ** 2).sum()))
    tol = ERR_TOL_PER_H[flux] * h
    op.l2_error = err
    if not err <= tol:
        op.fail(f"final L2 error {err:.3e} above tolerance {tol:.3e}")
    return err


def check_burgers(outdir, fields, rc, flux):
    """Burgers runs and studies (levels from the config fields)."""
    if "levels" in fields:
        levels = [int(x) for x in str(fields["levels"]).split(",")]
        dirs = [os.path.join(outdir, f"level_{n}") for n in levels]
    else:
        levels, dirs = [int(fields["n"])], [outdir]
    ops = [OpResult(f"n={n}") for n in levels]
    T = float(fields["t"])
    errs = [_burgers_level(d, n, T, flux, op)
            for d, n, op in zip(dirs, levels, ops)]
    if len(levels) > 1 and all(e is not None for e in errs):
        slope = float(np.polyfit(np.log([1.0 / n for n in levels]),
                                 np.log(errs), 1)[0])
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        for op in ops:
            if not (decreasing and slope >= MIN_STUDY_SLOPE):
                op.fail(f"errors {errs} do not decrease with slope >= "
                        f"{MIN_STUDY_SLOPE} (fitted {slope:.3f})")
    _exit_code(ops, rc)
    return ops


# ---------------------------------------------------------------------------
# advection 2D
# ---------------------------------------------------------------------------

ADV_MEAN, ADV_AMP, ADV_SPEED, ADV_JITTER = 0.1, 0.5, (1.0, 0.5), 0.15


def adv_u0(x, y):
    return ADV_MEAN + ADV_AMP * np.sin(2 * math.pi * x) * np.sin(2 * math.pi * y)


def jittered_quad_geometry(n, jitter, seed, length=1.0):
    """Areas and centroids of the seeded jittered n x n periodic quad grid.

    Vertex (i, j) sits at (i dx, j dy) + jitter min(dx, dy) U(-1, 1)^2,
    drawn as one (n, n, 2) array from numpy's default generator; cell
    i*n + j has corners (i, j), (i+1, j), (i+1, j+1), (i, j+1), unwrapped
    across the periodic boundary.
    """
    d = length / n
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, size=(n, n, 2)) * (jitter * d)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    corners = []
    for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
        ii, jj = i + di, j + dj
        p = off[ii % n, jj % n] + np.stack([ii * d, jj * d], axis=-1)
        corners.append(p.reshape(-1, 2))
    x = np.stack([c[:, 0] for c in corners], axis=1)
    y = np.stack([c[:, 1] for c in corners], axis=1)
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=1)
    cx = ((x + xn) * cross).sum(axis=1) / (6.0 * area)
    cy = ((y + yn) * cross).sum(axis=1) / (6.0 * area)
    return area, np.stack([cx, cy], axis=-1)


def check_advection2d(outdir, fields, rc, seed):
    n, T = int(fields["n"]), float(fields["t"])
    op = OpResult(f"nx=ny={n}")
    rep = _report(outdir, op)
    ends = _ends(outdir, op)
    if rep is not None and ends is not None:
        op.cell_updates = n * n * int(rep["metadata"]["n_steps"])
        (t0, s0), (tT, sT) = ends
        vols, cents = jittered_quad_geometry(n, ADV_JITTER, seed)
        if sT.shape != (n * n, 4):
            op.fail(f"snapshot shape {sT.shape}, expected ({n * n}, 4)")
        elif np.abs(sT[:, 1:3] - cents).max() > 1e-12:
            op.fail("written centroids differ from the rebuilt mesh")
        else:
            u0, uT = s0[:, 3:], sT[:, 3:]
            _common(op, vols, u0, uT, tT, T, _scalar_entropy)
            for u in (u0, uT):
                _max_principle(op, u, ADV_MEAN - ADV_AMP, ADV_MEAN + ADV_AMP)
            xs = np.mod(cents[:, 0] - ADV_SPEED[0] * T, 1.0)
            ys = np.mod(cents[:, 1] - ADV_SPEED[1] * T, 1.0)
            err = math.sqrt(float((vols * (uT[:, 0] - adv_u0(xs, ys)) ** 2).sum()))
            tol = ERR_TOL_PER_H["advection2d"] / n
            op.l2_error = err
            if not err <= tol:
                op.fail(f"final L2 error {err:.3e} above tolerance {tol:.3e}")
    _exit_code([op], rc)
    return [op]


# ---------------------------------------------------------------------------
# shallow water
# ---------------------------------------------------------------------------

SW_G = 9.81


def sw_entropy(u):
    h, q = u[:, 0], u[:, 1]
    return q * q / (2.0 * h) + 0.5 * SW_G * h * h


def check_shallow_water(outdir, fields, rc):
    n, T = int(fields["n"]), float(fields["t"])
    op = OpResult(f"n={n}")
    rep = _report(outdir, op)
    paths = sorted(glob.glob(os.path.join(outdir, "snapshot_*.csv")))
    if rep is not None:
        steps = int(rep["metadata"]["n_steps"])
        op.cell_updates = n * steps
        if len(paths) != steps + 1:
            op.fail(f"{len(paths)} snapshots for {steps} steps")
    if len(paths) >= 2:
        vols = np.full(n, 1.0 / n)
        t_prev, s0 = read_snapshot(paths[0])
        m0 = (vols[:, None] * s0[:, 2:]).sum(axis=0)
        worst = 0.0
        for p in paths:
            t, s = read_snapshot(p)
            u = s[:, 2:]
            if not np.all(u[:, 0] > 0.0):
                op.fail(f"{os.path.basename(p)}: water height not positive")
                break
            if p != paths[0] and not t > t_prev:
                op.fail(f"{os.path.basename(p)}: time does not increase")
                break
            t_prev = t
            drift = np.abs((vols[:, None] * u).sum(axis=0) - m0) / np.abs(m0)
            worst = max(worst, float(drift.max()))
        if worst > MASS_RTOL:
            op.fail(f"mass of h or q drifts by {worst:.3e} (relative)")
        _common(op, vols, s0[:, 2:], u, t, T, sw_entropy)
    else:
        op.fail("fewer than two snapshots")
    _exit_code([op], rc)
    return [op]


def _exit_code(ops, rc):
    if rc != 0:
        for op in ops:
            op.exited_ok = False
            op.fail(f"hypflux exited with code {rc}")


def check(workload, fields, outdir, rc, seed):
    """Run the workload's independent check; one OpResult per operation."""
    if workload.check.startswith("burgers-"):
        return check_burgers(outdir, fields, rc, workload.check[8:])
    if workload.check == "advection2d":
        return check_advection2d(outdir, fields, rc, seed)
    return check_shallow_water(outdir, fields, rc)
