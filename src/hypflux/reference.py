"""Exact and fine-grid reference solutions for error measurement.

Closed forms exist for linear advection (translation), symmetric linear
systems (characteristic decomposition), and pre-shock Burgers (method of
characteristics, solved per point by safeguarded Newton).  Where no
closed form exists the solver itself provides a reference on a mesh
refined by a factor of at least 8, flagged as numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConstructionError, HorizonError
from . import solver as _solver
from .mesh import Mesh, build_uniform_1d, build_uniform_quad_2d


@dataclass
class ReferenceSolution:
    kind: str
    eval: Callable              # (x, t) -> (..., m)
    valid_until: float
    params: dict = field(default_factory=dict)


def _wrap(y, lengths):
    """np.mod(y, lengths), bit for bit, on the cheap path where it can be.

    Within one period, |y| < min(lengths), fmod is exact and np.mod
    reduces to y + L for y < 0 and to y otherwise, with a zero of either
    sign mapped to +0.0: that is y + L * (y < 0).  Anything else (a point
    more than a period away, inf, NaN) takes np.mod.
    """
    lengths = np.asarray(lengths)
    if np.abs(y).max(initial=0.0) < lengths.min():
        return y + _axiswise(np.multiply, y < 0, lengths)
    return np.mod(y, lengths)


def _axiswise(op, y, consts):
    """op(y, consts) for a (d,) `consts` along the last axis of y.

    numpy broadcasts a (d,) operand with an inner loop of length d, which
    is several times slower than d strided passes with a scalar each; the
    elements, and so the bits, are the same.
    """
    out = np.empty(np.shape(y))
    consts = np.asarray(consts)
    if consts.shape != out.shape[-1:]:
        consts = np.broadcast_to(consts, out.shape[-1:])
    for a, c in enumerate(consts):
        op(y[..., a], c, out=out[..., a])
    return out


def exact_advection(speed_vector, u0, domain) -> ReferenceSolution:
    """u(x, t) = u0(x - c t) with periodic wrap."""
    c = np.atleast_1d(np.asarray(speed_vector, dtype=float))
    lengths = tuple(float(L) for L in domain)

    def evalfn(x, t):
        x = np.asarray(x, dtype=float)
        return u0(_wrap(_axiswise(np.subtract, x, c * t), lengths))

    return ReferenceSolution(kind="exact-advection", eval=evalfn,
                             valid_until=math.inf, params={"speed": tuple(c)})


def exact_friedrichs(A, u0, domain) -> ReferenceSolution:
    """1D symmetric system: decouple along eigenvectors and transport.

    A = R diag(lam) R^T; each characteristic component of u0 translates
    with its own speed.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConstructionError("A must be square")
    if np.abs(A - A.T).max() > 1e-12:
        raise ConstructionError("A must be symmetric")
    lam, R = np.linalg.eigh(A)
    lengths = tuple(float(L) for L in domain)
    m = A.shape[0]

    def evalfn(x, t):
        x = np.asarray(x, dtype=float)
        comps = []
        for i in range(m):
            shifted = _wrap(x - lam[i] * t, lengths)
            w = u0(shifted) @ R  # characteristic components at shifted points
            comps.append(w[..., i])
        w_all = np.stack(comps, axis=-1)
        return w_all @ R.T

    return ReferenceSolution(kind="exact-friedrichs", eval=evalfn,
                             valid_until=math.inf,
                             params={"eigenvalues": lam.tolist()})


def exact_burgers(u0, u0_derivative, domain) -> ReferenceSolution:
    """Pre-shock Burgers by characteristics: solve y + u0(y) t = x.

    The horizon is 90% of the shock-formation time 1/max(0, -min u0');
    before it the characteristic map is strictly monotone and safeguarded
    Newton converges to residual 1e-13.
    """
    lengths = tuple(float(L) for L in domain)
    L = lengths[0]
    ygrid = np.linspace(0.0, L, 20001)
    slopes = np.asarray(u0_derivative(ygrid), dtype=float)
    min_slope = float(np.min(slopes))
    umax = float(np.max(np.abs(_scalar_eval(u0, ygrid))))
    if min_slope >= 0.0:
        horizon = math.inf
    else:
        horizon = 0.9 / (-min_slope)

    def evalfn(x, t):
        x = np.asarray(x, dtype=float)
        if t > horizon * (1 + 1e-12):
            raise HorizonError(f"t={t} exceeds the characteristics horizon {horizon}")
        xs = x[..., 0]
        y = xs - _scalar_eval(u0, xs) * t
        lo = xs - (umax + 1.0) * t - 1e-9
        hi = xs + (umax + 1.0) * t + 1e-9
        for _ in range(100):
            u_y = _scalar_eval(u0, y)
            res = y + u_y * t - xs
            if float(np.abs(res).max()) <= 1e-13:
                break
            dg = 1.0 + np.asarray(u0_derivative(y), dtype=float) * t
            newton = y - res / dg
            # keep iterates inside the monotone bracket, bisect otherwise
            bad = (newton <= lo) | (newton >= hi) | ~np.isfinite(newton)
            lo = np.where(res < 0, y, lo)
            hi = np.where(res > 0, y, hi)
            y = np.where(bad, 0.5 * (lo + hi), newton)
        else:
            raise ConstructionError("characteristic solve did not converge")
        return u_y[..., None]

    return ReferenceSolution(kind="exact-burgers-characteristics", eval=evalfn,
                             valid_until=horizon,
                             params={"shock_horizon": horizon})


def _scalar_eval(u0, x):
    """Evaluate a (...,1)-valued initial datum on bare coordinates."""
    vals = np.asarray(u0(np.asarray(x, dtype=float)[..., None]))
    return vals[..., 0]


def fine_grid_reference(mesh: Mesh, sys, scheme, u0, config,
                        refinement_factor: int = 8) -> ReferenceSolution:
    """Run the same scheme on a refined uniform mesh and interpolate.

    The fine mesh is uniform even when the coarse one is jittered: its
    grid has refinement_factor times the cells of the coarse mesh along
    each axis, so in 2D the coarse mesh must be a built quad grid.

    The fine run is a `march` cursor holding one state, advanced as the
    reference is read and restarted by a query for an earlier level.
    Evaluation is piecewise-constant in space and in time (left limits),
    matching the shape of the approximation itself.  The reference is
    flagged as numerical; it shares the flux, so its error is correlated
    with the runs it judges.
    """
    if refinement_factor < 8:
        raise ConstructionError("fine-grid reference needs refinement_factor >= 8")
    if mesh.dim == 1:
        fine = build_uniform_1d(mesh.n_cells * refinement_factor,
                                mesh.domain[0])
    elif mesh.grid_shape is None:
        raise ConstructionError(
            "a 2D fine-grid reference needs the grid shape of a built quad "
            "mesh; rebuild the mesh instead of loading it from JSON")
    else:
        nx, ny = mesh.grid_shape
        fine = build_uniform_quad_2d(nx * refinement_factor,
                                     ny * refinement_factor, *mesh.domain)
    dt = _solver.compute_dt(fine, sys, scheme, config)
    T = config.final_time
    n_steps = 0 if T == 0.0 else int(round(T / dt))
    lengths = np.asarray(fine.domain)
    shape = np.asarray(fine.grid_shape)
    level, state, steps = None, None, None

    def evalfn(x, t):
        nonlocal level, state, steps
        if t > T * (1 + 1e-12):
            raise HorizonError(f"fine-grid reference only covers [0, {T}]")
        k = min(n_steps, int(np.floor(t / dt + 1e-12)))
        if level is None or k < level:
            state = _solver.project_initial(fine, sys, u0, config.quadrature)
            steps = _solver.march(fine, sys, scheme, state, dt, n_steps,
                                  config.check_admissibility)
            level = 0
        reached, level = level, None  # a march that raised restarts
        while reached < k:
            _, _, state, _ = next(steps)
            reached += 1
        level = reached
        x = np.asarray(x, dtype=float)
        cell = np.minimum((np.mod(x, lengths) / (lengths / shape)).astype(int),
                          shape - 1)
        idx = np.ravel_multi_index(tuple(np.moveaxis(cell, -1, 0)),
                                   fine.grid_shape)
        return state.values[idx]

    return ReferenceSolution(kind="fine-grid", eval=evalfn, valid_until=T,
                             params={"numerical": True,
                                     "refinement_factor": refinement_factor,
                                     "fine_cells": fine.n_cells,
                                     "fine_dt": dt})
