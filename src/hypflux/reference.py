"""Exact and fine-grid reference solutions for error measurement.

Closed forms exist for linear advection (translation), symmetric linear
systems (characteristic decomposition), and pre-shock Burgers (method of
characteristics, solved per point by Newton to roundoff).  Where no
closed form exists the solver itself provides a reference on a mesh
refined by a factor of at least 8, flagged as numerical.

A closed form evaluates many time levels at once (`levels`), with the
bits of one `eval` per level; its `eval` is the one-level case.  A
translation reduces its shift by whole periods before it adds it to the
points, so its error does not grow with |c t|.  A reference can also be
bound to fixed points (`ReferenceSolution.bind`): a run's error fold
reads it at the same quadrature points every step, so what depends on
the points alone is computed once per run.  The translation references
bind through the datum's own translation when it has one:
`u0.translation(x)` binds u0 to the points x and gives `at(shifts)`,
(K, d) -> (K, ..., m), the values u0(x - s) for each row s of shifts.  A
datum offers it only where it is periodic on the box (the catalog's sine
at an integer frequency), so that no shift needs a wrap.  The Burgers
reference binds u0(x) and warm starts each level from the feet of fixed
anchor times (`exact_burgers`); its `levels` is a fresh binding.
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
    levels: Callable = None     # (x, ts) -> (K, ..., m), or None
    # (x) -> (ts -> (K, ..., m)), the reference bound to the points x, or
    # None
    bind_points: Callable = None

    def bind(self, x):
        """ts -> the reference at the points x at each time of ts: through
        `bind_points`, which forms what depends on x alone once, where the
        solution has it, else `eval_levels(x, ts)` on every call."""
        if self.bind_points is not None:
            return self.bind_points(x)
        return lambda ts: self.eval_levels(x, ts)

    def eval_levels(self, x, ts):
        """The reference at each time of `ts`, on a leading axis: `levels`
        where the solution has it, else one `eval` per time, in order."""
        if self.levels is not None:
            return self.levels(x, ts)
        vals = [self.eval(x, t) for t in ts]
        return vals[0][None] if len(vals) == 1 else np.stack(vals)


def _closed_form(kind, levels, valid_until, params,
                 bind_points=None) -> ReferenceSolution:
    """A reference whose `eval` is the one-level case of `levels`."""
    return ReferenceSolution(kind=kind, eval=lambda x, t: levels(x, (t,))[0],
                             valid_until=valid_until, params=params,
                             levels=levels, bind_points=bind_points)



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


def _axiswise(op, y, consts, out=None):
    """op(y, consts) for a (d,) `consts` along the last axis of y, into
    `out` when given.

    numpy broadcasts a (d,) operand with an inner loop of length d, which
    is several times slower than d strided passes with a scalar each; the
    elements, and so the bits, are the same.
    """
    if out is None:
        out = np.empty(np.shape(y))
    consts = np.asarray(consts)
    if consts.shape != out.shape[-1:]:
        consts = np.broadcast_to(consts, out.shape[-1:])
    for a, c in enumerate(consts):
        op(y[..., a], c, out=out[..., a])
    return out


def exact_advection(speed_vector, u0, domain) -> ReferenceSolution:
    """u(x, t) = u0(x - c t) with periodic wrap; bound to points through
    the datum's translation when it has one."""
    c = np.atleast_1d(np.asarray(speed_vector, dtype=float))
    lengths = tuple(float(L) for L in domain)

    def levels(x, ts):
        # the shift of each level per axis, less whole periods: fmod is
        # exact, and x - r rounds at the size of the box where x - c t
        # would round at the size of c t; the wrap and u0 run once
        x = np.asarray(x, dtype=float)
        shifted = np.empty((len(ts),) + x.shape)
        for k, t in enumerate(ts):
            _axiswise(np.subtract, x, np.fmod(c * t, lengths),
                      out=shifted[k])
        return u0(_wrap(shifted, lengths))

    translation = getattr(u0, "translation", None)

    def bind_points(x):
        at = translation(np.asarray(x, dtype=float))
        return lambda ts: at(np.multiply.outer(np.asarray(ts, dtype=float), c))

    return _closed_form("exact-advection", levels, math.inf,
                        {"speed": tuple(c)},
                        bind_points if translation is not None else None)


def exact_friedrichs(A, u0, domain) -> ReferenceSolution:
    """1D symmetric system: decouple along eigenvectors and transport.

    A = R diag(lam) R^T; each characteristic component of u0 translates
    with its own speed.  Bound to points through the datum's translation
    when it has one.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConstructionError("A must be square")
    if np.abs(A - A.T).max() > 1e-12:
        raise ConstructionError("A must be symmetric")
    lam, R = np.linalg.eigh(A)
    lengths = tuple(float(L) for L in domain)
    m = A.shape[0]

    def levels(x, ts):
        x = np.asarray(x, dtype=float)
        t = _level_axis(ts, x.ndim)
        comps = []
        for i in range(m):
            # the shift less whole periods, as for advection
            shifted = _wrap(x - np.fmod(lam[i] * t, lengths), lengths)
            w = u0(shifted) @ R  # characteristic components at shifted points
            comps.append(w[..., i])
        w_all = np.stack(comps, axis=-1)
        return w_all @ R.T

    translation = getattr(u0, "translation", None)

    def bind_points(x):
        at = translation(np.asarray(x, dtype=float))

        def bound(ts):
            ts = np.asarray(ts, dtype=float)[:, None]
            w_all = np.stack([(at(lam[i] * ts) @ R)[..., i] for i in range(m)],
                             axis=-1)
            return w_all @ R.T

        return bound

    return _closed_form("exact-friedrichs", levels, math.inf,
                        {"eigenvalues": lam.tolist()},
                        bind_points if translation is not None else None)


def exact_burgers(u0, u0_derivative, domain) -> ReferenceSolution:
    """Pre-shock Burgers by characteristics: solve y + u0(y) t = x.

    The value at x is u0 at the foot y of its characteristic.  The horizon
    is 90% of the shock-formation time 1/max(0, -min u0'); before it
    g(y) = y + u0(y) t - x is strictly increasing, with
    g'(y) = 1 + u0'(y) t at least 0.1.

    Bound to points x (`bind_points`), the reference forms u0(x) once.
    Each level is warm started from the feet at the two anchor times
    around it, w W and (w + 1) W for w = floor(t / W): W is a power of
    two near 1/32 of the time over which the feet turn, 0.9 / max |u0'|,
    so that w W is exact.  Each anchor is solved from t = 0, where the
    foot is x, and keeps the feet y, u0' there and the feet's velocity
    dy/dt = -u0(y) / g'(y); a level's first guess is the cubic Hermite
    interpolant of its two anchors.  Newton then refines all the levels
    of a query at once (`_characteristic_feet`).  So a level's bits
    depend on its time alone: blocks of any size, in any order, read the
    same values, and `levels(x, ts)`, a fresh binding, gives the bits of
    the bound reference.  (A start from the level before would tie a
    level's last bits to where its block starts, and a run's report to
    its block size.)  The binding keeps the anchors of its last query,
    and solves those a query lacks together.
    """
    lengths = tuple(float(L) for L in domain)
    L = lengths[0]
    ygrid = np.linspace(0.0, L, 20001)
    slopes = np.asarray(u0_derivative(ygrid), dtype=float)
    min_slope, max_slope = float(np.min(slopes)), float(np.max(slopes))
    umax = float(np.max(np.abs(_scalar_eval(u0, ygrid))))
    if min_slope >= 0.0:
        horizon = math.inf
    else:
        horizon = 0.9 / (-min_slope)
    # feet that do not turn move on straight lines, which any W follows
    turn = max(-min_slope, max_slope)
    W = 2.0 ** math.floor(math.log2(0.9 / (32.0 * turn))) if turn > 0 else 1.0

    def bind_points(x):
        xs = np.asarray(x, dtype=float)[..., 0]
        xmax = float(np.abs(xs).max(initial=0.0))
        u_x = _scalar_eval(u0, xs)

        def solve(ts, y, du, feet=False):
            """u0 at the feet at the times ts from the first guesses y
            (`_characteristic_feet`)."""
            t = _level_axis(ts, xs.ndim)
            # g' >= 1 + min(0, u0' t) over the slopes of u0, and before
            # the horizon at least 0.1
            g_low = np.maximum(0.1, 1.0 + np.minimum(
                0.0, np.minimum(min_slope * t, max_slope * t)))
            tol = (2.0 * _EPS) * (xmax + umax * np.abs(t)) / g_low
            return _characteristic_feet(u0, u0_derivative, xs, t, y, du,
                                        umax, tol, feet)

        kept = {}  # the anchors of the last query, by window

        def anchors(windows):
            """Each window's anchor: (feet, their velocity, u0' there)."""
            nonlocal kept
            lacking = [w for w in windows if w not in kept]
            if lacking:
                a = [w * W for w in lacking]
                t = _level_axis(a, xs.ndim)
                vals, feet, du = solve(a, xs - u_x * t, 0.0, feet=True)
                speed = -vals / (1.0 + du * t)
                kept.update((w, (feet[i], speed[i], du[i]))
                            for i, w in enumerate(lacking))
            kept = {w: kept[w] for w in windows}
            return kept

        def bound(ts):
            # a NaN or infinite time has no anchor
            late = [t for t in ts if not (math.isfinite(t)
                                          and t <= horizon * (1 + 1e-12))]
            if late:
                raise HorizonError(f"t={float(late[0])} exceeds the "
                                   f"characteristics horizon {horizon}")
            ws = [max(0, math.floor(t / W)) for t in ts]
            found = anchors(sorted(set(ws) | {w + 1 for w in ws}))
            if len(set(ws)) == 1:
                (y0, v0, du), (y1, v1, _) = found[ws[0]], found[ws[0] + 1]
            else:  # the levels' anchors on their axis
                (y0, v0, du), (y1, v1, _) = (
                    [np.stack(c) for c in zip(*(found[w + i] for w in ws))]
                    for i in (0, 1))
            # the Hermite basis at s = t / W - w in [0, 1)
            s = _level_axis([t / W - w for t, w in zip(ts, ws)], xs.ndim)
            r = 1.0 - s
            guess = ((1.0 + 2.0 * s) * r * r * y0 + s * s * (3.0 - 2.0 * s) * y1
                     + W * (s * r * r * v0 - s * s * r * v1))
            return solve(ts, guess, du)[0][..., None]

        return bound

    return _closed_form("exact-burgers-characteristics",
                        lambda x, ts: bind_points(x)(ts), horizon,
                        {"shock_horizon": horizon}, bind_points)


_EPS = float(np.finfo(float).eps)


# plain Newton steps before the bracket safeguard takes over
_PLAIN_STEPS = 8


def _characteristic_feet(u0, u0_derivative, xs, t, y, du, umax, tol,
                         feet=False):
    """u0 at the roots y of y + u0(y) t = xs at the times t, (K, 1, ...),
    by Newton from the first guesses y, (K, ...), with u0' given at the
    guesses' anchors (du); with `feet`, also the roots and u0' at the
    last iterate (else None).

    Newton stops on the size of its step (Kelley 2003, ch. 1).  An
    iterate's step res / g' is measured with the slope of the iterate
    before, which differs from its own by the size of the step before, so
    the last iterate needs no slope.  A level is done at the first iterate
    whose steps are all at most its `tol`, four times the bound on the
    step's rounding, (eps/2)(|x| + |u0 t|) / g'.  Its value is u0 at the
    end of that step to first order, u0(y) - u0'(y) step, and its root is
    y - step.  From a warm start Newton converges in a few plain steps;
    after _PLAIN_STEPS it is safeguarded: an iterate outside the bracket
    of the root that the residuals' signs leave within
    |y - xs| <= (umax + 1) |t| is replaced by bisection.
    """
    dg = 1.0 + du * t
    du = np.broadcast_to(du, y.shape)
    out = np.empty(y.shape)
    roots, slopes = ((np.empty(y.shape), np.empty(y.shape)) if feet
                     else (None, None))
    rows = np.arange(len(y))
    lo = hi = None
    for it in range(100):
        u_y = _scalar_eval(u0, y)
        res = y + u_y * t - xs
        step = res / dg
        done = (np.abs(step) <= tol).all(axis=tuple(range(1, y.ndim)))
        if done.any():
            ids = rows[done]
            step, du = step[done], du[done]
            out[ids] = u_y[done] - du * step
            if feet:
                roots[ids] = y[done] - step
                slopes[ids] = du
            if done.all():
                break
            keep = ~done
            rows, y, res, t, tol = (a[keep] for a in (rows, y, res, t, tol))
            if lo is not None:
                lo, hi = lo[keep], hi[keep]
        du = np.asarray(u0_derivative(y), dtype=float)
        dg = 1.0 + du * t
        newton = y - res / dg
        if it >= _PLAIN_STEPS:
            if lo is None:
                reach = (umax + 1.0) * np.abs(t) + 1e-9
                lo, hi = xs - reach, xs + reach
            bad = ~((newton > lo) & (newton < hi))
            lo = np.where(res < 0, y, lo)
            hi = np.where(res > 0, y, hi)
            newton = np.where(bad, 0.5 * (lo + hi), newton)
        y = newton
    else:
        raise ConstructionError("characteristic solve did not converge")
    return out, roots, slopes


def _level_axis(ts, ndim):
    """The times `ts` as a (K, 1, ..., 1) array against ndim point axes."""
    return np.asarray(ts, dtype=float).reshape((-1,) + (1,) * ndim)


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

    The fine run is a cursor over the blocks of a `march_blocks` of states
    only, holding the states of one block (checked for admissibility as
    the run's are), advanced as the reference is read and restarted from
    the projection by a query for a level before its block.
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
            "a 2D fine-grid reference needs the grid shape of a quad mesh "
            "from build_uniform_quad_2d or build_perturbed_quad_2d")
    else:
        nx, ny = mesh.grid_shape
        fine = build_uniform_quad_2d(nx * refinement_factor,
                                     ny * refinement_factor, *mesh.domain)
    dt = _solver.compute_dt(fine, sys, scheme, config)
    T = config.final_time
    n_steps = 0 if T == 0.0 else int(round(T / dt))
    lengths = np.asarray(fine.domain)
    shape = np.asarray(fine.grid_shape)
    cursor = None  # (the march's blocks, level of the first row, rows)

    def evalfn(x, t):
        nonlocal cursor
        if t > T * (1 + 1e-12):
            raise HorizonError(f"fine-grid reference only covers [0, {T}]")
        k = min(n_steps, int(np.floor(t / dt + 1e-12)))
        if cursor is None or k < cursor[1]:
            state = _solver.project_initial(fine, sys, u0, config.quadrature)
            cursor = (_solver.march_blocks(fine, sys, scheme, state, dt,
                                           n_steps, config.check_admissibility,
                                           _states_only=True),
                      0, state.values[None])
        blocks, first, rows = cursor
        cursor = None  # a march that raised restarts
        while k >= first + len(rows):
            block = next(blocks)
            first, rows = block.start, block.states
            del block
        cursor = (blocks, first, rows)
        x = np.asarray(x, dtype=float)
        cell = np.minimum((np.mod(x, lengths) / (lengths / shape)).astype(int),
                          shape - 1)
        idx = np.ravel_multi_index(tuple(np.moveaxis(cell, -1, 0)),
                                   fine.grid_shape)
        return rows[k - first][idx]

    return ReferenceSolution(kind="fine-grid", eval=evalfn, valid_until=T,
                             params={"numerical": True,
                                     "refinement_factor": refinement_factor,
                                     "fine_cells": fine.n_cells,
                                     "fine_dt": dt})
