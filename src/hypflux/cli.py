"""Configuration-driven entry point.

`hypflux run <config>` executes one simulation with full diagnostics and
writes snapshots and a run report.  `hypflux study <spec>`
runs a mesh-refinement study, assembles the convergence table, fits the
error rate, and checks the weak-BV and measure-mass scalings.  `hypflux
validate <config>` parses and validates without running.

Config files are flat INI text: sections in brackets, `key = value`
lines, arrays as comma-separated values; `CONFIG_KEYS` declares every
key.  Initial data come from a small named catalog (`KINDS`).

Exit codes: 0 success, 2 parse error, 3 validation error, 4 runtime
error, 5 invariant failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys as _sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from . import numflux, reference, solver
from .errors import ConfigError, ConstructionError, HypfluxError, MeshError
from .mesh import (build_perturbed_quad_2d, build_uniform_1d,
                   build_uniform_quad_2d)
from .systems import (make_advection, make_burgers, make_friedrichs,
                      make_shallow_water_1d, scratch_slices)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4
EXIT_INVARIANT = 5

PROBLEMS = ("advection1d", "advection2d", "friedrichs1d", "burgers1d",
            "shallow_water1d")
KINDS = ("constant", "sine", "gaussian-bump", "shallow-water-smooth-wave")
FLUXES = ("rusanov", "godunov")
COMMANDS = ("run", "study")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """INI text -> nested dict of raw strings."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc
    return {section: dict(cp.items(section)) for section in cp.sections()}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text)


class ConfigParseError(HypfluxError):
    """Malformed config text (distinct exit code from validation)."""


class _NotFinite(ValueError):
    """A number that parses but is not finite: a validation error."""


def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise _NotFinite
    return value


def _numbers(text):
    """One or more numbers separated by commas or semicolons."""
    values = [_number(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    if not values:
        raise ValueError("no numbers")
    return values


def _matrix(text):
    """A square matrix: rows separated by semicolons, entries by commas."""
    rows = [[_number(tok) for tok in r.split(",")]
            for r in text.split(";") if r.strip()]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("not square")
    return np.array(rows)


def _bool(text):
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(text)
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise ConfigError(f"seed: not a nonnegative integer: {seed}")
    return seed


def _levels(text):
    levels = [int(tok) for tok in text.split(",")]
    if len(levels) < 3:
        raise ConfigError("a study needs at least 3 mesh levels")
    if levels[0] < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"study levels must be positive and strictly "
                          f"increase, got {levels}")
    return levels


def _width(text):
    """A bump's width: positive, with 1 / width^2 finite, so that its
    exponent (x / width)^2 is finite on the box, |x| <= 1/2 a side."""
    width = _number(text)
    if not (width > 0 and math.isfinite(1.0 / width / width)):
        raise ConfigError("width must be positive with 1 / width^2 finite, "
                          f"got {width}")
    return width


def _choice(message, *options):
    """A case-insensitive choice; `message` formats any other value."""
    def choose(text):
        if text.lower() not in options:
            raise ConfigError(message.format(text.lower()))
        return text.lower()
    return choose


def _rusanov_c(text):
    return "auto" if text.lower() == "auto" else _number(text)


def _reference_mode(text):
    """exact, none, or a fine grid's factor: fine (8) or fine:N."""
    mode, colon, factor = text.lower().partition(":")
    if mode == "fine":
        return int(factor) if colon else 8
    if colon or mode not in ("exact", "none"):
        raise ConfigError(f"unknown reference mode {text.lower()!r}")
    return mode


# what a converter's text must be, for the parse error of its ValueError
_WHAT = {float: "a number", _number: "a number", _rusanov_c: "a number",
         int: "an integer", _seed: "an integer", _levels: "integers",
         _numbers: "a list of numbers", _matrix: "a square matrix of numbers",
         _bool: "a boolean", _width: "a number", _reference_mode: "an integer factor"}
REQUIRED = "required"
_RUN = solver.RunConfig
_FLUX = _choice(f"unknown flux {{!r}}; choose from {FLUXES}", *FLUXES)
_WAVE = "shallow-water-smooth-wave"

# Every config key: (section, key) -> (converter, default, scope).  A
# default is REQUIRED, None (no value unless given), a value (the library
# call's own where it has one), or a function of the keys above.  The scope
# names the problems, initial kinds and commands the key applies to; each
# of those axes it names is limited to the names given.  [study] takes the
# [run] keys but the mesh sizes, which its levels replace.  Key names are
# unique across sections.
CONFIG_KEYS = {
    ("run", "problem"): (_choice(f"unknown problem {{!r}}; choose from {PROBLEMS}",
                                 *PROBLEMS), REQUIRED, ""),
    ("run", "n_cells"): (int, REQUIRED,
                         "advection1d friedrichs1d burgers1d shallow_water1d run"),
    ("run", "nx"): (int, REQUIRED, "advection2d run"),
    ("run", "ny"): (int, lambda c: c["nx"], "advection2d run"),
    ("run", "jitter"): (float, 0.0, "advection2d"),
    ("run", "length"): (_number, 1.0, ""),
    ("run", "length_y"): (_number, lambda c: c["length"], "advection2d"),
    ("run", "t"): (_number, REQUIRED, ""),
    ("run", "cfl_mode"): (_choice("unknown cfl_mode {!r}", "standard", "strengthened"),
                          _RUN.cfl_mode, ""),
    ("run", "zeta"): (_number, _RUN.zeta, ""),
    ("run", "record_every"): (int, _RUN.record_every, ""),
    ("run", "check_admissibility"): (_bool, _RUN.check_admissibility, ""),
    ("run", "quadrature"): (_choice("unknown quadrature {!r}", "midpoint", "gauss3"),
                            _RUN.quadrature, ""),
    ("run", "seed"): (_seed, 0, ""),
    ("run", "r"): (float, 10.0, ""),
    ("study", "levels"): (_levels, REQUIRED, "study"),
    ("study", "flux"): (_FLUX, None, "study"),
    ("initial", "kind"): (_choice("unknown initial-data kind {!r}", *KINDS),
                          REQUIRED, ""),
    ("initial", "value"): (_numbers, REQUIRED, "constant"),
    ("initial", "mean"): (_number, 0.0, "sine gaussian-bump"),
    ("initial", "amplitude"): (_number, 1.0, "sine gaussian-bump"),
    ("initial", "means"): (_numbers, lambda c: [c["mean"]], "sine"),
    ("initial", "amplitudes"): (_numbers, lambda c: [c["amplitude"]], "sine"),
    ("initial", "frequency"): (_number, 1.0, "sine"),
    ("initial", "center"): (_number, 0.5, "gaussian-bump"),
    ("initial", "width"): (_width, 0.1, "gaussian-bump"),
    ("initial", "h_mean"): (_number, 1.2, _WAVE),
    ("initial", "h_amp"): (_number, 0.2, _WAVE),
    ("initial", "q_mean"): (_number, 0.3, _WAVE),
    ("initial", "q_amp"): (_number, 0.1, _WAVE),
    ("system", "speed"): (_numbers, lambda c: [1.0], "advection1d advection2d"),
    ("system", "matrix"): (_matrix, lambda c: _matrix("0, 1; 1, 0"), "friedrichs1d"),
    **{("system", key): (_number, default, "shallow_water1d") for key, default in
       zip(("g", "h_min", "h_max", "q_max"), make_shallow_water_1d.__defaults__)},
    ("flux", "name"): (_FLUX, lambda c: c.get("flux", "rusanov"), ""),
    ("flux", "c"): (_rusanov_c, numflux.make_rusanov.__defaults__[0], ""),
    ("output", "dir"): (str, lambda c: "hypflux_out" if c["command"] == "run"
                        else "hypflux_study", ""),
    ("output", "reference"): (_reference_mode, lambda c: "none"
                              if c["problem"] == "shallow_water1d" else "exact", ""),
    ("output", "snapshots"): (_choice("unknown snapshots mode {!r}", "all", "ends",
                                      "none"), "all", "run"),
}
# a key given with the key its default comes from must agree with it
_AGREES = {"means": "mean", "amplitudes": "amplitude", "name": "flux"}
_SECTIONS = ("run", "study", "initial", "system", "flux", "output")
_HOME = {key: "run" if sec in COMMANDS else sec for sec, key in CONFIG_KEYS}


def _unknown(what, name, known):
    import difflib  # here: a valid config never pays for the import
    nearest = difflib.get_close_matches(name, known, n=1, cutoff=0.0)[0]
    return ConfigError(f"unknown {what} {name}; did you mean {nearest}?")


def resolve_config(cfg: dict, command=None) -> dict:
    """Resolve a `load_config` dict against CONFIG_KEYS in one pass: a flat
    dict of typed values by key, every applicable default filled in, and
    "command", the one given or else study for a config with a [study]
    section and run for any other.  A missing key or a value of the wrong
    type is a ConfigParseError (exit 2); a value out of range or choice, an
    unknown section or key, and a key that does not apply to the problem,
    initial kind or command are a ConfigError (exit 3)."""
    command = command or ("study" if "study" in cfg else "run")
    given = {}
    for section, items in cfg.items():
        home = "run" if section in COMMANDS else section
        if section not in _SECTIONS:
            raise _unknown("section", f"[{section}]", [f"[{s}]" for s in _SECTIONS])
        if home == "run" and section != command:
            raise ConfigError(f"[{section}] does not apply to a {command}")
        for key, text in items.items():
            if _HOME.get(key) != home:
                raise _unknown(f"key [{section}]", key,
                               [k for k, h in _HOME.items() if h == home])
            given[key] = text.strip()
    conf = {"command": command}
    for (section, key), (convert, default, scope) in CONFIG_KEYS.items():
        section, text, scope = (command if section in COMMANDS else section,
                                given.get(key), scope.split())
        excluded = [value for value, axis in ((conf.get("problem"), PROBLEMS),
                                              (conf.get("kind"), KINDS),
                                              (command, COMMANDS))
                    if value not in scope and any(name in axis for name in scope)]
        if excluded and text is not None:
            where = f"a {command}" if excluded[0] == command else excluded[0]
            raise ConfigError(f"[{section}] {key} does not apply to {where}")
        if excluded or (text is None and default is None):
            continue
        if text is None:
            if default is REQUIRED:
                raise ConfigParseError(f"missing key [{section}] {key}")
            conf[key] = default(conf) if callable(default) else default
            continue
        try:
            conf[key] = convert(text)
        except _NotFinite:
            raise ConfigError(f"[{section}] {key}: not finite: {text!r}") from None
        except ValueError as exc:
            raise ConfigParseError(
                f"[{section}] {key}: not {_WHAT[convert]}: {text!r}") from exc
        other = _AGREES.get(key)
        if other in given and conf[key] != default(conf):
            home = command if _HOME[other] == "run" else _HOME[other]
            raise ConfigError(f"[{home}] {other} = {given[other]} disagrees with "
                              f"[{section}] {key} = {text}")
    return conf


# ---------------------------------------------------------------------------
# initial-data catalog
# ---------------------------------------------------------------------------

def make_initial(conf: dict, domain):
    """Build (u0, du0_dx) from the [initial] values of a resolved config.

    u0 maps points of shape (..., d) to states (..., m), d = len(domain);
    the derivative is provided for 1D scalar data (the characteristics
    solver needs it) and is None otherwise.
    """
    kind, d = conf["kind"], len(domain)
    lengths = np.asarray(domain, dtype=float)

    if kind == "constant":
        vals = np.array(conf["value"])

        def u0(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(vals, x.shape[:-1] + vals.shape).copy()

        return u0, (lambda y: np.zeros_like(np.asarray(y, dtype=float)))

    if kind == "sine":
        means, amps = np.array(conf["means"]), np.array(conf["amplitudes"])
        freq = conf["frequency"]
        if means.shape != amps.shape:
            raise ConfigError("means and amplitudes must have equal length")
        k = 2.0 * math.pi * freq

        def u0(x):
            x = np.asarray(x, dtype=float)
            phase = np.sin(k * x[..., 0] / lengths[0])
            for a in range(1, d):
                phase = phase * np.sin(k * x[..., a] / lengths[a])
            return means + amps * phase[..., None]

        if freq == round(freq):
            u0.translation = _sine_translation(means, amps, k, lengths[:d])

        if means.size == 1 and d == 1:
            def du0(y):
                y = np.asarray(y, dtype=float)
                return amps[0] * (k / lengths[0]) * np.cos(k * y / lengths[0])
            return u0, du0
        return u0, None

    if kind == "gaussian-bump":
        mean, amp = conf["mean"], conf["amplitude"]
        center, width = conf["center"], conf["width"]

        def u0(x):
            x = np.asarray(x, dtype=float)
            r2 = np.zeros(x.shape[:-1])
            for a in range(d):
                delta = np.abs(np.mod(x[..., a], lengths[a]) - center * lengths[a])
                delta = np.minimum(delta, lengths[a] - delta)
                r2 = r2 + (delta / (width * lengths[a])) ** 2
            return (mean + amp * np.exp(-r2))[..., None]

        def du0(y):
            y = np.asarray(y, dtype=float)
            delta = np.mod(y, lengths[0]) - center * lengths[0]
            delta = np.where(delta > 0.5 * lengths[0], delta - lengths[0], delta)
            delta = np.where(delta < -0.5 * lengths[0], delta + lengths[0], delta)
            w = width * lengths[0]
            return amp * np.exp(-(delta / w) ** 2) * (-2.0 * delta / w ** 2)

        return u0, (du0 if d == 1 else None)

    # shallow-water-smooth-wave
    h_mean, h_amp = conf["h_mean"], conf["h_amp"]
    q_mean, q_amp = conf["q_mean"], conf["q_amp"]
    k = 2.0 * math.pi

    def u0(x):
        x = np.asarray(x, dtype=float)
        s = np.sin(k * x[..., 0] / lengths[0])
        return np.stack([h_mean + h_amp * s, q_mean + q_amp * s], axis=-1)

    return u0, None


def _sine_translation(means, amps, k, lengths):
    """The translation of the sine datum at an integer frequency, which is
    periodic on the box: bound to points x, the values at x - s for shifts
    s, (K, d) -> (K, ..., m).

    sin(k (x_a - s_a) / L_a) is sin(th) cos(ph) - cos(th) sin(ph) with
    th = k x_a / L_a, whose sin and cos are taken once, at binding, and
    ph = k r_a / L_a for the exact remainder r_a = fmod(s_a, L_a): a whole
    period of shift turns the phase by a multiple of 2 pi.  So no shift
    needs a wrap, and |ph| < |k| whatever the shift.
    """
    def translation(x):
        rot = [(np.sin(th), np.cos(th))
               for th in (k * x[..., a] / L for a, L in enumerate(lengths))]
        lead = (slice(None),) + (None,) * (x.ndim - 1)

        def at(shifts):
            ph = k * np.fmod(shifts, lengths) / lengths  # (K, d)
            sin_ph, cos_ph = np.sin(ph), np.cos(ph)
            phase = None
            for a, (sin_th, cos_th) in enumerate(rot):
                term = sin_th * cos_ph[lead + (a,)]
                term -= cos_th * sin_ph[lead + (a,)]
                if phase is None:
                    phase = term
                else:
                    phase *= term
            return means + amps * phase[..., None]

        return at

    return translation


def _scalar_range(u0, domain, d):
    """Sampled range of a scalar datum, padded by 5% of its width, which
    must be finite."""
    if d == 1:
        xs = np.linspace(0.0, domain[0], 4097)[:, None]
    else:
        g = np.linspace(0.0, 1.0, 129)
        X, Y = np.meshgrid(g * domain[0], g * domain[1], indexing="ij")
        xs = np.stack([X.ravel(), Y.ravel()], axis=-1)
    vals = np.asarray(u0(xs))[..., 0]
    lo, hi = float(vals.min()), float(vals.max())
    width = hi - lo
    # constant data would give an empty box; use an absolute floor then
    pad = 0.05 * width if width > 0 else 1e-2 * (1.0 + max(abs(lo), abs(hi)))
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise ConfigError(f"the initial data's range [{lo}, {hi}] has no "
                          "finite width")
    return lo, hi


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

@dataclass
class ProblemSetup:
    mesh: object
    system: object
    scheme: object
    u0: object
    run_config: solver.RunConfig
    ref: object           # ReferenceSolution or None
    conf: dict            # the resolved config (resolve_config)
    n_label: int


def build_problem(cfg: dict, n_override=None) -> ProblemSetup:
    """The mesh, system, scheme, datum and reference of a config, which is
    a `resolve_config` dict or a `load_config` one, resolved here.
    `n_override` sets the mesh size (a study's level)."""
    conf = cfg if "command" in cfg else resolve_config(cfg)
    problem, length = conf["problem"], conf["length"]

    if problem == "advection2d":
        n_label = n_override or conf["nx"]
        box = (n_label, n_override or conf["ny"], length, conf["length_y"])
        # the builder rejects a jitter outside [0, 0.25), NaN included
        mesh = (build_perturbed_quad_2d(*box, conf["jitter"], conf["seed"])
                if conf["jitter"] else build_uniform_quad_2d(*box))
    else:
        n_label = n_override or conf["n_cells"]
        mesh = build_uniform_1d(n_label, length)

    u0, du0 = make_initial(conf, mesh.domain)
    # the datum's components against the system's state size, checked
    # before any system is sized from the datum
    m = (len(conf["matrix"]) if problem == "friedrichs1d"
         else 2 if problem == "shallow_water1d" else 1)
    k = np.shape(u0(mesh.cell_centroids[:1]))[-1]
    if k != m:
        raise ConfigError(f"the initial data have {k} components, the "
                          f"{problem} system has {m}")

    if problem in ("advection1d", "advection2d"):
        d = mesh.dim
        speed = conf["speed"]
        if len(speed) == 1 and d == 2:
            speed = [speed[0], speed[0]]
        lo, hi = _scalar_range(u0, mesh.domain, d)
        system = make_advection(d, speed, u_range=(lo, hi))
        ref = reference.exact_advection(speed, u0, mesh.domain)
    elif problem == "burgers1d":
        lo, hi = _scalar_range(u0, mesh.domain, 1)
        system = make_burgers(1, u_range=(lo, hi))
        if du0 is None:
            raise ConfigError("burgers1d needs differentiable catalog data")
        ref = reference.exact_burgers(u0, du0, mesh.domain)
    elif problem == "friedrichs1d":
        A = conf["matrix"]
        xs = np.linspace(0.0, mesh.domain[0], 4097)[:, None]
        # Omega is a characteristic-coordinate box: size it from the data
        _, R = np.linalg.eigh(A)
        w0 = np.asarray(u0(xs)) @ R
        radius = 1.05 * float(np.abs(w0).max())
        if not math.isfinite(2.0 * radius):
            raise ConfigError("the initial data's box [-r, r] at "
                              f"r = {radius} has no finite width")
        system = make_friedrichs([A], radius=radius)
        ref = reference.exact_friedrichs(A, u0, mesh.domain)
    else:  # shallow_water1d
        system = make_shallow_water_1d(g=conf["g"], h_min=conf["h_min"],
                                       h_max=conf["h_max"], q_max=conf["q_max"])
        ref = None

    if conf["name"] == "rusanov":
        scheme = numflux.make_rusanov(system, c=conf["c"])
    else:
        scheme = numflux.make_godunov_scalar(system)

    run_config = solver.RunConfig(final_time=conf["t"], **{key: conf[key] for key in (
        "cfl_mode", "zeta", "record_every", "check_admissibility", "quadrature")})

    mode = conf["reference"]  # exact, none, or a fine grid's factor
    if mode == "none":
        ref = None
    elif mode != "exact":
        ref = reference.fine_grid_reference(mesh, system, scheme, u0,
                                            run_config, mode)
    if ref is not None and run_config.final_time > ref.valid_until * (1 + 1e-12):
        raise ConfigError(
            f"final time {run_config.final_time} exceeds the reference "
            f"horizon {ref.valid_until}")

    diag.check_ball(mesh, conf["r"])
    return ProblemSetup(mesh=mesh, system=system, scheme=scheme, u0=u0,
                        run_config=run_config, ref=ref, conf=conf, n_label=n_label)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _fmt(x):
    return repr(float(x))


def execute_run(cfg: dict, n_override=None, output_dir=None,
                write_snapshots="all"):
    """Build, run, diagnose, and write artifacts.  Returns the report dict.

    The run keeps its first and last states only.  With `output_dir`,
    "all" writes each recorded state as the march yields it, and "ends"
    the first and last once the run is done; a run that raises removes
    the snapshot files it wrote and the directories it made.
    """
    setup = build_problem(cfg, n_override=n_override)
    mesh, system, scheme = setup.mesh, setup.system, setup.scheme
    run_config = setup.run_config
    ledger = diag.DiagnosticsLedger()
    fold = diag.ErrorFold(ledger, mesh, system, scheme, setup.u0, r=setup.conf["r"],
                          T=run_config.final_time, lf=system.lf,
                          reference=setup.ref,
                          quadrature=run_config.quadrature)
    stream = (_SnapshotStream(output_dir, mesh, system)
              if output_dir is not None and write_snapshots == "all" else None)
    _keep_step_heap()
    try:
        traj = solver.run(mesh, system, scheme, setup.u0, run_config, [fold],
                          record=stream or (lambda states: None))
        fold.finish(traj)
    except BaseException:
        if stream is not None:
            stream.remove()
        raise

    errors = {"cone_l2": None, "l2_spacetime": None, "rel_entropy_final": None}
    if setup.ref is not None:
        errors = {"cone_l2": fold.cone, "l2_spacetime": math.sqrt(fold.cone),
                  "rel_entropy_final": ledger.rel_entropy_series[-1][1]}

    vols, last = mesh.cell_volumes[:, None], traj.final_field.values
    mass0 = (vols * traj.snapshots[0][1].values).sum(axis=0)
    drift = np.abs((vols * last).sum(axis=0) - mass0).max()
    flags = {
        "entropy_residual": ledger.entropy_residual_max_scaled <= 1e-10,
        "dissipation_gap": bool(ledger.gap_all_pass),
        "conservation": bool(drift <= 1e-12 * max(1.0, float(np.abs(mass0).max()))),
        # checked here whether or not the run checked every step
        "admissibility": bool(np.all(np.isfinite(last))
                              and np.all(system.omega.contains(last))),
    }
    if setup.ref is not None:
        flags["mbeta_bracket"] = fold.mbeta_ok

    report = {
        "metadata": {
            "problem": setup.conf["problem"],
            "flux": setup.conf["name"],
            "n": setup.n_label,
            "h": mesh.h,
            "a": mesh.a,
            "dt": traj.dt,
            "n_steps": traj.n_steps,
            "lambda_star": scheme.lambda_star,
            "c": scheme.params.get("c"),
            "beta0": system.beta0,
            "beta1": system.beta1,
            "lf": system.lf,
            "zeta": setup.run_config.zeta,
            "cfl_mode": setup.run_config.cfl_mode,
            "quadrature": setup.run_config.quadrature,
            "record_every": setup.run_config.record_every,
            "seed": setup.conf["seed"],
            "r": setup.conf["r"],
            "T": setup.run_config.final_time,
            "mesh_id": mesh.mesh_id,
        },
        "ledger": dataclasses.asdict(ledger),
        "errors": errors,
        "flags": flags,
        "passed": all(flags.values()),
    }

    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        if stream is None:
            _write_snapshots(output_dir, mesh, system, traj, write_snapshots)
        with open(os.path.join(output_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report


# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_step_heap():
    """Keep the step loop's working set mapped between steps (glibc only).

    Each step, or block of steps, allocates and frees the same
    interface-sized arrays, march's buffers aside.  glibc
    gives the top of its heap back to the system once more than its trim
    threshold lies free there, and by default that threshold is twice the
    largest block it has mapped and unmapped so far, so it follows the
    largest transient array.  With setup in bounded scratch it is below
    the working set of a 2D step, so every step would return its pages and
    fault them in again (about 640 minor faults per step on a 128 x 128
    mesh).  Fixed thresholds keep arrays up to 32 MiB in the heap and its
    top mapped.  They are set after the problem is built, so that the
    setup of a single run still gives its larger transients back.
    """
    if not _sys.platform.startswith("linux"):
        return
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


class _SnapshotStream:
    """The recorded states of a run with all snapshots, written as the
    march yields them: `solver.run` calls it with each batch of states,
    which it hands to `_write_snapshots` as a trajectory of its own whose
    files go on from `first`.  The chunks' row templates are formatted
    once, here, for the whole run.  It makes the output directory, and
    `remove` takes back what it wrote and made."""

    def __init__(self, output_dir, mesh, system):
        self.output_dir, self.mesh, self.system = output_dir, mesh, system
        self.made = []  # the directories it makes, deepest first
        path = os.path.abspath(output_dir)
        while not os.path.isdir(path):
            self.made.append(path)
            path = os.path.dirname(path)
        os.makedirs(output_dir, exist_ok=True)
        self.templates = list(_row_templates(mesh, system.m))
        self.first, self.snapshots = 0, []

    def __call__(self, states):
        self.snapshots = states
        try:
            _write_snapshots(self.output_dir, self.mesh, self.system, self,
                             "all")
        finally:
            self.first += len(states)
            self.snapshots = []  # the march's rows: not to be held

    def remove(self):
        for idx in range(self.first):
            try:
                os.remove(_snapshot_path(self.output_dir, idx))
            except FileNotFoundError:
                pass
        for path in self.made:
            try:
                os.rmdir(path)
            except OSError:  # holds what the run did not write
                break


def _snapshot_path(output_dir, idx):
    return os.path.join(output_dir, f"snapshot_{idx:06d}.csv")


def _row_templates(mesh, m):
    """(cells, template) per chunk of the rows of a snapshot file: the
    chunk's "cell_id,x[,y]," per row, formatted once, and a %r per value.
    %r of a Python float is its repr, the same digits as _fmt.  A chunk
    takes a 128th of the scratch bound (`scratch_slices`, counting 128
    entries per value of a row), a few KiB of text."""
    values = ",".join(["%r"] * m) + "\n"
    for cells in scratch_slices(mesh.n_cells, 128 * (mesh.dim + m)):
        yield cells, "".join(f"{k},{','.join(map(repr, c))},{values}"
                             for k, c in enumerate(
                                 mesh.cell_centroids[cells].tolist(),
                                 cells.start))


def _write_snapshots(output_dir, mesh, system, traj, mode):
    """Write the kept snapshots ("all", or the first and last for "ends")
    as CSV files of one row per cell.

    The rows go in chunks of cells (`_row_templates`), each chunk into
    every file in turn, so that a chunk's text is all the writer holds
    beside the templates.  A file has the bytes of one whole-file
    template, and each chunk of it is one write.  A `_SnapshotStream` as
    `traj` brings its run's templates and numbers its files from its
    `first`; any other trajectory has its templates formatted a chunk at a
    time, each dropped once it has served every file, and its files
    numbered from 0.
    """
    if mode == "none":
        return
    snaps = traj.snapshots
    if mode == "ends":
        snaps = [snaps[0], snaps[-1]]
    coords = ["x", "y"][: mesh.dim]
    header = ",".join(["cell_id"] + coords
                      + [f"u_{k}" for k in range(system.m)])
    templates = getattr(traj, "templates", None) or _row_templates(mesh,
                                                                   system.m)
    for cells, template in templates:
        for idx, (t, fld) in enumerate(snaps, getattr(traj, "first", 0)):
            text = template % tuple(fld.values[cells].ravel().tolist())
            if cells.start == 0:
                text = f"# t = {_fmt(t)}\n{header}\n{text}"
            _write_bytes(_snapshot_path(output_dir, idx), text.encode(),
                         append=cells.start > 0)


def _write_bytes(path, data: bytes, append: bool = False):
    """Create or truncate the file at `path` (mode 0o666 less the umask, as
    open() does), or with `append` open it at its end, and write `data`,
    looping on short writes.  It skips open()'s buffered text layer, a
    measurable share of writing thousands of small snapshot files."""
    flags = os.O_WRONLY | (os.O_APPEND if append
                           else os.O_CREAT | os.O_TRUNC)
    fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


# exit code and message label per error class, most specific first
_ERROR_EXITS = (
    (ConfigParseError, EXIT_PARSE, "parse error"),
    ((ConfigError, ConstructionError, MeshError), EXIT_VALIDATION,
     "validation error"),
    (HypfluxError, EXIT_RUNTIME, "runtime error"),
)


def _exit_code(exc: HypfluxError) -> int:
    """Print the error under its label on stderr; return its exit code."""
    for kinds, code, label in _ERROR_EXITS:
        if isinstance(exc, kinds):
            print(f"{label}: {exc}", file=_sys.stderr)
            return code


def run_single(config_path, output_dir=None) -> int:
    """Exit-code wrapper around execute_run for one config file."""
    try:
        conf = resolve_config(load_config(config_path), "run")
        out = output_dir or conf["dir"]
        report = execute_run(conf, output_dir=out,
                             write_snapshots=conf["snapshots"])
    except HypfluxError as exc:
        return _exit_code(exc)
    if not report["passed"]:
        failed = [k for k, v in report["flags"].items() if not v]
        print(f"invariant failure: {failed}", file=_sys.stderr)
        return EXIT_INVARIANT
    print(f"run ok: report in {out}/report.json")
    return EXIT_OK


def validate_only(config_path) -> int:
    """Parse and validate a run config or study spec without running: the
    problem of the run (of a study's first level) is built and its
    initial data projected and checked, as the run's first step does, so
    data outside the admissible set fail here as the run fails."""
    try:
        conf = resolve_config(load_config(config_path))
        setup = build_problem(conf, n_override=conf.get("levels", [None])[0])
        solver.project_initial(setup.mesh, setup.system, setup.u0,
                               setup.run_config.quadrature)
    except HypfluxError as exc:
        return _exit_code(exc)
    print("config ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _level_worker(args):
    cfg, level, outdir = args
    report = execute_run(cfg, n_override=level, output_dir=outdir,
                         write_snapshots="ends")
    return level, report


def run_study(spec_path, output_dir=None, jobs: int = 1) -> int:
    try:
        conf = resolve_config(load_config(spec_path), "study")
        levels = conf["levels"]
        out = output_dir or conf["dir"]
        tasks = [(conf, lvl, os.path.join(out, f"level_{lvl}"))
                 for lvl in levels]
        if jobs > 1:
            # imported here: concurrent.futures loads logging, which every
            # run would carry for the fan-out of a study alone
            import concurrent.futures
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
                results = dict(ex.map(_level_worker, tasks))
        else:
            results = dict(map(_level_worker, tasks))
        reports = [results[lvl] for lvl in levels]
        if not all(rep["passed"] for rep in reports):
            print("invariant failure in a study level", file=_sys.stderr)
            return EXIT_INVARIANT
        passed, rate = _write_study(out, levels, reports)
    except HypfluxError as exc:
        return _exit_code(exc)

    if not passed:
        print("study gates failed", file=_sys.stderr)
        return EXIT_INVARIANT
    print(f"study ok: rate = {rate}, outputs in {out}")
    return EXIT_OK


def _write_study(out, levels, reports):
    """Convergence table, rate fit and scaling gates of the level reports,
    written under `out`; returns (passed, rate)."""
    rows = [diag.ConvergenceRow(
        h=rep["metadata"]["h"], dt=rep["metadata"]["dt"],
        error_l2_spacetime=rep["errors"]["l2_spacetime"],
        wbv_l1=rep["ledger"]["wbv_l1"], wbv_sq=rep["ledger"]["wbv_sq"],
        mu0_mass=rep["ledger"]["mu0_mass"], mu_t_mass=rep["ledger"]["mu_t_mass"])
        for rep in reports]
    table = diag.ConvergenceTable(rows=rows)
    have_errors = all(r.error_l2_spacetime is not None for r in rows)
    rate = diag.fit_rate(table) if have_errors else None
    wbv_rep = diag.wbv_scaling_report(table)
    masses = [diag.MeasureMasses(mu0=rep["ledger"]["mu0_mass"],
                                 mu_t=rep["ledger"]["mu_t_mass"],
                                 mu_bar0=rep["ledger"]["mu_bar0_mass"],
                                 mu_bar_t=rep["ledger"]["mu_bar_t_mass"])
              for rep in reports]
    mass_rep = diag.measure_scaling_report([r.h for r in rows], masses)

    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "convergence.csv")
    with open(csv_path, "w") as fh:
        fh.write("h,dt,err_l2,wbv_l1,wbv_sq,mu0,mu_t\n")
        for r in rows:
            err = "" if r.error_l2_spacetime is None else _fmt(r.error_l2_spacetime)
            fh.write(",".join([_fmt(r.h), _fmt(r.dt), err, _fmt(r.wbv_l1),
                               _fmt(r.wbv_sq), _fmt(r.mu0_mass),
                               _fmt(r.mu_t_mass)]) + "\n")
        fh.write(f"# fitted_rate = {'' if rate is None else _fmt(rate)}\n")

    passed = ((rate is None or rate >= 0.25)
              and wbv_rep.passed_l1 and wbv_rep.passed_sq and mass_rep.passed)
    study_report = {
        "levels": levels,
        "fitted_rate": rate,
        "wbv_scaling": dataclasses.asdict(wbv_rep),
        "measure_scaling": dataclasses.asdict(mass_rep),
        "level_reports": reports,
        "passed": bool(passed),
    }
    with open(os.path.join(out, "study_report.json"), "w") as fh:
        json.dump(study_report, fh, indent=2, sort_keys=True)
    return passed, rate


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypflux",
        description="Explicit entropy-stable finite-volume solver and "
                    "verification harness for conservation laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single simulation")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--jobs", type=int, default=1,
                       help="accepted for interface uniformity; a single "
                            "run is one job")

    p_study = sub.add_parser("study", help="run a mesh-refinement study")
    p_study.add_argument("spec")
    p_study.add_argument("--output-dir", default=None)
    p_study.add_argument("--jobs", type=int, default=1)

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_single(args.config, output_dir=args.output_dir)
    if args.command == "study":
        return run_study(args.spec, output_dir=args.output_dir, jobs=args.jobs)
    return validate_only(args.config)
