"""Configuration-driven entry point.

`hypflux run <config>` executes one simulation with full diagnostics and
writes snapshots, a ledger dump, and a run report.  `hypflux study <spec>`
runs a mesh-refinement study, assembles the convergence table, fits the
error rate, and checks the weak-BV and measure-mass scalings.  `hypflux
validate <config>` parses and validates without running.

Config files are flat INI text: sections in brackets, `key = value`
lines, arrays as comma-separated values.  Initial data come from a small
named catalog (constant, sine, gaussian-bump, shallow-water-smooth-wave).

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
FLUXES = ("rusanov", "godunov")


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


def _get(cfg, section, key, default=None, required=False):
    try:
        return cfg[section][key]
    except KeyError:
        if required:
            raise ConfigParseError(f"missing key [{section}] {key}")
        return default


def _convert(raw, convert, section, key, what):
    """convert(raw), with a ValueError reported as a parse error of the key."""
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigParseError(f"[{section}] {key}: not {what}: {raw!r}") from exc


def _get_float(cfg, section, key, default=None, required=False):
    raw = _get(cfg, section, key, None, required)
    return default if raw is None else _convert(raw, float, section, key,
                                                "a number")


def _get_int(cfg, section, key, default=None, required=False):
    raw = _get(cfg, section, key, None, required)
    return default if raw is None else _convert(raw, int, section, key,
                                                "an integer")


def _get_floats(cfg, section, key, default=None, required=False):
    """A comma- or semicolon-separated list of numbers."""
    raw = _get(cfg, section, key, default, required)
    return _convert(raw, lambda text: [float(tok) for tok in text.replace(
        ";", ",").split(",") if tok.strip()], section, key, "a list of numbers")


def _get_bool(cfg, section, key, default):
    raw = _get(cfg, section, key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigParseError(f"[{section}] {key}: not a boolean: {raw!r}")


def _matrix(raw):
    """A square matrix: rows separated by semicolons, entries by commas."""
    rows = [[float(tok) for tok in r.split(",")]
            for r in raw.split(";") if r.strip()]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("not square")
    return np.array(rows)


# ---------------------------------------------------------------------------
# initial-data catalog
# ---------------------------------------------------------------------------

def make_initial(cfg: dict, problem: str, domain):
    """Build (u0, du0_dx) from the [initial] section.

    u0 maps points of shape (..., d) to states (..., m); the derivative is
    provided for 1D scalar data (the characteristics solver needs it) and
    is None otherwise.
    """
    kind = _get(cfg, "initial", "kind", required=True).strip().lower()
    d = 2 if problem == "advection2d" else 1
    lengths = np.asarray(domain, dtype=float)

    if kind == "constant":
        vals = np.array(_get_floats(cfg, "initial", "value", required=True))

        def u0(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(vals, x.shape[:-1] + vals.shape).copy()

        return u0, (lambda y: np.zeros_like(np.asarray(y, dtype=float)))

    if kind == "sine":
        given = cfg.get("initial", {})
        means = np.array(_get_floats(
            cfg, "initial", "means" if "means" in given else "mean", "0.0"))
        amps = np.array(_get_floats(
            cfg, "initial", "amplitudes" if "amplitudes" in given
            else "amplitude", "1.0"))
        freq = _get_float(cfg, "initial", "frequency", 1.0)
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
        mean = _get_float(cfg, "initial", "mean", 0.0)
        amp = _get_float(cfg, "initial", "amplitude", 1.0)
        center = _get_float(cfg, "initial", "center", 0.5)
        width = _get_float(cfg, "initial", "width", 0.1)

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

    if kind == "shallow-water-smooth-wave":
        h_mean = _get_float(cfg, "initial", "h_mean", 1.2)
        h_amp = _get_float(cfg, "initial", "h_amp", 0.2)
        q_mean = _get_float(cfg, "initial", "q_mean", 0.3)
        q_amp = _get_float(cfg, "initial", "q_amp", 0.1)
        k = 2.0 * math.pi

        def u0(x):
            x = np.asarray(x, dtype=float)
            s = np.sin(k * x[..., 0] / lengths[0])
            return np.stack([h_mean + h_amp * s, q_mean + q_amp * s], axis=-1)

        return u0, None

    raise ConfigError(f"unknown initial-data kind {kind!r}")


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
    """Sampled range of a scalar datum, padded by 5% of its width."""
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
    return lo - pad, hi + pad


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
    r: float
    seed: int
    problem: str
    flux_name: str
    n_label: int


def build_problem(cfg: dict, n_override=None) -> ProblemSetup:
    problem = _get(cfg, "run", "problem", required=True).strip().lower()
    if problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r}; choose from {PROBLEMS}")
    seed = _get_int(cfg, "run", "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed: not a nonnegative integer: {seed}")
    length = _get_float(cfg, "run", "length", 1.0)

    if problem == "advection2d":
        nx = n_override or _get_int(cfg, "run", "nx", required=True)
        ny = n_override or _get_int(cfg, "run", "ny", nx)
        jitter = _get_float(cfg, "run", "jitter", 0.0)
        ly = _get_float(cfg, "run", "length_y", length)
        if jitter > 0:
            mesh = build_perturbed_quad_2d(nx, ny, length, ly, jitter, seed)
        else:
            mesh = build_uniform_quad_2d(nx, ny, length, ly)
        n_label = nx
    else:
        n_cells = n_override or _get_int(cfg, "run", "n_cells", required=True)
        mesh = build_uniform_1d(n_cells, length)
        n_label = n_cells

    u0, du0 = make_initial(cfg, problem, mesh.domain)

    if problem in ("advection1d", "advection2d"):
        d = mesh.dim
        speed = _get_floats(cfg, "system", "speed", "1.0")
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
        A = _convert(_get(cfg, "system", "matrix", "0,1;1,0"), _matrix,
                     "system", "matrix", "a square matrix of numbers")
        xs = np.linspace(0.0, mesh.domain[0], 4097)[:, None]
        # Omega is a characteristic-coordinate box: size it from the data
        _, R = np.linalg.eigh(A)
        w0 = np.asarray(u0(xs)) @ R
        radius = 1.05 * float(np.abs(w0).max())
        system = make_friedrichs([A], radius=radius)
        ref = reference.exact_friedrichs(A, u0, mesh.domain)
    else:  # shallow_water1d
        system = make_shallow_water_1d(
            g=_get_float(cfg, "system", "g", 9.81),
            h_min=_get_float(cfg, "system", "h_min", 0.5),
            h_max=_get_float(cfg, "system", "h_max", 2.0),
            q_max=_get_float(cfg, "system", "q_max", 1.5))
        ref = None

    flux_name = _get(cfg, "flux", "name", "rusanov").strip().lower()
    if flux_name not in FLUXES:
        raise ConfigError(f"unknown flux {flux_name!r}; choose from {FLUXES}")
    if flux_name == "rusanov":
        c_raw = _get(cfg, "flux", "c", "auto").strip().lower()
        c = "auto" if c_raw == "auto" else _get_float(cfg, "flux", "c")
        scheme = numflux.make_rusanov(system, c=c)
    else:
        scheme = numflux.make_godunov_scalar(system)

    run_config = solver.RunConfig(
        final_time=_get_float(cfg, "run", "t", required=True),
        cfl_mode=_get(cfg, "run", "cfl_mode", "strengthened").strip().lower(),
        zeta=_get_float(cfg, "run", "zeta", 0.1),
        record_every=_get_int(cfg, "run", "record_every", 1),
        check_admissibility=_get_bool(cfg, "run", "check_admissibility", True),
        quadrature=_get(cfg, "run", "quadrature", "midpoint").strip().lower())

    ref_mode = _get(cfg, "output", "reference",
                    "none" if problem == "shallow_water1d" else "exact")
    ref_mode = ref_mode.strip().lower()
    if ref_mode == "none":
        ref = None
    elif ref_mode.startswith("fine"):
        factor = (_convert(ref_mode.split(":", 1)[1], int, "output",
                           "reference", "an integer factor")
                  if ":" in ref_mode else 8)
        ref = reference.fine_grid_reference(mesh, system, scheme, u0,
                                            run_config, factor)
    elif ref_mode != "exact":
        raise ConfigError(f"unknown reference mode {ref_mode!r}")
    if ref is not None and run_config.final_time > ref.valid_until * (1 + 1e-12):
        raise ConfigError(
            f"final time {run_config.final_time} exceeds the reference "
            f"horizon {ref.valid_until}")

    r = _get_float(cfg, "run", "r", 10.0)
    diag.check_ball(mesh, r)
    return ProblemSetup(mesh=mesh, system=system, scheme=scheme, u0=u0,
                        run_config=run_config, ref=ref, r=r, seed=seed,
                        problem=problem, flux_name=flux_name, n_label=n_label)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _fmt(x):
    return repr(float(x))


def execute_run(cfg: dict, n_override=None, output_dir=None,
                write_snapshots="all"):
    """Build, run, diagnose, and write artifacts.  Returns the report dict."""
    setup = build_problem(cfg, n_override=n_override)
    mesh, system, scheme = setup.mesh, setup.system, setup.scheme
    run_config = setup.run_config
    ledger = diag.DiagnosticsLedger()
    fold = diag.ErrorFold(ledger, mesh, system, scheme, setup.u0, r=setup.r,
                          T=run_config.final_time, lf=system.lf,
                          reference=setup.ref,
                          quadrature=run_config.quadrature)
    if write_snapshots != "all":
        # only the first and last states are read: keep no others
        run_config = dataclasses.replace(run_config, record_every=_sys.maxsize)
    _keep_step_heap()
    traj = solver.run(mesh, system, scheme, setup.u0, run_config, [fold])
    fold.finish(traj)

    errors = {"cone_l2": None, "l2_spacetime": None, "rel_entropy_final": None}
    if setup.ref is not None:
        errors = {"cone_l2": fold.cone, "l2_spacetime": math.sqrt(fold.cone),
                  "rel_entropy_final": ledger.rel_entropy_series[-1][1]}

    u0f = traj.snapshots[0][1]
    uNf = traj.final_field
    mass0 = (mesh.cell_volumes[:, None] * u0f.values).sum(axis=0)
    massN = (mesh.cell_volumes[:, None] * uNf.values).sum(axis=0)
    scale = max(1.0, float(np.abs(mass0).max()))
    conservation_ok = bool(np.abs(massN - mass0).max() <= 1e-12 * scale)

    # checked here whether or not the run checked every step
    admissible = bool(np.all(np.isfinite(uNf.values))
                      and np.all(system.omega.contains(uNf.values)))

    cs_rhs = math.sqrt(max(ledger.wbv_sq, 0.0)
                       * max(ledger.interface_measure_total, 0.0))
    cauchy_ok = ledger.wbv_l1 <= cs_rhs * (1.0 + 1e-12) + 1e-14

    flags = {
        "entropy_residual": ledger.entropy_residual_max_scaled <= 1e-10,
        "dissipation_gap": bool(ledger.gap_all_pass),
        "conservation": conservation_ok,
        "admissibility": admissible,
        "cauchy_schwarz": bool(cauchy_ok),
    }
    if setup.ref is not None:
        flags["mbeta_bracket"] = fold.mbeta_ok

    report = {
        "metadata": {
            "problem": setup.problem,
            "flux": setup.flux_name,
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
            "seed": setup.seed,
            "r": setup.r,
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
        _write_snapshots(output_dir, mesh, system, traj, write_snapshots)
        meta = report["metadata"]
        run_meta = {key: meta[key] for key in ("dt", "n_steps", "lambda_star",
                                               "a", "h", "zeta", "quadrature")}
        run_meta.update(scheme=meta["flux"], system=meta["problem"])
        with open(os.path.join(output_dir, "run_metadata.json"), "w") as fh:
            json.dump(run_meta, fh, indent=2, sort_keys=True)
        with open(os.path.join(output_dir, "ledger.json"), "w") as fh:
            json.dump(report["ledger"], fh, indent=2, sort_keys=True)
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


def _write_snapshots(output_dir, mesh, system, traj, mode):
    """Write the kept snapshots ("all", or the first and last for "ends")
    as CSV files of one row per cell.

    The rows go in chunks of cells, each chunk into every file in turn,
    so that one chunk's row templates and text are all the writer holds:
    a chunk takes a 128th of the scratch bound (`scratch_slices`,
    counting 128 entries per value of a row), a few KiB of text that no
    run's peak memory feels.  A chunk's template, "cell_id,x[,y]," per row
    formatted once and a %r per value, serves every file: %r of a Python
    float is its repr, the same digits as _fmt.  So a file has the bytes
    of one whole-file template, and each chunk of it is one write.
    """
    if mode == "none":
        return
    snaps = traj.snapshots
    if mode == "ends":
        snaps = [snaps[0], snaps[-1]]
    coords = ["x", "y"][: mesh.dim]
    header = ",".join(["cell_id"] + coords
                      + [f"u_{k}" for k in range(system.m)])
    values = ",".join(["%r"] * system.m) + "\n"
    for cells in scratch_slices(mesh.n_cells, 128 * (mesh.dim + system.m)):
        template = "".join(f"{k},{','.join(map(repr, c))},{values}"
                           for k, c in enumerate(
                               mesh.cell_centroids[cells].tolist(),
                               cells.start))
        for idx, (t, fld) in enumerate(snaps):
            path = os.path.join(output_dir, f"snapshot_{idx:06d}.csv")
            text = template % tuple(fld.values[cells].ravel().tolist())
            if cells.start == 0:
                text = f"# t = {_fmt(t)}\n{header}\n{text}"
            _write_bytes(path, text.encode(), append=cells.start > 0)


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


def _snapshot_mode(cfg: dict) -> str:
    """The [output] snapshots mode of a run config: all, ends or none."""
    mode = _get(cfg, "output", "snapshots", "all").strip().lower()
    if mode not in ("all", "ends", "none"):
        raise ConfigError(f"unknown snapshots mode {mode!r}")
    return mode


def run_single(config_path, output_dir=None) -> int:
    """Exit-code wrapper around execute_run for one config file."""
    try:
        cfg = load_config(config_path)
        out = output_dir or _get(cfg, "output", "dir", "hypflux_out")
        report = execute_run(cfg, output_dir=out,
                             write_snapshots=_snapshot_mode(cfg))
    except HypfluxError as exc:
        return _exit_code(exc)
    if not report["passed"]:
        failed = [k for k, v in report["flags"].items() if not v]
        print(f"invariant failure: {failed}", file=_sys.stderr)
        return EXIT_INVARIANT
    print(f"run ok: report in {out}/report.json")
    return EXIT_OK


def validate_only(config_path) -> int:
    """Parse and validate a run config or study spec without running."""
    try:
        cfg = load_config(config_path)
        if "study" in cfg:
            levels = _parse_levels(cfg)
            build_problem(_study_to_run_config(cfg), n_override=levels[0])
        else:
            _snapshot_mode(cfg)
            build_problem(cfg)
    except HypfluxError as exc:
        return _exit_code(exc)
    print("config ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _parse_levels(cfg: dict):
    raw = _get(cfg, "study", "levels", required=True)
    levels = _convert(raw, lambda text: [int(tok) for tok in text.split(",")],
                      "study", "levels", "integers")
    if len(levels) < 3:
        raise ConfigError("a study needs at least 3 mesh levels")
    if levels[0] < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"study levels must be positive and strictly "
                          f"increase, got {levels}")
    return levels


def _study_to_run_config(cfg: dict) -> dict:
    if "snapshots" in cfg.get("output", {}):
        raise ConfigError("[output] snapshots does not apply to a study: "
                          "each level writes its first and last snapshots")
    run = dict(cfg.get("study", {}))
    run.pop("levels", None)
    flux = run.pop("flux", None)
    out = {sec: dict(items) for sec, items in cfg.items() if sec != "study"}
    out["run"] = {**run, **out.get("run", {})}
    out.setdefault("flux", {})
    if flux is not None:
        named = out["flux"].setdefault("name", flux)
        if named.strip().lower() != flux.strip().lower():
            raise ConfigError(f"[study] flux = {flux.strip()} disagrees with "
                              f"[flux] name = {named.strip()}")
    return out


def _level_worker(args):
    cfg, level, outdir = args
    report = execute_run(cfg, n_override=level, output_dir=outdir,
                         write_snapshots="ends")
    return level, report


def run_study(spec_path, output_dir=None, jobs: int = 1) -> int:
    try:
        cfg = load_config(spec_path)
        levels = _parse_levels(cfg)
        run_cfg = _study_to_run_config(cfg)
        out = output_dir or _get(cfg, "output", "dir", "hypflux_study")
        tasks = [(run_cfg, lvl, os.path.join(out, f"level_{lvl}"))
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
