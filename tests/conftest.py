import dataclasses
import gc
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

import hypflux as hf
from hypflux import numflux
from hypflux.systems import SCRATCH_ENTRIES

# bytes of one float64 scratch chunk, the unit of the memory budgets
SCRATCH_BYTES = 8 * SCRATCH_ENTRIES


@pytest.fixture(scope="session")
def burgers_sys():
    return hf.make_burgers(1, u_range=(-1.0, 1.0))


@pytest.fixture(scope="session")
def advection_sys():
    return hf.make_advection(1, [1.0], u_range=(-1.0, 1.0))


@pytest.fixture(scope="session")
def friedrichs_sys():
    return hf.make_friedrichs([np.array([[0.0, 1.0], [1.0, 0.0]])], radius=1.5)


@pytest.fixture(scope="session")
def friedrichs_diag_sys():
    return hf.make_friedrichs([np.diag([1.0, -1.0])], radius=1.5)


@pytest.fixture(scope="session")
def shallow_water_sys():
    return hf.make_shallow_water_1d(9.81, 0.8, 1.7, 1.0)


@pytest.fixture(scope="session")
def burgers_rusanov(burgers_sys):
    return hf.make_rusanov(burgers_sys)


@pytest.fixture(scope="session")
def burgers_godunov(burgers_sys):
    return hf.make_godunov_scalar(burgers_sys)


@pytest.fixture(scope="session")
def advection_rusanov(advection_sys):
    return hf.make_rusanov(advection_sys)


@pytest.fixture(scope="session")
def advection_godunov(advection_sys):
    return hf.make_godunov_scalar(advection_sys)


@pytest.fixture(scope="session")
def friedrichs_rusanov(friedrichs_sys):
    return hf.make_rusanov(friedrichs_sys)


@pytest.fixture(scope="session")
def shallow_water_rusanov(shallow_water_sys):
    return hf.make_rusanov(shallow_water_sys)


def sample_pairs(sys, n, seed):
    rng = np.random.default_rng(seed)
    u = sys.omega.sample(rng, n)
    v = sys.omega.sample(rng, n)
    if sys.d == 1:
        nrm = np.where(rng.random((n, 1)) < 0.5, 1.0, -1.0)
    else:
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        nrm = np.stack([np.cos(th), np.sin(th)], axis=-1)
    return u, v, nrm


def fixed_pairs(sys):
    """The fixed pairs (u, v) of setup, with their normals: the grid pairs
    and cycled directions that lambda* is calibrated on."""
    U, V = numflux._grid_pairs(sys.omega, numflux._pair_grid_size(sys.m))
    return U, V, numflux._cycled_directions(sys.d, len(U))


def same_bits(got, want):
    """True when got and want have one shape, one dtype and the same bits,
    sign of zero included.  A NaN only has to meet a NaN: IEEE 754 leaves
    open which payload an operation on two NaNs returns, and numpy's loops
    and plain adds pick differently."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    nan = np.isnan(want)
    bits = f"u{want.itemsize}"
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(bits), want[~nan].view(bits)))


def rel_close(got, want, rtol=1e-12):
    """True when got and want have one shape and agree to rtol relative,
    elementwise."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.abs(want)))


def tree_bytes(root):
    """{path relative to root: file bytes} of every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def count_kernel_parts(sch, calls, *parts):
    """A copy of the scheme sch whose bound kernels append the name of each
    of their `parts` ("update", "records") to `calls` when it runs."""
    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    def bind(n):
        kernel = sch.bind(n)
        return kernel._replace(**{name: counted(name, getattr(kernel, name))
                                  for name in parts})
    return dataclasses.replace(sch, bind=bind)


def traced_peak(fn, *args):
    """fn(*args) under tracemalloc: (result, peak, retained), where peak is
    the largest number of bytes the call had allocated at once and
    retained the bytes it still holds when it returns (its result, caches
    it filled).  peak - retained is the scratch the call needed."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


# Runs `python ARGS...` and writes its peak RSS (KiB, from os.wait4) to
# the file named by argv[1]; the exit code is the child's.
_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable] + sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def fresh_maxrss(code, *args, stdin=None, env=None):
    """Run `python -c code *args` in a fresh interpreter with `stdin` as
    its input text; return (CompletedProcess, peak RSS in MiB), the peak
    taken from the child's rusage through os.wait4.

    Linux carries a process's peak RSS across exec, and a child forked
    from the test process would start from that process's size; so a
    small launcher interpreter starts the child and reports its peak.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("in", "out", "err", "rss")]
        with open(paths[0], "w") as fh:
            fh.write(stdin or "")
        with open(paths[0]) as inp, open(paths[1], "w") as out, \
                open(paths[2], "w") as err:
            rc = subprocess.run(
                [sys.executable, "-c", _LAUNCHER, paths[3], "-c", code, *args],
                stdin=inp, stdout=out, stderr=err, env=env).returncode
        out, err, maxrss_kib = map(_read, paths[1:])
    res = subprocess.CompletedProcess([sys.executable, "-c", code, *args], rc,
                                      out, err)
    return res, int(maxrss_kib) / 1024.0


def _read(path):
    with open(path) as fh:
        return fh.read()
