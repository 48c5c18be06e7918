import os

import numpy as np
import pytest

import hypflux as hf


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


def tree_bytes(root):
    """{path relative to root: file bytes} of every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out
