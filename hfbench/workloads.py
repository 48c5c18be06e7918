"""The benchmark's workloads: generated configs and how each is run.

Each workload is one `hypflux` command on a config written by the
benchmark.  The configs are the shipped ones under `configs/` with the
changes listed in the README; they are kept here in full, so that a later
edit of a shipped config does not change what the benchmark measures.
The seed given to the benchmark is written into the config's `seed` key.

`size="tiny"` gives the same workload at a size that runs in well under a
second; the benchmark's own tests use it.

`burgers-study` runs, but BENCHMARK.json does not list it: on that
problem λ* from make_rusanov, and with it the step count, depends on the
seed (README, "Why burgers-study is left out").
"""

from __future__ import annotations

import os
from dataclasses import dataclass

BURGERS_STUDY = """\
[study]
problem = burgers1d
levels = {levels}
t = {t}
zeta = 0.1
cfl_mode = strengthened
check_admissibility = true
quadrature = midpoint
seed = {seed}
r = 10.0
flux = rusanov

[initial]
kind = sine
mean = 0.5
amplitude = 0.25
frequency = 1

[flux]
name = rusanov
c = auto

[output]
dir = out_burgers1d_study
"""

ADVECTION2D_RUN = """\
[run]
problem = advection2d
nx = {n}
ny = {n}
jitter = 0.15
t = {t}
zeta = 0.1
record_every = 1
seed = {seed}
r = 10.0

[initial]
kind = sine
mean = 0.1
amplitude = 0.5

[system]
speed = 1.0, 0.5

[flux]
name = rusanov
c = auto

[output]
dir = out_advection2d
reference = exact
snapshots = ends
"""

SHALLOW_WATER_RUN = """\
[run]
problem = shallow_water1d
n_cells = {n}
t = {t}
zeta = 0.1
cfl_mode = strengthened
record_every = 1
check_admissibility = true
seed = {seed}
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
c = auto

[output]
dir = out_sw
reference = none
"""

GODUNOV_RUN = """\
[run]
problem = burgers1d
n_cells = {n}
t = {t}
zeta = 0.1
cfl_mode = strengthened
record_every = 1
check_admissibility = true
quadrature = midpoint
seed = {seed}
r = 10.0

[initial]
kind = sine
mean = 0.5
amplitude = 0.25
frequency = 1

[flux]
name = godunov

[output]
dir = out_burgers1d
reference = exact
snapshots = ends
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "run" or "study"
    template: str
    full: dict          # template fields at benchmark size; t = final time
    tiny: dict          # template fields for the benchmark's own tests
    check: str          # name of the independent check in checks.py


WORKLOADS = {
    "burgers-study": Workload(
        "burgers-study", "study", BURGERS_STUDY,
        full={"levels": "256, 512, 1024, 2048", "t": 0.2},
        tiny={"levels": "32, 64, 128", "t": 0.2},
        check="burgers-rusanov"),
    "adv2d-run": Workload(
        "adv2d-run", "run", ADVECTION2D_RUN,
        full={"n": 128, "t": 0.1}, tiny={"n": 12, "t": 0.1},
        check="advection2d"),
    "sw-run": Workload(
        "sw-run", "run", SHALLOW_WATER_RUN,
        full={"n": 64, "t": 0.05}, tiny={"n": 16, "t": 0.005},
        check="shallow_water"),
    "godunov-run": Workload(
        "godunov-run", "run", GODUNOV_RUN,
        full={"n": 1024, "t": 0.2}, tiny={"n": 64, "t": 0.2},
        check="burgers-godunov"),
}


def config_seed(seed: int) -> int:
    """Map any integer seed to one numpy's generators accept."""
    return seed % (2 ** 31)


def config_text(workload: Workload, seed: int, size: str = "full") -> str:
    fields = dict(workload.full if size == "full" else workload.tiny)
    return workload.template.format(seed=config_seed(seed), **fields)


def write_config(workload: Workload, seed: int, directory: str,
                 size: str = "full") -> str:
    """Write the workload's config into `directory`; return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload.name}.ini")
    with open(path, "w") as fh:
        fh.write(config_text(workload, seed, size))
    return path


def cli_args(workload: Workload, config_path: str, output_dir: str) -> list:
    """Arguments for `hypflux` (cli.main): single process, --jobs 1."""
    return [workload.command, config_path, "--output-dir", output_dir,
            "--jobs", "1"]
