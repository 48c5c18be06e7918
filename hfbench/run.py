"""Benchmark of the hypflux command line, end to end and per layer.

    python3 hfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a hypflux checkout.  One run repeats whole rounds
of the workload's command for about S seconds.  A round starts a fresh
interpreter (child.py) that runs `hypflux run|study` through `cli.main`
on a config generated from the seed, then checks the written outputs
against independently computed solutions (checks.py).  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
cell_updates_per_s, peak_rss_mb); with --trace 1 the per-layer ones from
spans recorded around each module's public functions (tracer.py).  Each
metric is the median over the run's rounds, with times rescaled to a
reference machine speed (calibration.py).  Per-round figures go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibration
import checks
import layers
from workloads import WORKLOADS, cli_args, config_seed, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0  # a run must end within 180 s, children included
CAL_SAMPLES = 15  # calibration samples before the first and after each round
TIME_UNITS = ("s", "us", "ns")
# single-threaded BLAS and OpenMP: a round uses one core of the two
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env(root):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_round(workload, fields, seed, config, trace, work, k, root, deadline):
    """One command in a fresh process, timed from outside, then checked."""
    outdir = os.path.join(work, f"round{k}")
    stats_path = os.path.join(work, f"stats{k}.json")
    log_path = os.path.join(work, f"log{k}.txt")
    cmd = ([sys.executable, os.path.join(HERE, "child.py"), stats_path,
            "1" if trace else "0"] + cli_args(workload, config, outdir))
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(root), cwd=root)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    try:
        with open(stats_path) as fh:
            stats = json.load(fh)
    except (OSError, ValueError):
        stats = {}
    ops = checks.check(workload, fields, outdir, rc, config_seed(seed))
    for op in ops:
        if not op.ok:
            print(f"round {k} {workload.name} {op.name}: FAILED "
                  f"{'; '.join(op.problems)}", file=sys.stderr)
    if rc != 0:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-2000:])
    shutil.rmtree(outdir, ignore_errors=True)
    rnd = {"wall_s": wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6,
           "ops": ops, "cell_updates": sum(op.cell_updates for op in ops)}
    if trace:
        spans = stats.get("spans", [])
        rnd["layers"] = layers.layer_metrics(spans, float(fields["t"]))
        rnd["shares"] = layers.layer_shares(spans)
    else:
        rnd["setup_s"] = stats.get("setup_s", float("nan"))
    return rnd


def calibrate():
    return [calibration.sample() for _ in range(CAL_SAMPLES)]


def pin_to_current_cpu():
    """Keep this process and its children on the CPU it runs on now, so
    that the calibration measures the CPU the rounds run on."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def warm_up(root):
    """Import hypflux once, so that the first round does not pay for
    compiling its bytecode or reading numpy and scipy from a cold disk."""
    subprocess.run([sys.executable, "-c", "import hypflux.cli"],
                   env=child_env(root), cwd=root, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120)


def measure(workload, seed, seconds, trace, size, root):
    fields = dict(workload.full if size == "full" else workload.tiny)
    work = os.path.join(root, ".hfbench", f"{workload.name}-{os.getpid()}")
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        os.makedirs(work, exist_ok=True)
        config = write_config(workload, seed, work, size)
        warm_up(root)
        pin_to_current_cpu()
        start = time.perf_counter()
        rounds = []
        before = calibrate()
        while True:
            rnd = run_round(workload, fields, seed, config, trace, work,
                            len(rounds), root, deadline)
            after = calibrate()
            rnd["scale"] = calibration.CAL_REF_S / statistics.median(
                before + after)
            rounds.append(rnd)
            before = after
            now = time.perf_counter()
            spent = now - start
            if spent + spent / len(rounds) > seconds or now > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return rounds


def summarize(rounds, trace):
    """Medians over rounds; every time is rescaled to reference speed."""
    ops = [op for r in rounds for op in r["ops"]]
    med = statistics.median
    if trace:
        metrics = {}
        for name, unit in layers.UNITS.items():
            scale = unit in TIME_UNITS
            values = [r["wall_s"] if name == "traced_wall_s"
                      else r["layers"][name] for r in rounds]
            metrics[name] = {
                "value": med(v * r["scale"] if scale else v
                             for v, r in zip(values, rounds)),
                "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": med(r["wall_s"] * r["scale"] for r in rounds),
                       "unit": "s"},
            "setup_s": {"value": med(r["setup_s"] * r["scale"]
                                     for r in rounds), "unit": "s"},
            "cell_updates_per_s": {
                "value": med(r["cell_updates"]
                             / ((r["wall_s"] - r["setup_s"]) * r["scale"])
                             for r in rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": med(r["rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    return {
        # false when the program reported success on an output that an
        # independent check rejects
        "correct": not any(op.exited_ok and not op.ok for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": metrics,
    }


def report_rounds(rounds, trace):
    for k, r in enumerate(rounds):
        line = (f"round {k}: wall {r['wall_s']:.3f} s, rss {r['rss_mb']:.1f} MB, "
                f"speed scale {r['scale']:.3f}")
        if not trace:
            line += f", setup {r['setup_s']:.3f} s"
        errs = [f"{op.l2_error:.3e}" for op in r["ops"]
                if op.l2_error is not None]
        if errs:
            line += f", final L2 errors {', '.join(errs)}"
        print(line, file=sys.stderr)
    # the raw time beside the rescaled one, so that the rescaling shows
    med = statistics.median
    print(f"median over {len(rounds)} rounds: raw wall "
          f"{med(r['wall_s'] for r in rounds):.3f} s, speed scale "
          f"{med(r['scale'] for r in rounds):.3f}, rescaled wall "
          f"{med(r['wall_s'] * r['scale'] for r in rounds):.3f} s",
          file=sys.stderr)
    if trace:
        total = {}
        for r in rounds:
            for layer, s in r["shares"].items():
                total[layer] = total.get(layer, 0.0) + s / len(rounds)
        wall = statistics.mean(r["wall_s"] for r in rounds)
        parts = ", ".join(f"{k} {v / wall:.1%}" for k, v in
                          sorted(total.items(), key=lambda kv: -kv[1]))
        print(f"self time by layer, share of traced wall: {parts}; "
              f"outside spans {1 - sum(total.values()) / wall:.1%}",
              file=sys.stderr)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the benchmark's own tests")
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hypflux", "cli.py")):
        print("hfbench: src/hypflux not found; run from the root of a "
              "hypflux checkout", file=sys.stderr)
        return 2
    rounds = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.size, root)
    report_rounds(rounds, bool(args.trace))
    print(json.dumps(summarize(rounds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
