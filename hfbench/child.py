"""Run one `hypflux` command in this fresh interpreter and write its stats.

    python3 hfbench/child.py STATS_JSON TRACE HYPFLUX_ARGS...

The command goes through the public path, `hypflux.cli.main`.  With
TRACE = 0 only `cli.build_problem` is timed (two clock reads per call),
which gives `setup_s`.  With TRACE = 1 every layer is traced (tracer.py)
and the spans are written out at the end.  The exit code is the one
`cli.main` returned.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _check_source():
    """Refuse to measure a hypflux that is not the one under PYTHONPATH."""
    import hypflux
    src = os.path.realpath(os.environ.get("PYTHONPATH", "").split(os.pathsep)[0])
    here = os.path.realpath(hypflux.__file__)
    if not here.startswith(src + os.sep):
        sys.exit(f"hypflux imported from {here}, not from {src}")


def main(argv):
    stats_path, trace, args = argv[0], argv[1] == "1", argv[2:]
    _check_source()
    import hypflux.cli as cli

    if trace:
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
        rc = cli.main(args)
        stats = {"spans": tr.spans}
    else:
        stats = {"setup_s": 0.0, "builds": 0}
        build = cli.build_problem

        def timed_build(*a, **kw):
            t0 = time.perf_counter()
            try:
                return build(*a, **kw)
            finally:
                stats["setup_s"] += time.perf_counter() - t0
                stats["builds"] += 1

        cli.build_problem = timed_build
        rc = cli.main(args)
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
