"""Run the tbrw CLI in this process and report how its set-up went.

Usage: python3 launch.py REPORT TRACE_DIR -- <tbrw arguments>

Imports ``tbrw.cli`` (from ``PYTHONPATH``), notes the moment the experiment
runner is called, and then runs ``tbrw.cli.main`` on the given arguments.
An empty TRACE_DIR runs untraced; otherwise every layer is wrapped by
``spans.install`` before the runner starts, so forked pool workers inherit
the wrappers, and spans are written under TRACE_DIR.  REPORT receives one
JSON object: import time, runner start (``time.monotonic()``), the kernel
backend, and the library versions.  The exit code is the CLI's.
"""

import functools
import json
import os
import sys
import time


def main() -> int:
    report_path, trace_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py REPORT TRACE_DIR -- <tbrw arguments>")
    t0 = time.monotonic()
    from tbrw import cli
    import_s = time.monotonic() - t0

    report = {"import_s": import_s, "tbrw_file": cli.__file__}
    if trace_dir:
        import spans
        tracer = spans.Tracer(trace_dir)
        spans.install(tracer, cli)

    inner = cli.run_experiment

    @functools.wraps(inner)
    def mark_runner_start(cfg):
        report["runner_start"] = time.monotonic()
        return inner(cfg)

    cli.run_experiment = mark_runner_start
    code = cli.main(argv)

    import numpy
    import scipy
    from tbrw import _kernels
    report.update({
        "backend": _kernels.BACKEND,
        "available_backends": sorted(_kernels.available_backends()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
