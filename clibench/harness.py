"""Launching one tbrw CLI invocation as a child process and measuring it."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".clibench"
RUN_LIMIT_S = 170  # a run must end within 180 s
# manifest.json records the run's own wall time, so it differs between runs
VOLATILE_OUTPUTS = {"manifest.json"}


class BenchmarkError(RuntimeError):
    pass


def source_tree(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tbrw", "cli.py")):
        raise BenchmarkError(f"no tbrw source tree under {root!r}: "
                             "run from the root of a checkout")
    return src


def _stop_group(pgid: int) -> None:
    """Kill what is left of an invocation's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def invoke(root: str, run_dir: str, index: int, experiment: str,
           cfg_path: str, traced: bool, deadline: float) -> dict:
    """Run one CLI invocation; returns its measurements and file locations."""
    tag = f"{index:03d}"
    out = os.path.join(run_dir, f"out-{tag}")
    report_path = os.path.join(run_dir, f"report-{tag}.json")
    trace_dir = os.path.join(run_dir, f"trace-{tag}") if traced else ""
    if trace_dir:
        os.makedirs(trace_dir)
    env = dict(os.environ, PYTHONPATH=source_tree(root), TMPDIR=run_dir)
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), report_path,
           trace_dir, "--", experiment, "--config", cfg_path, "--out", out]
    with open(os.path.join(run_dir, f"log-{tag}.txt"), "w") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - launched, 0.0), _stop_group, [proc.pid])
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        finally:
            timer.cancel()
            _stop_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"index": index, "traced": traced, "exit": proc.returncode,
              "out": out, "trace_dir": trace_dir, "wall_s": exited - launched,
              # user + system CPU of the CLI and of the pool workers it reaped
              "cpu_s": usage.ru_utime + usage.ru_stime,
              # ru_maxrss (KiB) of the child covers its reaped workers as well
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0:
        with open(report_path) as fh:
            report = json.load(fh)
        if not os.path.abspath(report["tbrw_file"]).startswith(source_tree(root) + os.sep):
            raise BenchmarkError(f"the CLI imported tbrw from {report['tbrw_file']}, "
                                 "not from this source tree")
        result["report"] = report
        result["setup_s"] = report["runner_start"] - launched
    return result


def output_digest(out: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name in VOLATILE_OUTPUTS:
            continue
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()
