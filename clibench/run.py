#!/usr/bin/env python3
"""End-to-end benchmark of the tbrw CLI, with a traced pass per layer.

Run from the root of a tbrw source tree:

    python3 clibench/run.py --workload long-walk --seed 1 --seconds 40 --trace 0
    python3 clibench/run.py --self-test

Each operation is one ``tbrw`` CLI invocation in a child process, at a
config that the workload builds from ``--seed``.  The run repeats the same
invocation until the next one would overrun ``--seconds`` of CLI time
(always at least one), checks the outputs, and prints one JSON line per
invocation, an ``env`` line, and, last, the result:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (medians over the run's
invocations).  ``--trace 1`` alternates untraced and traced invocations and
reports the per-layer metrics of the traced ones, plus the tracing overhead
(median traced wall time minus median untraced wall time).

Outputs and traces go under ``.clibench/`` in the source tree.  See
README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

import layers
import workloads
from harness import RUN_LIMIT_S, WORK_DIR, BenchmarkError, invoke, output_digest, source_tree


class OutputJudge:
    """Checks the first successful invocation's outputs in full; a later
    invocation of the same config must reproduce the same bytes."""

    def __init__(self, workload, cfg: dict, seed: int):
        self.workload, self.cfg, self.seed = workload, cfg, seed
        self.digest = None
        self.failures = None

    def judge(self, out: str) -> list:
        """Failure messages for one invocation's outputs (empty when correct)."""
        try:
            digest = output_digest(out)
            if self.digest is None:
                reference = self.workload.reference(self.seed, self.cfg, "full")
                verdict = self.workload.check(out, self.cfg, reference)
                self.digest = digest
                self.failures = [f"{name}: {msg}" for name, msg in verdict.items() if msg]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
        if digest != self.digest:
            return ["outputs differ from an earlier invocation of the same config"]
        return self.failures


def environment(report: dict) -> dict:
    return {
        "backend": report.get("backend"),
        "available_backends": report.get("available_backends"),
        "python": report.get("python"),
        "numpy": report.get("numpy"),
        "scipy": report.get("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workers": workloads.WORKERS,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    root = os.getcwd()
    source_tree(root)
    workload = workloads.WORKLOADS[name]
    cfg = workload.config(workloads.master_seed(name, seed), "full")
    run_dir = os.path.join(root, WORK_DIR, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    judge = OutputJudge(workload, cfg, seed)

    steps = workload.steps(cfg)
    done, failed, cli_time = [], 0, 0.0
    while True:
        # with tracing on, untraced and traced invocations alternate
        traced = trace and len(done) % 2 == 1
        inv = invoke(root, run_dir, len(done), cfg["experiment"], cfg_path,
                     traced, started + RUN_LIMIT_S)
        problems = ([f"exit code {inv['exit']}"] if inv["exit"]
                    else judge.judge(inv["out"]))
        inv["ok"] = not problems
        failed += not inv["ok"]
        if inv["ok"]:
            inv["steps_per_s"] = steps / (inv["wall_s"] - inv["setup_s"])
        if traced and inv["ok"]:
            spans = layers.load_spans(inv["trace_dir"])
            inv["layers"] = layers.layer_metrics(spans, inv["report"]["import_s"])
            inv["self_s"] = layers.self_time_by_name(spans)
        shutil.rmtree(inv["out"], ignore_errors=True)
        done.append(inv)
        print(json.dumps({k: inv.get(k) for k in
                          ("index", "traced", "ok", "wall_s", "setup_s", "cpu_s",
                           "peak_rss_mb", "steps_per_s")} | {"problems": problems}),
              flush=True)
        cli_time += inv["wall_s"]
        need_traced = trace and not any(d["traced"] for d in done)
        projected = time.monotonic() + 2 * inv["wall_s"]
        if projected > started + RUN_LIMIT_S:
            break
        if cli_time + inv["wall_s"] > seconds and not need_traced:
            break

    good = [d for d in done if d["ok"]]
    if good:
        print(json.dumps({"env": environment(good[0]["report"])}), flush=True)
    return summarise(done, good, failed, trace)


def _median(values):
    return statistics.median(values) if values else 0.0


def summarise(done: list, good: list, failed: int, trace: bool) -> dict:
    if not trace:
        metrics = {name: {"value": _median([d[name] for d in good]), "unit": unit}
                   for name, unit in (("wall_s", "s"), ("setup_s", "s"),
                                      ("steps_per_s", "steps/s"), ("cpu_s", "s"),
                                      ("peak_rss_mb", "MB"))}
    else:
        traced = [d for d in good if d["traced"]]
        plain = [d for d in good if not d["traced"]]
        values = {name: _median([d["layers"][name] for d in traced])
                  for name, _, _ in layers.PER_LAYER if not name.startswith("trace.")}
        values["trace.wall_s"] = _median([d["wall_s"] for d in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(
            [d["wall_s"] for d in plain])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
        if traced:
            print(json.dumps({"self_s": traced[-1]["self_s"]}), flush=True)
    return {"correct": failed == 0 and bool(good), "attempted": len(done),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny size and show that "
                             "each output check rejects a corrupted output")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            import selftest
            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
