"""Per-layer metrics from the spans of one traced CLI invocation.

Spans come from ``spans.py``.  A busy time counts only outermost spans: a
span nested in another of the same name (of the same layer, for
``estimators.busy_s``) is not counted twice.  Self time is a span's duration minus the part of it that
its child spans cover, children in pool workers included.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

# name, unit, better: the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("schedules.sample_s", "s", "lower"),
    ("schedules.draws", "count", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.steps", "steps", "lower"),
    ("kernels.steps_per_s", "steps/s", "higher"),
    ("engine.runs", "count", "lower"),
    ("engine.overhead_us_per_run", "us", "lower"),
    ("engine.arena_s", "s", "lower"),
    ("engine.tree_s", "s", "lower"),
    ("engine.tree_nodes", "count", "lower"),
    ("engine.csv_s", "s", "lower"),
    ("engine.csv_bytes", "B", "lower"),
    ("stopping.detect_s", "s", "lower"),
    ("stopping.blocks_s", "s", "lower"),
    ("stopping.candidates", "count", "lower"),
    ("estimators.busy_s", "s", "lower"),
    ("couplings.grand_s", "s", "lower"),
    ("couplings.grand_runs", "count", "lower"),
    ("couplings.grand_nodes", "count", "lower"),
    ("couplings.ball_moves", "count", "lower"),
    ("couplings.check_s", "s", "lower"),
    ("couplings.query_s", "s", "lower"),
    ("experiments.fanout_s", "s", "lower"),
    ("experiments.tasks", "count", "lower"),
    ("experiments.result_bytes", "B_computed", "lower"),
    ("experiments.write_s", "s", "lower"),
    ("experiments.artifact_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def load_spans(trace_dir: str) -> list:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            for line in fh:
                sid, parent, name, start, end, pid, counts = json.loads(line)
                spans.append({"id": sid, "parent": parent, "name": name,
                              "start": start, "end": end, "pid": pid,
                              "counts": counts, "dur": end - start})
    return spans


def _covered(intervals) -> float:
    total, reach = 0.0, None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: s["dur"] - _covered(
        [(max(a, s["start"]), min(b, s["end"])) for a, b in children[s["id"]]
         if min(b, s["end"]) > max(a, s["start"])])
        for s in spans}


def self_time_by_name(spans: list) -> dict:
    """Summed self time per span name, largest first."""
    own = self_times(spans)
    totals: dict = defaultdict(float)
    for s in spans:
        totals[s["name"]] += own[s["id"]]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans: list, import_s: float) -> dict:
    """Every per-layer metric except the ``trace.*`` pair, from one
    invocation's spans."""
    by_id = {s["id"]: s for s in spans}

    def layer(name):
        return name.split(".")[0]

    def outermost(s, key) -> bool:
        """No ancestor of ``s`` has the same ``key`` (name or layer)."""
        parent = by_id.get(s["parent"])
        while parent is not None:
            if key(parent["name"]) == key(s["name"]):
                return False
            parent = by_id.get(parent["parent"])
        return True

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["dur"] for s in named(name) if outermost(s, str))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    runs = named("engine.run")
    # engine overhead: a run's time outside sampling, the kernel and the tree
    # (so arena set-up and the jump uniforms are overhead)
    run_ids = {r["id"] for r in runs}
    inner = sum(c["dur"] for c in spans if c["parent"] in run_ids
                and c["name"] in ("schedules.sample", "kernels.loop", "engine.tree"))
    overhead = sum(r["dur"] for r in runs) - inner

    fanout = 0.0
    for m in named("experiments.map"):
        tasks = [t["dur"] for t in spans
                 if t["parent"] == m["id"] and t["name"] == "experiments.task"]
        n_tasks, workers = m["counts"]["tasks"], m["counts"]["workers"]
        width = 1 if workers <= 1 or n_tasks <= 1 else min(workers, n_tasks)
        fanout += m["dur"] - sum(tasks) / width

    kernel_s, kernel_steps = busy("kernels.loop"), count("kernels.loop", "steps")
    return {
        "cli.import_s": import_s,
        "config.parse_s": busy("config.parse"),
        "schedules.sample_s": busy("schedules.sample"),
        "schedules.draws": count("schedules.sample", "draws"),
        "kernels.busy_s": kernel_s,
        "kernels.calls": len(named("kernels.loop")),
        "kernels.steps": kernel_steps,
        "kernels.steps_per_s": kernel_steps / kernel_s if kernel_s > 0 else 0.0,
        "engine.runs": len(runs),
        "engine.overhead_us_per_run": 1e6 * overhead / len(runs) if runs else 0.0,
        "engine.arena_s": busy("engine.arena"),
        "engine.tree_s": busy("engine.tree"),
        "engine.tree_nodes": count("engine.tree", "nodes"),
        "engine.csv_s": busy("engine.csv"),
        "engine.csv_bytes": count("engine.csv", "bytes"),
        "stopping.detect_s": busy("stopping.detect"),
        "stopping.blocks_s": busy("stopping.blocks"),
        "stopping.candidates": count("stopping.detect", "candidates"),
        "estimators.busy_s": sum(s["dur"] for s in spans if layer(s["name"]) == "estimators"
                                 and outermost(s, layer)),
        "couplings.grand_s": busy("couplings.grand"),
        "couplings.grand_runs": len(named("couplings.grand")),
        "couplings.grand_nodes": count("couplings.grand", "nodes"),
        "couplings.ball_moves": count("couplings.grand", "ball_moves"),
        "couplings.check_s": busy("couplings.check"),
        "couplings.query_s": busy("couplings.query"),
        "experiments.fanout_s": fanout,
        "experiments.tasks": len(named("experiments.task")),
        "experiments.result_bytes": count("experiments.map", "result_bytes"),
        "experiments.write_s": busy("io.write"),
        "experiments.artifact_bytes": count("io.write", "bytes"),
    }
