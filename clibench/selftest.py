"""Self-test: every workload at a tiny size, then corrupted copies of its
outputs, each of which one named check must reject.

Also runs each tiny workload once traced, to show that the tracing wrappers
leave the outputs byte-identical and yield the per-layer metrics.
Exits 0 when every clean output passes every check and every corruption is
rejected by the check it targets.
"""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import time

import checks
import harness
import layers
import workloads


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _edit_trajectory(out, edit):
    path = os.path.join(out, "trajectory.csv")
    rows = _rows(path)
    edit(rows, len(rows) // 2)  # rows[0] is the header
    _write_rows(path, rows)


def _edit_renewals(out, edit):
    path = os.path.join(out, "renewals.csv")
    rows = _rows(path)
    edit(rows)
    _write_rows(path, rows)


def _edit_events(out, edit):
    path = os.path.join(out, "grand_events.jsonl")
    with open(path) as fh:
        events = [json.loads(line) for line in fh]
    edit(events)
    with open(path, "w") as fh:
        fh.writelines(json.dumps(ev) + "\n" for ev in events)


# ---------------------------------------------------------------------------
# long-walk corruptions


def _stay_put(rows, m):
    rows[m][1] = rows[m - 1][1]


def _flip_depth(rows, m):
    rows[m][2] = str(int(rows[m][2]) + 2)


def _flip_leaf_flag(rows, m):
    rows[m][4] = str(1 - int(rows[m][4]))


def _all_leaves(rows, m):
    for row in rows[2:]:
        row[3] = "1"


def _biased_walk(out, cfg):
    rng = random.Random(7)
    walk = checks.reference_walk(rng, cfg["horizon"], [0, 1], [0.5, 0.5],
                                 parent_weight=3.0)
    _write_rows(os.path.join(out, "trajectory.csv"),
                [checks.TRAJECTORY_HEADER.split(",")]
                + [[n, pos, dep, x, int(f)] for n, (pos, dep, x, f) in enumerate(zip(*walk))])


def _drop_middle_renewal(rows):
    del rows[len(rows) // 2]


LONG_WALK = (
    ("truncated trajectory", "trajectory.shape",
     lambda out, cfg: _edit_trajectory(out, lambda rows, m: rows.pop())),
    ("walker stays put for a step", "replay.moves",
     lambda out, cfg: _edit_trajectory(out, _stay_put)),
    ("one flipped depth", "replay.depth",
     lambda out, cfg: _edit_trajectory(out, _flip_depth)),
    ("one flipped leaf flag", "replay.leaf_flag",
     lambda out, cfg: _edit_trajectory(out, _flip_leaf_flag)),
    ("one dropped renewal row", "renewals.exact",
     lambda out, cfg: _edit_renewals(out, _drop_middle_renewal)),
    ("a leaf on every step", "xi.mean",
     lambda out, cfg: _edit_trajectory(out, _all_leaves)),
    ("walker biased toward the parent", "moves.parent_share", _biased_walk),
    ("final size off by one", "summary.final",
     lambda out, cfg: _edit_json(os.path.join(out, "summary.json"),
                                 lambda s: s.update(final_size=s["final_size"] + 1))),
)


# ---------------------------------------------------------------------------
# replica-swarm corruptions; rows are replica,k,tau,depth,delta_tau,delta_depth,censored


def _groups(rows):
    groups: dict = {}
    for i, row in enumerate(rows[1:], start=1):
        groups.setdefault(row[0], []).append(i)
    return list(groups.values())


def _first_group(rows, size, confirmed=False):
    for group in _groups(rows):
        if len(group) >= size and (not confirmed or all(rows[i][6] == "0" for i in group)):
            return group
    raise RuntimeError(f"no replica with {size} renewal rows in the tiny run")


def _bump_k(rows):
    rows[_first_group(rows, 2)[1]][1] = "3"


def _repeat_tau(rows):
    a, b = _first_group(rows, 2)[:2]
    rows[b][2] = rows[a][2]


def _stretch_delta(rows):
    b = _first_group(rows, 2)[1]
    rows[b][4] = str(int(rows[b][4]) + 2)


def _flip_parity(rows):
    b = _first_group(rows, 2)[-1]
    rows[b][3] = str(int(rows[b][3]) + 1)
    rows[b][5] = str(int(rows[b][5]) + 1)


def _censor_first(rows):
    for group in _groups(rows):
        if len(group) >= 2 and rows[group[0]][6] == "0":
            rows[group[0]][6] = "1"
            return
    raise RuntimeError("no replica with a confirmed first renewal in the tiny run")


def _drop_last_confirmed(rows):
    del rows[_first_group(rows, 3, confirmed=True)[-1]]


REPLICA_SWARM = (
    ("renewal index skips", "rows.index",
     lambda out, cfg: _edit_renewals(out, _bump_k)),
    ("repeated renewal time", "rows.increasing",
     lambda out, cfg: _edit_renewals(out, _repeat_tau)),
    ("stretched delta_tau", "rows.deltas",
     lambda out, cfg: _edit_renewals(out, _stretch_delta)),
    ("one flipped depth", "rows.parity",
     lambda out, cfg: _edit_renewals(out, _flip_parity)),
    ("censored row before a confirmed one", "rows.censoring",
     lambda out, cfg: _edit_renewals(out, _censor_first)),
    ("one dropped renewal row", "summary.counts",
     lambda out, cfg: _edit_renewals(out, _drop_last_confirmed)),
    ("speed shifted by 0.25", "speed.reference",
     lambda out, cfg: _edit_json(
         os.path.join(out, "summary.json"),
         lambda s: s.update(speed_trajectory_mean=s["speed_trajectory_mean"] + 0.25))),
)


# ---------------------------------------------------------------------------
# grand-coupling corruptions


def _drop_split(events):
    events[2]["split"] = None


def _label_below_u(events):
    ev = next(ev for ev in events if ev["new_nodes"])
    ev["new_nodes"][0][1][0][0] = ev["U"] / 2


def _label_short_of_one(events):
    ev = events[len(events) // 2]
    for _, parts in ev["new_nodes"]:
        if parts[-1][1] == 1.0:
            parts[-1][1] = (parts[-1][0] + 1.0) / 2


def _moved_ball(events):
    move = events[len(events) // 2]["ball_moves"][0]
    move[2] = move[1]


def _coalescence(edit):
    return lambda out, cfg: _edit_json(os.path.join(out, "summary.json"),
                                       lambda s: edit(s["coalescence"], cfg))


GRAND_COUPLING = (
    ("event log cut short", "events.steps",
     lambda out, cfg: _edit_events(out, lambda evs: evs.pop())),
    ("a step without a split", "balls.partition",
     lambda out, cfg: _edit_events(out, _drop_split)),
    ("new label reaching below U", "labels.new_nodes",
     lambda out, cfg: _edit_events(out, _label_below_u)),
    ("no new label containing 1", "labels.extremes",
     lambda out, cfg: _edit_events(out, _label_short_of_one)),
    ("one moved ball", "moves.legal",
     lambda out, cfg: _edit_events(out, _moved_ball)),
    ("sufficient event in every replica", "coalescence.freq",
     _coalescence(lambda c, cfg: c.update(sufficient_freq=1.0))),
    ("agreement rarer than the sufficient event", "coalescence.order",
     _coalescence(lambda c, cfg: c.update(
         agree_freq=c["sufficient_freq"] - 1.0 / cfg["replicas"]))),
    ("a failed program self-check", "summary.flags",
     lambda out, cfg: _edit_json(os.path.join(out, "summary.json"),
                                 lambda s: s.update(monotone_all=False))),
)

CORRUPTIONS = {"long-walk": LONG_WALK, "replica-swarm": REPLICA_SWARM,
               "grand-coupling": GRAND_COUPLING}


def self_test_workload(root: str, name: str, base: str) -> bool:
    workload = workloads.WORKLOADS[name]
    cfg = workload.config(workloads.master_seed(name, 0), "tiny")
    run_dir = os.path.join(base, name)
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    deadline = time.monotonic() + harness.RUN_LIMIT_S
    plain = harness.invoke(root, run_dir, 0, cfg["experiment"], cfg_path, False, deadline)
    traced = harness.invoke(root, run_dir, 1, cfg["experiment"], cfg_path, True, deadline)
    if plain["exit"] or traced["exit"]:
        print(f"FAIL {name}: the CLI exited with {plain['exit']}/{traced['exit']}")
        return False
    ok = True
    same = harness.output_digest(plain["out"]) == harness.output_digest(traced["out"])
    spans = layers.load_spans(traced["trace_dir"])
    metrics = layers.layer_metrics(spans, traced["report"]["import_s"])
    print(f"{'PASS' if same else 'FAIL'} {name}: traced outputs identical to untraced; "
          f"{len(spans)} spans, kernel steps {metrics['kernels.steps']}, "
          f"tasks {metrics['experiments.tasks']}, grand runs {metrics['couplings.grand_runs']}")
    ok &= same

    reference = workload.reference(0, cfg, "tiny")
    clean = workload.check(plain["out"], cfg, reference)
    failures = {k: v for k, v in clean.items() if v}
    print(f"{'PASS' if not failures else 'FAIL'} {name}: clean outputs pass "
          f"{len(clean)} checks {failures or ''}")
    ok &= not failures

    targeted = set()
    for label, target, corrupt in CORRUPTIONS[name]:
        copy = os.path.join(run_dir, "corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(plain["out"], copy)
        corrupt(copy, cfg)
        try:
            message = workload.check(copy, cfg, reference)[target]
        except (ValueError, KeyError, IndexError) as exc:
            message = None
            print(f"  (checks raised {type(exc).__name__}: {exc})")
        targeted.add(target)
        print(f"{'PASS' if message else 'FAIL'} {name}: {label} -> {target} "
              f"{'rejects' if message else 'ACCEPTS'}: {message or ''}")
        ok &= bool(message)
    untested = set(clean) - targeted
    if untested:
        print(f"FAIL {name}: no corruption targets {sorted(untested)}")
    return ok and not untested


def main() -> int:
    root = os.getcwd()
    harness.source_tree(root)
    base = os.path.join(root, harness.WORK_DIR, f"selftest-{os.getpid()}")
    ok = True
    try:
        for name in workloads.WORKLOADS:
            ok &= self_test_workload(root, name, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
