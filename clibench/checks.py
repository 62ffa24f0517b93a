"""Output checks for the benchmark workloads, written apart from tbrw.

Each ``check_*`` function reads one CLI output directory and returns a dict
mapping every check name of its workload to ``None`` (passed) or a message
(failed).  The checks hold for any correct simulation method: they replay
the outputs against the model's rules or compare them with an independent
reference within a stated tolerance, never with stored bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

import numpy as np

LONG_WALK_CHECKS = ("trajectory.shape", "replay.moves", "replay.depth",
                    "replay.leaf_flag", "renewals.exact", "xi.mean",
                    "moves.parent_share", "summary.final")
REPLICA_SWARM_CHECKS = ("rows.index", "rows.increasing", "rows.deltas",
                        "rows.parity", "rows.censoring", "summary.counts",
                        "speed.reference")
GRAND_COUPLING_CHECKS = ("events.steps", "balls.partition", "labels.new_nodes",
                         "labels.extremes", "moves.legal", "coalescence.freq",
                         "coalescence.order", "summary.flags")

TRAJECTORY_HEADER = "step,position,depth,xi,leaf_at_arrival"


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _verdict(names):
    return {name: None for name in names}


def _fail(verdict, name, message):
    if verdict[name] is None:
        verdict[name] = message


# ---------------------------------------------------------------------------
# reference walker


def reference_walk(rng: random.Random, horizon: int, support, probs,
                   parent_weight: float = 1.0):
    """Naive tree-builder walk from the rooted edge with the walker on the tip.

    The tree is a dict of neighbour lists, parent first.  Nodes are numbered
    in birth order, as in tbrw's trajectory files.  ``parent_weight`` other
    than 1 biases the jump toward the parent; only the self-test uses it.
    Returns lists (positions, depths, xi, leaf_flags) for steps 0..horizon.
    """
    neighbours = {0: [1], 1: [0]}
    depth = {0: 0, 1: 1}
    pos = 1
    positions, depths, xi, flags = [pos], [1], [0], [True]
    for _ in range(horizon):
        k = rng.choices(support, probs)[0]
        for _ in range(k):
            node = len(depth)
            neighbours[node] = [pos]
            neighbours[pos].append(node)
            depth[node] = depth[pos] + 1
        nbrs = neighbours[pos]
        if parent_weight != 1.0 and pos != 0:
            pos = rng.choices(nbrs, [parent_weight] + [1.0] * (len(nbrs) - 1))[0]
        else:
            pos = rng.choice(nbrs)
        positions.append(pos)
        depths.append(depth[pos])
        xi.append(k)
        flags.append(len(neighbours[pos]) == 1)
    return positions, depths, xi, flags


def reference_speed(seed: int, replicas: int, horizon: int, support, probs):
    """Mean and standard error of D_N / N over independent reference walks."""
    rng = random.Random(f"clibench-reference:{seed}")
    speeds = [reference_walk(rng, horizon, support, probs)[1][-1] / horizon
              for _ in range(replicas)]
    mean = sum(speeds) / replicas
    var = sum((s - mean) ** 2 for s in speeds) / (replicas - 1)
    return mean, math.sqrt(var / replicas)


# ---------------------------------------------------------------------------
# long-walk: `tbrw simulate` from the rooted edge


def _regeneration_steps(depths, flags):
    """Steps n >= 1 where the walker arrives on a degree-1 vertex at a strict
    record depth and never returns strictly closer to the root afterwards."""
    n_max = len(depths) - 1
    record = [False] * (n_max + 1)
    best = depths[0]
    for n in range(1, n_max + 1):
        if depths[n] > best:
            record[n] = bool(flags[n])
            best = depths[n]
    taus = []
    lowest_after = math.inf
    for n in range(n_max, 0, -1):
        if record[n] and lowest_after >= depths[n]:
            taus.append(n)
        lowest_after = min(lowest_after, depths[n])
    taus.reverse()
    return taus


def _read_renewals(path, with_replica: bool):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head = ["k", "tau", "depth_at_tau", "delta_tau", "delta_depth", "censored"]
    if with_replica:
        head = ["replica"] + head
    if not rows or rows[0] != head:
        raise ValueError(f"{os.path.basename(path)}: header is not {','.join(head)}")
    return [[int(x) if x != "" else None for x in row] for row in rows[1:]]


def _check_renewal_rows(rows, taus, depths, horizon, guard):
    """``rows`` (k, tau, depth, delta_tau, delta_depth, censored) must list
    exactly ``taus``; returns a failure message or None."""
    if [r[1] for r in rows] != taus:
        missing = sorted(set(taus) - {r[1] for r in rows})[:3]
        extra = sorted({r[1] for r in rows} - set(taus))[:3]
        return (f"renewals.csv lists {len(rows)} steps, the replay finds "
                f"{len(taus)} (missing {missing}, extra {extra})")
    prev = None
    for k, (kk, tau, dep, dt, dd, cens) in enumerate(rows, start=1):
        want = (k, depths[tau],
                None if prev is None else tau - prev[0],
                None if prev is None else depths[tau] - prev[1],
                int(horizon - tau < guard))
        if (kk, dep, dt, dd, cens) != want:
            return f"row {k} (tau {tau}) reads {(kk, dep, dt, dd, cens)}, expected {want}"
        prev = (tau, dep)
    return None


def check_long_walk(out: str, cfg: dict, reference=None) -> dict:
    verdict = _verdict(LONG_WALK_CHECKS)
    horizon, guard = cfg["horizon"], cfg["guard"]
    p = cfg["schedule"]["p"]
    path = os.path.join(out, "trajectory.csv")
    with open(path) as fh:
        header = fh.readline().strip()
    table = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
    if (header != TRAJECTORY_HEADER or table.shape != (horizon + 1, 5)
            or not np.array_equal(table[:, 0], np.arange(horizon + 1))
            or tuple(table[0, 1:]) != (1, 1, 0, 1)):
        _fail(verdict, "trajectory.shape",
              f"expected {horizon + 1} rows of {TRAJECTORY_HEADER} starting "
              f"0,1,1,0,1; got shape {table.shape}, header {header!r}")
        return verdict
    positions, depths, xi, flags = (table[:, c].tolist() for c in range(1, 5))

    # replay: rebuild the tree from xi and the positions; an illegal move
    # ends the replay, and the checks below still run on what the files say
    parent, depth, degree = [-1, 0], [0, 1], [1, 1]
    left = {2: [0, 0], 3: [0, 0]}  # degree -> [steps leaving, moves to parent]
    pos = positions[0]
    for n in range(1, horizon + 1):
        k = xi[n]
        if k < 0:
            _fail(verdict, "replay.moves", f"step {n}: negative xi {k}")
            break
        if k:
            parent.extend([pos] * k)
            depth.extend([depth[pos] + 1] * k)
            degree.extend([1] * k)
            degree[pos] += k
        nxt = positions[n]
        if not (0 <= nxt < len(parent) and (parent[pos] == nxt or parent[nxt] == pos)):
            _fail(verdict, "replay.moves",
                  f"step {n}: {pos} -> {nxt} is not an edge of the tree")
            break
        d = degree[pos]
        if d in left and parent[pos] >= 0:
            left[d][0] += 1
            left[d][1] += nxt == parent[pos]
        if depths[n] != depth[nxt]:
            _fail(verdict, "replay.depth",
                  f"step {n}: depth {depths[n]}, tree depth {depth[nxt]}")
        if flags[n] != (degree[nxt] == 1):
            _fail(verdict, "replay.leaf_flag",
                  f"step {n}: leaf_at_arrival {flags[n]}, degree {degree[nxt]}")
        pos = nxt

    taus = _regeneration_steps(depths, flags)
    rows = _read_renewals(os.path.join(out, "renewals.csv"), with_replica=False)
    message = _check_renewal_rows(rows, taus, depths, horizon, guard)
    if message:
        _fail(verdict, "renewals.exact", message)

    total, sd = sum(xi), math.sqrt(horizon * p * (1 - p))
    if abs(total - horizon * p) > 5 * sd:
        _fail(verdict, "xi.mean", f"sum of xi {total}, expected {horizon * p} +- 5*{sd:.1f}")

    for d, (steps, up) in left.items():
        share, se = up / max(steps, 1), math.sqrt((1 / d) * (1 - 1 / d) / max(steps, 1))
        if steps < 100 or abs(share - 1 / d) > 5 * se:
            _fail(verdict, "moves.parent_share",
                  f"degree {d}: {up}/{steps} moves to the parent, expected 1/{d} +- 5*{se:.4f}")

    summary = _read_json(os.path.join(out, "summary.json"))
    want = {"final_size": len(parent), "final_depth": depths[-1],
            "n_renewals_confirmed": sum(1 for t in taus if horizon - t >= guard)}
    got = {key: summary.get(key) for key in want}
    if got != want:
        _fail(verdict, "summary.final", f"summary.json has {got}, replay gives {want}")
    return verdict


# ---------------------------------------------------------------------------
# replica-swarm: `tbrw renewal-stats` pooled over many short replicas


def check_replica_swarm(out: str, cfg: dict, reference) -> dict:
    """``reference`` is ``(mean, se)`` of D_N / N from ``reference_speed``."""
    verdict = _verdict(REPLICA_SWARM_CHECKS)
    horizon, guard, replicas = cfg["horizon"], cfg["guard"], cfg["replicas"]
    rows = _read_renewals(os.path.join(out, "renewals.csv"), with_replica=True)
    by_replica: dict = {}
    last = -1
    for row in rows:
        r = row[0]
        if not (last <= r < replicas):
            _fail(verdict, "rows.index", f"replica {r} out of order or out of range")
            return verdict
        last = r
        by_replica.setdefault(r, []).append(row[1:])

    confirmed_blocks = 0
    for r, group in by_replica.items():
        prev = None
        seen_censored = False
        for k, (kk, tau, dep, dt, dd, cens) in enumerate(group, start=1):
            where = f"replica {r} row {k}"
            if kk != k:
                _fail(verdict, "rows.index", f"{where}: k = {kk}")
            if not 1 <= tau <= horizon or (prev and (tau <= prev[0] or dep <= prev[1])):
                _fail(verdict, "rows.increasing",
                      f"{where}: (tau, depth) = {(tau, dep)} after {prev}")
            if prev is None:
                if (dt, dd) != (None, None):
                    _fail(verdict, "rows.deltas", f"{where}: first row has deltas")
            elif (dt, dd) != (tau - prev[0], dep - prev[1]) or \
                    (dd - dt) % 2 or abs(dd) > dt:
                _fail(verdict, "rows.deltas",
                      f"{where}: deltas {(dt, dd)} after {prev} -> {(tau, dep)}")
            if (dep - tau - 1) % 2:
                _fail(verdict, "rows.parity", f"{where}: depth {dep} at tau {tau}")
            if cens not in (0, 1) or (seen_censored and not cens) or \
                    cens != int(horizon - tau < guard):
                _fail(verdict, "rows.censoring",
                      f"{where}: censored={cens} at tau {tau} (guard {guard})")
            seen_censored = seen_censored or cens == 1
            prev = (tau, dep)
        n_confirmed = sum(1 for row in group if row[5] == 0)
        if n_confirmed >= 3:
            confirmed_blocks += n_confirmed - 2  # spacings, first one dropped

    summary = _read_json(os.path.join(out, "summary.json"))
    want = {"replicas": replicas, "horizon": horizon, "n_blocks": confirmed_blocks,
            "no_renewal_replicas": replicas - len(by_replica)}
    got = {key: summary.get(key) for key in want}
    if got != want:
        _fail(verdict, "summary.counts", f"summary.json has {got}, renewals.csv gives {want}")

    ref_mean, ref_se = reference
    mean, se = summary["speed_trajectory_mean"], summary["speed_trajectory_se"]
    tol = 5 * math.hypot(se, ref_se)
    if not abs(mean - ref_mean) <= tol:
        _fail(verdict, "speed.reference",
              f"speed_trajectory_mean {mean:.5f}, reference {ref_mean:.5f} +- {tol:.5f}")
    return verdict


# ---------------------------------------------------------------------------
# grand-coupling: `tbrw coupling-grand` event log and coalescence summary


def _inside(lo, hi, pieces) -> bool:
    return any(a <= lo and hi <= b for a, b in pieces)


def _merged(intervals):
    pieces = []
    for a, b in sorted(intervals):
        if pieces and a <= pieces[-1][1]:
            pieces[-1][1] = max(pieces[-1][1], b)
        else:
            pieces.append([a, b])
    return pieces


def _replay_grand(events, horizon, verdict) -> None:
    """Track the balls and node labels through the event log; stops at the
    first violation, since later state would rest on it."""
    parent = [-1, 0]
    label = [[(0.0, 1.0)], [(0.0, 1.0)]]
    balls = {0: [0.0, 1.0, 1]}  # ball id -> [lo, hi, node]
    for n, ev in enumerate(events, start=1):
        u = ev["U"]
        if not 0.0 < u < 1.0:
            _fail(verdict, "balls.partition", f"step {n}: U = {u} outside (0, 1)")
            return
        at_node: dict = {}
        for lo, hi, node in balls.values():
            at_node.setdefault(node, []).append((lo, hi))
        holding_one = 0  # no new label contains 0, since each lies inside [U, 1]
        for v, parts in ev["new_nodes"]:
            parts = [tuple(p) for p in parts]
            pieces = _merged(at_node.get(v, []))
            if not parts or any(not (u <= a <= b <= 1.0) or not _inside(a, b, pieces)
                                for a, b in parts):
                _fail(verdict, "labels.new_nodes",
                      f"step {n}: label {parts} at node {v} is not inside [U, 1] = "
                      f"[{u}, 1] and the ball labels {pieces} there")
                return
            holding_one += any(b == 1.0 for _, b in parts)
            parent.append(v)
            label.append(parts)
        if holding_one != 1:
            _fail(verdict, "labels.extremes",
                  f"step {n}: {holding_one} new labels contain 1, expected one")
            return

        split = ev["split"]
        if split is None or split[0] not in balls or not balls[split[0]][0] < u < balls[split[0]][1] \
                or split[1] in balls or split[2] in balls or split[1] == split[2]:
            _fail(verdict, "balls.partition", f"step {n}: split {split} of U = {u} is invalid")
            return
        lo, hi, node = balls.pop(split[0])
        balls[split[1]] = [lo, u, node]
        balls[split[2]] = [u, hi, node]
        ends = sorted((lo, hi) for lo, hi, _ in balls.values())
        if len(ends) != n + 1 or ends[0][0] != 0.0 or ends[-1][1] != 1.0 or \
                any(b1 != a2 for (_, b1), (a2, _) in zip(ends, ends[1:])):
            _fail(verdict, "balls.partition",
                  f"step {n}: {len(ends)} ball labels do not partition [0, 1] into n + 1 parts")
            return

        moved = set()
        for ball, src, dst in ev["ball_moves"]:
            if ball not in balls or ball in moved or balls[ball][2] != src:
                _fail(verdict, "moves.legal", f"step {n}: ball {ball} does not sit at {src}")
                return
            lo, hi, _ = balls[ball]
            if not (0 <= dst < len(parent) and (parent[src] == dst or parent[dst] == src)
                    and _inside(lo, hi, label[dst])):
                _fail(verdict, "moves.legal",
                      f"step {n}: ball {ball} [{lo}, {hi}] moves {src} -> {dst}, which is not "
                      "a neighbour whose label contains it")
                return
            balls[ball][2] = dst
            moved.add(ball)
        if len(moved) != len(balls):
            _fail(verdict, "moves.legal", f"step {n}: {len(balls) - len(moved)} balls did not move")
            return


def check_grand_coupling(out: str, cfg: dict, reference=None) -> dict:
    verdict = _verdict(GRAND_COUPLING_CHECKS)
    horizon, replicas = cfg["horizon"], cfg["replicas"]
    with open(os.path.join(out, "grand_events.jsonl")) as fh:
        events = [json.loads(line) for line in fh]
    if [ev["step"] for ev in events] != list(range(1, horizon + 1)):
        _fail(verdict, "events.steps", f"expected steps 1..{horizon}, got {len(events)} events")
    else:
        _replay_grand(events, horizon, verdict)

    summary = _read_json(os.path.join(out, "summary.json"))
    coal = cfg["params"]["coalescence"]
    target = (1.0 - abs(coal["q"] - coal["p"])) ** coal["n"]
    se = math.sqrt(target * (1 - target) / replicas)
    got = summary.get("coalescence", {})
    suff, agree = got.get("sufficient_freq"), got.get("agree_freq")
    if suff is None or abs(suff - target) > 4 * se:
        _fail(verdict, "coalescence.freq",
              f"sufficient_freq {suff}, exact {target:.4f} +- 4*{se:.4f}")
    if suff is None or agree is None or agree < suff:
        _fail(verdict, "coalescence.order", f"agree_freq {agree} < sufficient_freq {suff}")
    flags = {key: summary.get(key) for key in
             ("invariants_ok_all", "monotone_all", "count_at_one_ok_all",
              "count_at_zero_ok_all")}
    if not all(v is True for v in flags.values()) or \
            (summary.get("replicas"), summary.get("horizon")) != (replicas, horizon):
        _fail(verdict, "summary.flags", f"summary.json flags {flags}")
    return verdict
