"""Coupled constructions of several walks on shared randomness.

Three couplings live here:

* an optimal total-variation coupling of two leaf laws, and paired runs that
  share one tree until the first unequal leaf draw (the split time);
* an interval-labeled "grand" process carrying every Bernoulli parameter in
  [0, 1] at once, from which any single-parameter run can be extracted;
* a monotone pair driving a general leaf law and a Bernoulli floor on one
  shared tree with per-vertex visibility labels, the floor walker advancing
  only when the leading walker moves across commonly visible structure.

The grand process is kept as a cut list.  Its balls always tile [0, 1] and
each step splits one of them at the fresh uniform U, so after n steps the
balls are the gaps between the sorted cuts {0, U_1..U_n, 1}: the ball that
U splits is found by bisection, and the ball holding a parameter p is the
count of uniforms below p.  The swarm step runs in ``_kernels.grand_loop``:
``tbrw_grand`` in ``_kernel.c``, with ``_kernels._grand_python`` as its
reference and the fallback without gcc.  Both return flat arrays only: the
uniforms, the node parents, births and depths, the label parts as flat
(lo, hi) arrays with per-node offsets, and every step's ball nodes.  The
per-step event log is derived from them when it is read, so only a run
whose log is written pays for it.

Interval endpoints are the sampled uniforms themselves and are only ever
compared, never rounded or averaged, so label membership is exact; the
uniforms are redrawn in the (measure-zero) event of a duplicate.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from . import _kernels
from .config import child_seed
from .engine import SimulationError, Trajectory, make_initial, run_arrays
from .schedules import LeafLaw

LABEL_BOTH = 0
LABEL_LEAD_ONLY = 1
LABEL_FLOOR_ONLY = 2


# ---------------------------------------------------------------------------
# total-variation coupling


def tv_distance(law_a: LeafLaw, law_b: LeafLaw) -> float:
    """Half the l1 distance between the two pmfs."""
    support = sorted(set(law_a.support) | set(law_b.support))
    return 0.5 * sum(abs(law_a.pmf(k) - law_b.pmf(k)) for k in support)


def _coupling_parts(law_a: LeafLaw, law_b: LeafLaw):
    support = sorted(set(law_a.support) | set(law_b.support))
    pa = np.array([law_a.pmf(k) for k in support])
    pb = np.array([law_b.pmf(k) for k in support])
    overlap = np.minimum(pa, pb)
    omega = overlap.sum()
    return np.asarray(support), pa, pb, overlap, float(omega)


def sample_coupled_arrays(law_a: LeafLaw, law_b: LeafLaw, n: int,
                          rng: np.random.Generator):
    """n joint draws of a maximal coupling: arrays (xi_a, xi_b, equal).

    Each pair has the exact marginals and P(equal) = 1 - tv_distance(law_a,
    law_b): with probability 1 - d both values come from the normalized
    overlap min(a, b); otherwise each side draws from its normalized
    residual.
    """
    support, pa, pb, overlap, omega = _coupling_parts(law_a, law_b)
    equal = rng.random(n) < omega
    xi_a = np.empty(n, dtype=np.int64)
    xi_b = np.empty(n, dtype=np.int64)
    u = rng.random(n)
    if omega > 0:
        cum = np.cumsum(overlap)
        idx = np.searchsorted(cum, u * cum[-1], side="right")
        shared = support[np.minimum(idx, len(support) - 1)]
        xi_a[equal] = shared[equal]
        xi_b[equal] = shared[equal]
    miss = ~equal
    if miss.any():
        ua, ub = rng.random(n), rng.random(n)
        for arr, probs, uu in ((xi_a, pa - overlap, ua), (xi_b, pb - overlap, ub)):
            tot = probs.sum()
            if tot <= 0:
                continue
            cum = np.cumsum(probs)
            idx = np.searchsorted(cum, uu[miss] * cum[-1], side="right")
            arr[miss] = support[np.minimum(idx, len(support) - 1)]
    return xi_a, xi_b, equal


@dataclass
class CoupledPair:
    traj_a: Trajectory
    traj_b: Trajectory
    split_time: Optional[int]   # first step with unequal leaf draws, None if never
    equal_flags: np.ndarray     # per step 1..horizon

    @property
    def censored(self) -> bool:
        return self.split_time is None


def tv_coupled_run(law_a: LeafLaw, law_b: LeafLaw, horizon: int,
                   seed: int, initial="edge") -> CoupledPair:
    """Run two walks that share every draw until the leaf counts first differ.

    Before the split time the two runs are identical (same tree, same moves);
    from the split on, each continues on its own stream.
    """
    rng = np.random.default_rng(child_seed(seed, 0))
    xi_a_c, xi_b_c, equal = sample_coupled_arrays(law_a, law_b, horizon, rng)
    unequal = np.flatnonzero(~equal)
    zeta = int(unequal[0]) + 1 if unequal.size else None

    xi_a = np.zeros(horizon + 1, dtype=np.int64)
    xi_b = np.zeros(horizon + 1, dtype=np.int64)
    xi_a[1:], xi_b[1:] = xi_a_c, xi_b_c
    shared_u = rng.random(horizon + 1)
    ju_a, ju_b = shared_u.copy(), shared_u.copy()
    if zeta is not None:
        rng_a = np.random.default_rng(child_seed(seed, 1))
        rng_b = np.random.default_rng(child_seed(seed, 2))
        tail = horizon - zeta
        xi_a[zeta + 1:] = law_a.sample(rng_a, tail)
        xi_b[zeta + 1:] = law_b.sample(rng_b, tail)
        ju_a[zeta:] = rng_a.random(tail + 1)
        ju_b[zeta:] = rng_b.random(tail + 1)
    traj_a = run_arrays(initial, xi_a, ju_a, seed=seed,
                        schedule={"kind": "tv-coupled", "side": "a",
                                  **law_a.to_json()})
    traj_b = run_arrays(initial, xi_b, ju_b, seed=seed,
                        schedule={"kind": "tv-coupled", "side": "b",
                                  **law_b.to_json()})
    return CoupledPair(traj_a=traj_a, traj_b=traj_b, split_time=zeta,
                       equal_flags=equal)


# ---------------------------------------------------------------------------
# the grand process


@dataclass
class GrandRun:
    """Full record of one interval-labeled run: enough to replay any
    single-parameter instance and to check every structural invariant.

    After step n the balls are the n + 1 gaps between the sorted cuts
    {0, U_1..U_n, 1}, ball i being [cuts[i], cuts[i + 1]].  ``ball_steps``
    holds the node of every ball after every step, flat: step n's n + 1
    entries start at n(n + 1)/2, in ball order.  Node w's label is the
    sorted disjoint parts ``(label_lo[j], label_hi[j])`` for j in
    ``label_start[w]:label_start[w + 1]``.
    """

    horizon: int
    seed: int
    initial_size: int
    uniforms: np.ndarray            # U_1..U_horizon, in draw order
    node_parent: np.ndarray
    node_birth: np.ndarray
    node_depth: np.ndarray
    label_start: np.ndarray         # n_nodes + 1 offsets into the parts
    label_lo: np.ndarray
    label_hi: np.ndarray
    ball_steps: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.node_parent)

    def label(self, node: int) -> tuple:
        """The (lo, hi) parts of the node's label."""
        a, b = self.label_start[node], self.label_start[node + 1]
        return tuple(zip(self.label_lo[a:b].tolist(), self.label_hi[a:b].tolist()))

    def cuts(self, step: int) -> np.ndarray:
        """The sorted endpoints {0, U_1..U_step, 1} of the step's balls."""
        return np.concatenate(([0.0], np.sort(self.uniforms[:step]), [1.0]))

    def balls(self, step: int) -> np.ndarray:
        """Node of each ball after ``step`` steps, in ball order."""
        start = step * (step + 1) // 2
        return self.ball_steps[start:start + step + 1]

    def nodes_holding(self, p: float, n: int) -> np.ndarray:
        """Node of the ball holding p after each step 0..n.  That ball's
        index is the count of uniforms drawn so far below p."""
        drawn = self.uniforms[:n]
        if np.any(drawn == p):
            raise ValueError(f"two balls hold the split point {p}")
        steps = np.arange(n + 1)
        index = np.concatenate(([0], np.cumsum(drawn < p)))
        return self.ball_steps[steps * (steps + 1) // 2 + index]

    @cached_property
    def _part_owner(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_nodes), np.diff(self.label_start))

    def visible(self, p: float) -> np.ndarray:
        """Mask of the nodes whose label contains p."""
        mask = np.zeros(self.n_nodes, dtype=np.bool_)
        mask[self._part_owner[(self.label_lo <= p) & (p <= self.label_hi)]] = True
        return mask

    @cached_property
    def events(self) -> List[dict]:
        """Per step ``{step, U, split, new_nodes, ball_moves}``, rebuilt from
        the arrays.  A split retires ball k's id and gives its two halves the
        next two ids; a move goes from the ball's node after the previous
        step (ball k's for both halves) to its node after this one."""
        parent, start = self.node_parent.tolist(), self.label_start.tolist()
        lo, hi = self.label_lo.tolist(), self.label_hi.tolist()
        steps = self.ball_steps.tolist()
        # the nodes born at step n are first_born[n - 1]:first_born[n]
        first_born = np.searchsorted(self.node_birth,
                                     np.arange(1, self.horizon + 2)).tolist()
        cuts, ball_id, next_ball = [0.0, 1.0], [0], 1
        events = []
        for n, u in enumerate(self.uniforms.tolist(), start=1):
            k = bisect.bisect(cuts, u) - 1
            cuts.insert(k + 1, u)
            split = [ball_id[k], next_ball, next_ball + 1]
            ball_id[k:k + 1] = split[1:]
            next_ball += 2
            before = steps[(n - 1) * n // 2:n * (n + 1) // 2]
            before.insert(k + 1, before[k])
            after = steps[n * (n + 1) // 2:(n + 1) * (n + 2) // 2]
            events.append({
                "step": n, "U": u, "split": split,
                "new_nodes": [[parent[w], [[lo[j], hi[j]]
                                           for j in range(start[w], start[w + 1])]]
                              for w in range(first_born[n - 1], first_born[n])],
                "ball_moves": [list(m) for m in zip(ball_id, before, after)]})
        return events


def write_events_jsonl(events: Sequence[dict], path) -> None:
    """One ``{step, U, split, new_nodes, ball_moves}`` object per line."""
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def grand_arrays(state, horizon: int, stream: np.ndarray) -> list:
    """Arguments of a grand loop (``_kernels.grand_loop``) that runs the
    swarm from ``state`` on ``stream``: an arena with room for the most
    vertices the run can make, then the zeroed output arrays."""
    n0 = state.tree.node_count
    slots = n0 + horizon * (horizon + 1) // 2
    arena = [np.zeros(slots, dtype=np.int64) for _ in _kernels._NODE_ARRAYS]
    for a, initial in zip(arena, state.tree.arrays()):
        a[:n0] = initial
    arena[2][:n0] = 0  # births: the initial vertices exist at step 0
    return [*arena, n0, state.position, horizon, stream,
            np.zeros(horizon), np.zeros(slots + 1, dtype=np.int64),
            np.zeros(slots), np.zeros(slots),
            np.zeros((horizon + 1) * (horizon + 2) // 2, dtype=np.int64)]


def grand_run(initial="edge", horizon: int = 100, seed: int = 0) -> GrandRun:
    """Drive the swarm of interval-labeled balls for ``horizon`` steps.

    Each step: draw a fresh uniform U; attach to every occupied vertex one
    vertex labeled [U, 1] intersected with the labels of the balls sitting
    there (skipped when that intersection is empty); split the unique ball
    whose label straddles U; then every ball jumps to a uniformly chosen
    neighbor whose label contains the ball's label.  The generator seeded
    with ``seed`` gives one U per step, redrawn while it is 0 or an earlier
    cut, then one jump uniform per ball in ball order; ``grand_loop`` runs
    the steps on that stream.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    state = make_initial(initial)
    # one U and n + 1 jumps at step n, plus room for redrawn Us; a stream
    # that runs short is redrawn longer, with the same values in front
    length = horizon * (horizon + 5) // 2 + 8
    while True:
        stream = np.random.default_rng(seed).random(length)
        args = grand_arrays(state, horizon, stream)
        final = _kernels.grand_loop(*args)
        if final != -3:
            break
        length *= 2
    if final < 0:
        raise SimulationError("a ball has no eligible neighbor")
    parent, depth, birth = (a[:final].copy() for a in args[:3])
    uniforms, label_start, label_lo, label_hi, ball_steps = args[11:]
    parts = label_start[final]
    return GrandRun(horizon=horizon, seed=seed, initial_size=args[7],
                    uniforms=uniforms, node_parent=parent, node_birth=birth,
                    node_depth=depth, label_start=label_start[:final + 1].copy(),
                    label_lo=label_lo[:parts].copy(),
                    label_hi=label_hi[:parts].copy(), ball_steps=ball_steps)


def check_grand_invariants(grand: GrandRun) -> None:
    """Exact structural checks after every step; raises AssertionError.

    At every step the cuts run strictly from 0 to 1, there are step + 1
    balls, and every ball [lo, hi] lies inside one part of its node's label.
    The last check pairs each ball with every part of its node's label.
    """
    horizon, u = grand.horizon, grand.uniforms
    order = np.argsort(u)
    points = np.concatenate(([0.0], u[order], [1.0]))
    assert len(u) == horizon, "one uniform per step"
    # every step's cuts are a subset of the last step's
    assert np.all(points[:-1] < points[1:]), \
        "gap or overlap in ball labels: the cuts must run strictly from 0 to 1"
    assert len(grand.ball_steps) == (horizon + 1) * (horizon + 2) // 2, \
        "one split per step: step n has n + 1 balls"
    nodes = grand.ball_steps
    assert np.all((0 <= nodes) & (nodes < grand.n_nodes)), "a ball on no node"
    start, lo, hi = grand.label_start, grand.label_lo, grand.label_hi
    n_parts = np.diff(start)
    assert len(start) == grand.n_nodes + 1 and start[0] == 0 \
        and np.all(n_parts >= 0) and start[-1] == len(lo) == len(hi), \
        "label offsets must cover the parts"

    # the cuts after step n are the points drawn by then, in sorted order
    drawn_by = np.concatenate(([0], order + 1, [0]))
    block = max(1, (1 << 18) // (horizon + 1))
    for first in range(0, horizon + 1, block):
        steps = np.arange(first, min(first + block, horizon + 1))
        present = drawn_by[None, :] <= steps[:, None]
        shape = (len(steps), horizon + 1)
        ball_lo = np.broadcast_to(points[:-1], shape)[present[:, :-1]]
        ball_hi = np.broadcast_to(points[1:], shape)[present[:, 1:]]
        ball_node = nodes[first * (first + 1) // 2:][:len(ball_lo)]
        # one row per (ball, part of the ball's node)
        tries = n_parts[ball_node]
        ball = np.repeat(np.arange(len(ball_node)), tries)
        part = np.arange(len(ball)) + np.repeat(
            start[ball_node] - (np.cumsum(tries) - tries), tries)
        inside = (lo[part] <= ball_lo[ball]) & (ball_hi[ball] <= hi[part])
        held = np.bincount(ball[inside], minlength=len(ball_node)) > 0
        if not held.all():
            bad = int(np.argmin(held))
            step = int(steps[np.searchsorted(np.cumsum(steps + 1), bad,
                                             side="right")])
            raise AssertionError(f"ball [{ball_lo[bad]},{ball_hi[bad]}] "
                                 f"escaped its vertex label at step {step}")


def extract_instance(grand: GrandRun, p: float) -> Trajectory:
    """Rebuild the single-parameter run: its tree is the vertices whose label
    contains p, its walker the unique ball holding p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    horizon = grand.horizon
    walker = grand.nodes_holding(p, horizon)  # raises at a split point
    visible = grand.visible(p)
    # the walker's degree at step n counts its parent and the visible
    # children born by step n; key (parent, birth) pairs as one integer
    width = horizon + 1
    kids = np.flatnonzero(visible & (grand.node_parent >= 0))
    keys = np.sort(grand.node_parent[kids] * width + grand.node_birth[kids])
    base = walker * width
    degree = (np.searchsorted(keys, base + np.arange(width), side="right")
              - np.searchsorted(keys, base, side="left")
              + (grand.node_parent[walker] >= 0))
    births = grand.node_birth[visible]
    xi = np.zeros(width, dtype=np.int64)
    xi[1:] = np.bincount(births[births >= 1], minlength=width)[1:width]
    return Trajectory(positions=(np.cumsum(visible) - 1)[walker],
                      depths=grand.node_depth[walker], xi=xi,
                      leaf_at_arrival=degree == 1,
                      initial_tree_size=grand.initial_size, seed=grand.seed,
                      schedule={"kind": "extracted-bernoulli", "p": p},
                      extras={"extracted_p": p})


def vertex_count(grand: GrandRun, p: float, n: int) -> int:
    """Tree size of the p-instance after n steps (initial vertices included)."""
    born = (grand.node_birth >= 1) & (grand.node_birth <= n)
    return grand.initial_size + int(np.count_nonzero(grand.visible(p) & born))


def vertex_count_monotone(grand: GrandRun, p_list: Sequence[float], n: int) -> bool:
    counts = [vertex_count(grand, p, n) for p in sorted(p_list)]
    return all(a <= b for a, b in zip(counts, counts[1:]))


def instances_agree_through(grand: GrandRun, p: float, q: float, n: int) -> bool:
    """True when the p- and q-instances coincide (trees and walker) for every
    step up to n."""
    born = grand.node_birth <= n
    if not np.array_equal(grand.visible(p) & born, grand.visible(q) & born):
        return False
    return np.array_equal(grand.nodes_holding(p, n), grand.nodes_holding(q, n))


def no_uniform_between(grand: GrandRun, p: float, q: float, n: int) -> bool:
    """The sufficient coalescence event: no split point fell strictly between
    the two parameters in the first n steps."""
    lo, hi = min(p, q), max(p, q)
    drawn = grand.uniforms[:n]
    return not np.any((lo < drawn) & (drawn < hi))


# ---------------------------------------------------------------------------
# monotone lead/floor pair


@dataclass
class MonotonePairResult:
    traj_lead: Trajectory          # general-law walker, its own full clock
    traj_floor: Trajectory         # Bernoulli floor walker, synced steps then
    # an independent continuation, on its own clock
    sync_times: List[int]          # lead-clock steps where the floor advanced
    n_synced: int
    labels: List[int]              # final per-vertex visibility labels
    label_violations: int          # steps where a walker stood on the other's
    # private vertex; structurally 0
    floor_xi: np.ndarray


def _conditional_positive(law: LeafLaw) -> LeafLaw:
    mass = law.positive_mass
    support = [s for s in law.support if s >= 1]
    probs = [law.pmf(s) / mass for s in support]
    total = sum(probs)
    return LeafLaw(support=tuple(support), probs=tuple(p / total for p in probs))


def _residual_law(law: LeafLaw, floor: float) -> LeafLaw:
    """Law of the lead walker's draw on steps the floor walker adds nothing."""
    plus = law.positive_mass
    coef = (1.0 - floor / plus) / (1.0 - floor)
    support, probs = [], []
    if law.pmf(0) > 0:
        support.append(0)
        probs.append(law.pmf(0) / (1.0 - floor))
    for s in law.support:
        if s >= 1 and coef > 0:
            support.append(s)
            probs.append(law.pmf(s) * coef)
    total = sum(probs)
    return LeafLaw(support=tuple(support), probs=tuple(p / total for p in probs))


def monotone_pair_run(law: LeafLaw, p_floor: float, horizon: int, seed: int,
                      initial="edge") -> MonotonePairResult:
    """Couple a general-law walk with a Bernoulli(p_floor) walk on one tree.

    Per lead step a uniform decides the joint draw: at most p_floor mass maps
    to "both walkers add" (the lead draws from its law conditioned positive,
    one shared leaf visible to both), the rest to a lead-only draw.  The floor
    walker advances exactly when the lead walker moves between two commonly
    visible vertices; leaves created on attempts that wander into lead-only
    territory are demoted to lead-only.  After the lead horizon the floor
    walker finishes its remaining steps on an independent stream, so both
    trajectories have ``horizon`` steps on their own clocks.

    Any vertex of the initial tree reached by the lead walker is reached by
    the floor walker at the corresponding sync, which is the point of the
    construction.
    """
    if p_floor <= 0.0 or p_floor > 1.0:
        raise ValueError("p_floor must lie in (0, 1]")
    if law.positive_mass < p_floor - 1e-12:
        raise ValueError(
            f"law has positive mass {law.positive_mass}, below floor {p_floor}")
    add_law = _conditional_positive(law)
    skip_law = _residual_law(law, p_floor) if p_floor < 1.0 else None

    state = make_initial(initial)
    parent = state.tree.parent.tolist()
    depth = state.tree.depth.tolist()
    children = [[] for _ in parent]  # creation order
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    labels = [LABEL_BOTH] * len(parent)

    rng = np.random.default_rng(child_seed(seed, 10))
    lead_pos = state.position
    floor_pos = state.position

    def visible_degree(v: int, hidden: int) -> int:
        d = sum(1 for c in children[v] if labels[c] != hidden)
        if parent[v] >= 0:
            d += 1
        return d

    n0 = len(parent)
    lead_positions = [lead_pos]
    lead_depths = [depth[lead_pos]]
    lead_flags = [visible_degree(lead_pos, LABEL_FLOOR_ONLY) == 1]
    lead_xi = np.zeros(horizon + 1, dtype=np.int64)
    floor_positions = [floor_pos]
    floor_depths = [depth[floor_pos]]
    floor_flags = [visible_degree(floor_pos, LABEL_LEAD_ONLY) == 1]
    floor_xi_list = [0]
    sync_times: List[int] = []
    violations = 0

    for n in range(1, horizon + 1):
        at = lead_pos
        at_common = labels[at] == LABEL_BOTH
        if rng.random() < p_floor:
            k = int(add_law.sample(rng, 1)[0])
            shared = True
        else:
            k = int(skip_law.sample(rng, 1)[0]) if skip_law is not None else 0
            shared = False
        lead_xi[n] = k
        pending = None
        for j in range(k):
            node = len(parent)
            parent.append(at)
            depth.append(depth[at] + 1)
            children.append([])
            children[at].append(node)
            if j == 0 and shared and at_common:
                labels.append(LABEL_BOTH)
                pending = node
            else:
                labels.append(LABEL_LEAD_ONLY)
        nbrs = ([parent[at]] if parent[at] >= 0 else []) + \
            [c for c in children[at] if labels[c] != LABEL_FLOOR_ONLY]
        r = int(rng.random() * len(nbrs))
        lead_pos = nbrs[min(r, len(nbrs) - 1)]
        if at_common and labels[lead_pos] == LABEL_BOTH:
            # the lead walker moved across common structure: floor step
            sync_times.append(n)
            floor_pos = lead_pos
            floor_positions.append(floor_pos)
            floor_depths.append(depth[floor_pos])
            floor_flags.append(visible_degree(floor_pos, LABEL_LEAD_ONLY) == 1)
            floor_xi_list.append(1 if (shared and at_common) else 0)
        elif pending is not None:
            labels[pending] = LABEL_LEAD_ONLY  # failed attempt: demote
        if labels[lead_pos] == LABEL_FLOOR_ONLY:
            violations += 1
        lead_positions.append(lead_pos)
        lead_depths.append(depth[lead_pos])
        lead_flags.append(visible_degree(lead_pos, LABEL_FLOOR_ONLY) == 1)

    n_synced = len(sync_times)
    cont_rng = np.random.default_rng(child_seed(seed, 11))
    for _ in range(horizon - n_synced):
        if cont_rng.random() < p_floor:
            node = len(parent)
            parent.append(floor_pos)
            depth.append(depth[floor_pos] + 1)
            children.append([])
            children[floor_pos].append(node)
            labels.append(LABEL_FLOOR_ONLY)
            floor_xi_list.append(1)
        else:
            floor_xi_list.append(0)
        nbrs = ([parent[floor_pos]] if parent[floor_pos] >= 0 else []) + \
            [c for c in children[floor_pos] if labels[c] != LABEL_LEAD_ONLY]
        r = int(cont_rng.random() * len(nbrs))
        floor_pos = nbrs[min(r, len(nbrs) - 1)]
        if labels[floor_pos] == LABEL_LEAD_ONLY:
            violations += 1
        floor_positions.append(floor_pos)
        floor_depths.append(depth[floor_pos])
        floor_flags.append(visible_degree(floor_pos, LABEL_LEAD_ONLY) == 1)

    traj_lead = Trajectory(
        positions=np.asarray(lead_positions), depths=np.asarray(lead_depths),
        xi=lead_xi, leaf_at_arrival=np.asarray(lead_flags, dtype=np.bool_),
        initial_tree_size=n0, seed=seed,
        schedule={"kind": "monotone-pair", "side": "lead", **law.to_json()})
    traj_floor = Trajectory(
        positions=np.asarray(floor_positions), depths=np.asarray(floor_depths),
        xi=np.asarray(floor_xi_list, dtype=np.int64),
        leaf_at_arrival=np.asarray(floor_flags, dtype=np.bool_),
        initial_tree_size=n0, seed=seed,
        schedule={"kind": "monotone-pair", "side": "floor", "p": p_floor},
        extras={"n_synced": n_synced})
    return MonotonePairResult(traj_lead=traj_lead, traj_floor=traj_floor,
                              sync_times=sync_times, n_synced=n_synced,
                              labels=labels, label_violations=violations,
                              floor_xi=np.asarray(floor_xi_list, dtype=np.int64))
