"""Core dynamics of the tree-builder walk.

One step from state ``(tree, position)``: attach ``xi`` fresh leaves to the
walker's current vertex, then jump to a neighbor chosen uniformly among all
neighbors in the updated tree.  ``run`` records the whole trajectory and is
a deterministic function of (initial state, schedule, horizon, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels

ENGINE_VERSION = "0.1.0"

# final trees larger than this are dropped from trajectories unless asked for
SNAPSHOT_NODE_LIMIT = 1_000_000

# rows formatted per write by trajectory_to_csv
CSV_BLOCK_ROWS = 65_536


class SimulationError(ValueError):
    pass


@dataclass
class RootedTree:
    """Arena-indexed rooted tree: node ids are dense ints in birth order."""

    parent: list  # parent id, -1 for the root
    depth: list   # graph distance to the root, cached at creation
    birth_step: list
    children: list  # list of child-id lists, creation order

    @classmethod
    def edge(cls) -> "RootedTree":
        return cls(parent=[-1, 0], depth=[0, 1], birth_step=[0, 0],
                   children=[[1], []])

    @classmethod
    def single_vertex(cls) -> "RootedTree":
        return cls(parent=[-1], depth=[0], birth_step=[0], children=[[]])

    @classmethod
    def from_parents(cls, parents: Sequence[Optional[int]],
                     birth_steps: Optional[Sequence[int]] = None) -> "RootedTree":
        n = len(parents)
        if n == 0:
            raise SimulationError("tree must have at least one node")
        norm = [-1 if p is None else int(p) for p in parents]
        roots = [i for i, p in enumerate(norm) if p < 0]
        if len(roots) != 1:
            raise SimulationError(f"expected exactly one root, found {len(roots)}")
        children = [[] for _ in range(n)]
        for i, p in enumerate(norm):
            if p >= 0:
                if not 0 <= p < n:
                    raise SimulationError(f"node {i} has out-of-range parent {p}")
                children[p].append(i)
        depth = [-1] * n
        stack = [roots[0]]
        depth[roots[0]] = 0
        order = 0
        while stack:
            v = stack.pop()
            order += 1
            for c in children[v]:
                depth[c] = depth[v] + 1
                stack.append(c)
        if order != n:
            raise SimulationError("parent links contain a cycle or unreachable node")
        births = list(birth_steps) if birth_steps is not None else [0] * n
        return cls(parent=norm, depth=depth, birth_step=births, children=children)

    @classmethod
    def from_arrays(cls, parent: np.ndarray, birth: np.ndarray) -> "RootedTree":
        # kernel output: nodes in birth order, so parents precede children
        n = len(parent)
        children = [[] for _ in range(n)]
        depth = [0] * n
        par = [int(p) for p in parent]
        for i, p in enumerate(par):
            if p >= 0:
                children[p].append(i)
                depth[i] = depth[p] + 1
        return cls(parent=par, depth=depth, birth_step=[int(b) for b in birth],
                   children=children)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (1 if self.parent[v] >= 0 else 0)

    def degrees(self) -> np.ndarray:
        par = np.asarray(self.parent)
        return np.fromiter((len(c) for c in self.children), count=len(par),
                           dtype=np.int64) + (par >= 0)

    def add_leaf(self, at: int, birth_step: int) -> int:
        node = len(self.parent)
        self.parent.append(at)
        self.depth.append(self.depth[at] + 1)
        self.birth_step.append(birth_step)
        self.children.append([])
        self.children[at].append(node)
        return node

    def copy(self) -> "RootedTree":
        return RootedTree(parent=list(self.parent), depth=list(self.depth),
                          birth_step=list(self.birth_step),
                          children=[list(c) for c in self.children])

    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        assert len(roots) == 1, "exactly one root required"
        assert self.depth[roots[0]] == 0
        for i, p in enumerate(self.parent):
            if p >= 0:
                assert self.depth[i] == self.depth[p] + 1, f"depth cache broken at {i}"
                assert i in self.children[p], f"parent/child links inconsistent at {i}"
        for v, kids in enumerate(self.children):
            for c in kids:
                assert self.parent[c] == v


@dataclass
class SimState:
    tree: RootedTree
    position: int
    step: int = 0

    def copy(self) -> "SimState":
        return SimState(tree=self.tree.copy(), position=self.position, step=self.step)


@dataclass
class Trajectory:
    """Per-step record of a finished run; immutable by convention."""

    positions: np.ndarray      # node id of the walker, step 0..N
    depths: np.ndarray         # distance to the root
    xi: np.ndarray             # leaves added at each step, xi[0] == 0
    leaf_at_arrival: np.ndarray  # True iff the walker's vertex has degree 1
    initial_tree_size: int
    seed: Optional[int] = None
    schedule: Optional[dict] = None
    initial: Optional[dict] = None
    final_tree: Optional[RootedTree] = None
    extras: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return len(self.positions) - 1

    @property
    def final_size(self) -> int:
        return self.initial_tree_size + int(self.xi.sum())

    def validate(self) -> None:
        d = self.depths
        assert (d >= 0).all()
        assert (np.abs(np.diff(d)) == 1).all(), "walker must move one edge per step"
        assert self.xi[0] == 0
        if self.final_tree is not None:
            assert self.final_tree.node_count == self.final_size
            self.final_tree.validate()

    def manifest(self) -> dict:
        m = {
            "seed": self.seed,
            "schedule": self.schedule,
            "horizon": self.horizon,
            "initial": self.initial,
            "engine_version": ENGINE_VERSION,
        }
        if self.extras:
            m["extras"] = self.extras
        return m


def make_initial(spec) -> SimState:
    """Build a starting state.

    Accepts ``"edge"`` (rooted edge with the walker on the non-root tip),
    ``"vertex"`` (single root, walker on it), or an explicit
    ``{"parents": [...], "walker": i}`` mapping / ``(parents, walker)`` pair.
    """
    if isinstance(spec, SimState):
        return spec
    if spec == "edge" or spec == {"kind": "edge"} or spec is None:
        return SimState(tree=RootedTree.edge(), position=1)
    if spec == "vertex" or spec == {"kind": "vertex"}:
        return SimState(tree=RootedTree.single_vertex(), position=0)
    if isinstance(spec, dict):
        parents, walker = spec["parents"], spec["walker"]
    else:
        parents, walker = spec
    tree = RootedTree.from_parents(parents)
    walker = int(walker)
    if not 0 <= walker < tree.node_count:
        raise SimulationError(f"walker vertex {walker} not in tree")
    return SimState(tree=tree, position=walker)


def initial_descriptor(spec) -> dict:
    if spec == "edge" or spec is None or spec == {"kind": "edge"}:
        return {"kind": "edge"}
    if spec == "vertex" or spec == {"kind": "vertex"}:
        return {"kind": "vertex"}
    if isinstance(spec, SimState):
        return {"kind": "explicit", "parents": list(spec.tree.parent),
                "walker": spec.position}
    if isinstance(spec, dict):
        return {"kind": "explicit", "parents": list(spec["parents"]),
                "walker": int(spec["walker"])}
    parents, walker = spec
    return {"kind": "explicit", "parents": list(parents), "walker": int(walker)}


def step(state: SimState, xi: int, rng: np.random.Generator) -> SimState:
    """One transition: attach ``xi`` leaves at the walker, then jump."""
    if xi < 0:
        raise SimulationError("leaf count must be nonnegative")
    new = state.copy()
    n = new.step + 1
    pos = new.position
    for _ in range(int(xi)):
        new.tree.add_leaf(pos, birth_step=n)
    neighbors = ([new.tree.parent[pos]] if new.tree.parent[pos] >= 0 else []) \
        + new.tree.children[pos]
    if not neighbors:
        raise SimulationError("walker is isolated and cannot jump")
    r = int(rng.random() * len(neighbors))
    new.position = neighbors[min(r, len(neighbors) - 1)]
    new.step = n
    return new


def _state_to_arrays(state: SimState, total: int):
    n0 = state.tree.node_count
    parent = np.full(total, -1, dtype=np.int64)
    depth = np.zeros(total, dtype=np.int64)
    birth = np.zeros(total, dtype=np.int64)
    first_child = np.full(total, -1, dtype=np.int64)
    next_sibling = np.full(total, -1, dtype=np.int64)
    last_child = np.full(total, -1, dtype=np.int64)
    n_children = np.zeros(total, dtype=np.int64)
    parent[:n0] = state.tree.parent
    depth[:n0] = state.tree.depth
    birth[:n0] = state.tree.birth_step
    for v, kids in enumerate(state.tree.children):
        n_children[v] = len(kids)
        if kids:
            first_child[v] = kids[0]
            last_child[v] = kids[-1]
            for a, b in zip(kids, kids[1:]):
                next_sibling[a] = b
    return parent, depth, birth, first_child, next_sibling, last_child, n_children


def run_arrays(initial, xi: np.ndarray, jump_u: np.ndarray,
               keep_tree: Optional[bool] = None, seed: Optional[int] = None,
               schedule: Optional[dict] = None, initial_desc: Optional[dict] = None,
               extras: Optional[dict] = None) -> Trajectory:
    """Drive the kernel with explicit leaf counts and jump uniforms.

    ``xi[0]`` must be 0; ``jump_u`` must have the same length as ``xi`` with
    values in [0, 1).  This is the replay primitive underneath ``run`` and the
    coupled runners.
    """
    state = make_initial(initial)
    xi = np.ascontiguousarray(xi, dtype=np.int64)
    jump_u = np.ascontiguousarray(jump_u, dtype=np.float64)
    if xi.shape != jump_u.shape:
        raise SimulationError("xi and jump_u must have equal length")
    if xi[0] != 0:
        raise SimulationError("xi[0] must be 0 by convention")
    horizon = len(xi) - 1
    if horizon < 1:
        raise SimulationError("horizon must be >= 1")
    total = state.tree.node_count + int(xi.sum())
    arrays = _state_to_arrays(state, total)
    positions = np.zeros(horizon + 1, dtype=np.int64)
    depths = np.zeros(horizon + 1, dtype=np.int64)
    leaf_flags = np.zeros(horizon + 1, dtype=np.bool_)
    final = _kernels.simulate_loop(*arrays, state.tree.node_count, state.position,
                                   xi, jump_u, positions, depths, leaf_flags)
    if final < 0:
        raise SimulationError("walker is isolated and cannot jump")
    if keep_tree is None:
        keep_tree = total <= SNAPSHOT_NODE_LIMIT
    tree = RootedTree.from_arrays(arrays[0], arrays[2]) if keep_tree else None
    return Trajectory(positions=positions, depths=depths, xi=xi,
                      leaf_at_arrival=leaf_flags,
                      initial_tree_size=state.tree.node_count,
                      final_tree=tree, seed=seed, schedule=schedule,
                      initial=initial_desc, extras=extras or {})


def run(initial, schedule, horizon: int, seed: int,
        keep_tree: Optional[bool] = None) -> Trajectory:
    """Simulate ``horizon`` steps; bit-identical replays for equal arguments.

    The seed feeds a single generator that first samples the leaf-count
    array from the schedule, then the jump uniforms.
    """
    if horizon < 1:
        raise SimulationError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    xi, extras = schedule.sample_array(horizon, rng)
    jump_u = rng.random(horizon + 1)
    return run_arrays(initial, xi, jump_u, keep_tree=keep_tree,
                      seed=seed, schedule=schedule.descriptor(),
                      initial_desc=initial_descriptor(initial), extras=extras)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write ``step,position,depth,xi,leaf_at_arrival`` rows plus a JSON sidecar.

    The rows are CRLF-terminated, as ``csv.writer`` writes them, and are
    formatted one block at a time so no whole column becomes Python ints.
    """
    path = str(path)
    columns = (traj.positions, traj.depths, traj.xi, traj.leaf_at_arrival)
    with open(path, "w", newline="") as fh:
        fh.write("step,position,depth,xi,leaf_at_arrival\r\n")
        for lo in range(0, traj.horizon + 1, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, traj.horizon + 1)
            block = np.column_stack([np.arange(lo, hi)]
                                    + [c[lo:hi] for c in columns])
            fh.write("%d,%d,%d,%d,%d\r\n" * (hi - lo)
                     % tuple(block.ravel().tolist()))
    sidecar = path[:-4] + ".json" if path.endswith(".csv") else path + ".json"
    with open(sidecar, "w") as fh:
        json.dump(traj.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")
