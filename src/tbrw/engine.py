"""Core dynamics of the tree-builder walk.

One step from state ``(tree, position)``: attach ``xi`` fresh leaves to the
walker's current vertex, then jump to a neighbor chosen uniformly among all
neighbors in the updated tree.  ``run`` records the whole trajectory and is
a deterministic function of (initial state, schedule, horizon, seed).

A tree is the step kernel's arena (``_kernels._NODE_ARRAYS``): seven int64
arrays indexed by node id, children linked in creation order through
``first_child``/``next_sibling``.  ``run_arrays`` copies the initial tree
into an arena sized for the whole run, the kernel grows it in place, and a
kept final tree is that arena itself.

``run_batch`` runs many seeds from one initial state in one kernel call.
Its ``TrajectoryBatch`` holds one row per seed: (rows, horizon + 1) arrays
of positions, depths, leaf counts and leaf flags, row r equal to the arrays
of ``run`` with ``seeds[r]``, and each row's final node count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels

ENGINE_VERSION = "0.1.1"

# rows formatted per write by trajectory_to_csv
CSV_BLOCK_ROWS = 65_536

# what an arena slot holds before the kernel attaches a node there, one
# column of the node arrays
_ARENA_FILL = np.array(_kernels._NODE_FILL, dtype=np.int64)[:, None]

ISOLATED = "walker is isolated and cannot jump"


class SimulationError(ValueError):
    pass


@dataclass
class RootedTree:
    """Rooted tree in the kernel's arena layout: node ids are dense ints in
    birth order, and each field holds one int64 entry per node.  A node's
    children are the ``next_sibling`` chain from ``first_child`` to
    ``last_child``, in creation order; -1 marks a missing link."""

    parent: np.ndarray  # -1 for the root
    depth: np.ndarray   # graph distance to the root
    birth: np.ndarray   # step that attached the node, 0 for initial nodes
    first_child: np.ndarray
    next_sibling: np.ndarray
    last_child: np.ndarray
    n_children: np.ndarray

    @classmethod
    def from_parents(cls, parents: Sequence[Optional[int]]) -> "RootedTree":
        """The tree with the given parent list (None or a negative value for
        the root); children are linked in node-id order."""
        n = len(parents)
        if n == 0:
            raise SimulationError("tree must have at least one node")
        parent = np.array([-1 if p is None or p < 0 else p for p in parents],
                          dtype=np.int64)
        roots = np.flatnonzero(parent < 0)
        if len(roots) != 1:
            raise SimulationError(f"expected exactly one root, found {len(roots)}")
        if parent.max() >= n:
            bad = int(np.argmax(parent))
            raise SimulationError(f"node {bad} has out-of-range parent {parent[bad]}")
        tree = cls(parent, *np.repeat(_ARENA_FILL[1:], n, axis=1))
        # children in id order; each links to the next child of its parent
        kids = np.flatnonzero(parent >= 0)
        kids = kids[np.argsort(parent[kids], kind="stable")]
        first = np.ones(len(kids), dtype=np.bool_)
        first[1:] = parent[kids[1:]] != parent[kids[:-1]]
        last = np.roll(first, -1)
        tree.first_child[parent[kids[first]]] = kids[first]
        tree.last_child[parent[kids[last]]] = kids[last]
        tree.next_sibling[kids[~last]] = kids[1:][~last[:-1]]
        tree.n_children[:] = np.bincount(parent[kids], minlength=n)
        # depths by pointer jumping: after k rounds each node holds its
        # distance to its 2^k-th ancestor, the root standing for its own
        up = np.where(parent < 0, roots[0], parent)
        tree.depth[:] = parent >= 0
        for _ in range(n.bit_length()):
            tree.depth += tree.depth[up]
            up = up[up]
        if (up != roots[0]).any():
            raise SimulationError("parent links contain a cycle or unreachable node")
        return tree

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray], n_nodes: int) -> "RootedTree":
        """The first ``n_nodes`` entries of a kernel arena, without a copy."""
        return cls(*(a[:n_nodes] for a in arrays))

    def arrays(self) -> tuple:
        """The node arrays in ``_kernels._NODE_ARRAYS`` order."""
        return tuple(getattr(self, name) for name in _kernels._NODE_ARRAYS)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def degrees(self) -> np.ndarray:
        return self.n_children + (self.parent >= 0)

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        n = self.node_count
        parent = self.parent
        assert all(len(a) == n for a in self.arrays()), "ragged node arrays"
        roots = np.flatnonzero(parent < 0)
        assert len(roots) == 1, "exactly one root required"
        assert parent[roots[0]] == -1 and parent.max() < n, "parent out of range"
        assert self.depth[roots[0]] == 0, "root depth must be 0"
        kids = np.flatnonzero(parent >= 0)
        # with one root at depth 0, depth = parent's + 1 also rules out cycles
        assert (self.depth[kids] == self.depth[parent[kids]] + 1).all(), \
            "depth cache broken"
        assert (self.n_children == np.bincount(parent[kids], minlength=n)).all(), \
            "child counts disagree with the parents"
        expected = RootedTree.from_parents(parent.tolist())
        for name in ("first_child", "next_sibling", "last_child"):
            assert np.array_equal(getattr(self, name), getattr(expected, name)), \
                f"{name} links disagree with the parents"


@dataclass
class SimState:
    tree: RootedTree
    position: int


def _read_only(tree: RootedTree) -> RootedTree:
    for a in tree.arrays():
        a.flags.writeable = False
    return tree


# the standard initial trees, shared by every run that starts from them
_EDGE = _read_only(RootedTree.from_parents([None, 0]))
_VERTEX = _read_only(RootedTree.from_parents([None]))


@dataclass
class TrajectoryBatch:
    """Finished runs of one initial state, one row per seed: row r of each
    (rows, horizon + 1) array is what ``run`` records for ``seeds[r]``.

    ``node_count[r]`` is row r's final tree size, or -1 where its walker was
    isolated; such a row holds its trajectory only up to the step that
    failed, zeros after it.
    """

    positions: np.ndarray
    depths: np.ndarray
    xi: np.ndarray
    leaf_at_arrival: np.ndarray
    node_count: np.ndarray

    @property
    def isolated(self) -> np.ndarray:
        return self.node_count < 0


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
        return SimState(tree=_EDGE, position=1)
    if spec == "vertex" or spec == {"kind": "vertex"}:
        return SimState(tree=_VERTEX, position=0)
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
        return {"kind": "explicit", "parents": spec.tree.parent.tolist(),
                "walker": spec.position}
    if isinstance(spec, dict):
        return {"kind": "explicit", "parents": list(spec["parents"]),
                "walker": int(spec["walker"])}
    parents, walker = spec
    return {"kind": "explicit", "parents": list(parents), "walker": int(walker)}


def _state_to_arrays(state: SimState, total: int):
    """A kernel arena of ``total`` slots holding the state's tree in front:
    the node arrays are the rows of one (7, total) block."""
    n0 = state.tree.node_count
    arena = np.empty((len(_ARENA_FILL), total), dtype=np.int64)
    arena[:, :n0] = state.tree.arrays()
    arena[:, n0:] = _ARENA_FILL
    return tuple(arena)


def run_arrays(initial, xi: np.ndarray, jump_u: np.ndarray,
               keep_tree: bool = False, seed: Optional[int] = None,
               schedule: Optional[dict] = None, initial_desc: Optional[dict] = None,
               extras: Optional[dict] = None) -> Trajectory:
    """Drive the kernel with explicit leaf counts and jump uniforms.

    ``xi[0]`` must be 0; ``jump_u`` must have the same length as ``xi`` with
    values in [0, 1).  This is the replay primitive underneath ``run`` and the
    coupled runners.  ``keep_tree`` keeps the final tree, the kernel's arena,
    as ``final_tree``.
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
        raise SimulationError(ISOLATED)
    tree = RootedTree.from_arrays(arrays, final) if keep_tree else None
    return Trajectory(positions=positions, depths=depths, xi=xi,
                      leaf_at_arrival=leaf_flags,
                      initial_tree_size=state.tree.node_count,
                      final_tree=tree, seed=seed, schedule=schedule,
                      initial=initial_desc, extras=extras or {})


def _draw(schedule, horizon: int, seed: int):
    """One run's stream: ``(xi, extras, jump_u)`` from a single generator
    that first samples the leaf-count array from the schedule, then the
    jump uniforms."""
    if horizon < 1:
        raise SimulationError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    xi, extras = schedule.sample_array(horizon, rng)
    return xi, extras, rng.random(horizon + 1)


def run(initial, schedule, horizon: int, seed: int,
        keep_tree: bool = False) -> Trajectory:
    """Simulate ``horizon`` steps; bit-identical replays for equal arguments."""
    xi, extras, jump_u = _draw(schedule, horizon, seed)
    return run_arrays(initial, xi, jump_u, keep_tree=keep_tree,
                      seed=seed, schedule=schedule.descriptor(),
                      initial_desc=initial_descriptor(initial), extras=extras)


def run_batch(initial, schedule, horizon: int,
              seeds: Sequence[int]) -> TrajectoryBatch:
    """``run`` for each seed, in one kernel call on one reused arena.

    Each row's stream is drawn as ``run`` draws it, so row r is
    bit-identical to ``run(initial, schedule, horizon, seeds[r])``.  An
    isolated walker does not raise: its row is marked in ``node_count``.
    """
    state = make_initial(initial)
    rows, steps = len(seeds), horizon + 1
    xi = np.empty((rows, steps), dtype=np.int64)
    jump_u = np.empty((rows, steps), dtype=np.float64)
    for r, seed in enumerate(seeds):
        xi[r], _, jump_u[r] = _draw(schedule, horizon, seed)
    tree = np.array(state.tree.arrays())
    capacity = tree.shape[1] + int(xi.sum(axis=1).max(initial=0))
    arena = np.empty((len(tree), capacity), dtype=np.int64)
    batch = TrajectoryBatch(positions=np.zeros((rows, steps), dtype=np.int64),
                            depths=np.zeros((rows, steps), dtype=np.int64),
                            xi=xi,
                            leaf_at_arrival=np.zeros((rows, steps), dtype=np.bool_),
                            node_count=np.empty(rows, dtype=np.int64))
    _kernels.simulate_batch(arena, tree, state.position, xi, jump_u,
                            batch.positions, batch.depths,
                            batch.leaf_at_arrival, batch.node_count)
    return batch


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
