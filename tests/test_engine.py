import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbrw import _kernels, engine, schedules
from tbrw.engine import SimulationError

from oracles import enumerate_depth_distribution, reference_walk


def test_make_initial_edge():
    state = engine.make_initial("edge")
    assert state.tree.node_count == 2
    assert state.position == 1
    assert state.tree.depth[state.position] == 1
    state.tree.validate()


def test_make_initial_single_vertex():
    state = engine.make_initial("vertex")
    assert state.tree.node_count == 1
    assert state.tree.depth[0] == 0


def test_make_initial_explicit_path():
    state = engine.make_initial({"parents": [None, 0, 1], "walker": 2})
    assert state.tree.depth[2] == 2
    assert state.tree.degrees()[2] == 1


def test_make_initial_rejects_empty_and_bad_walker():
    with pytest.raises(SimulationError):
        engine.make_initial({"parents": [], "walker": 0})
    with pytest.raises(SimulationError):
        engine.make_initial({"parents": [None, 0], "walker": 5})
    with pytest.raises(SimulationError):
        engine.make_initial({"parents": [None, 0, 0, None], "walker": 0})


def _checked_walk(initial, xi, jump_u):
    """run_arrays, checked against the dict stepper on the same draws."""
    traj = engine.run_arrays(initial, xi, jump_u, keep_tree=True)
    state = engine.make_initial(initial)
    positions, depths, parent = reference_walk(
        state.tree.parent.tolist(), state.position, xi, jump_u)
    assert traj.positions.tolist() == positions
    assert traj.depths.tolist() == depths
    assert traj.final_tree.parent.tolist() == [parent[v] for v in sorted(parent)]
    traj.validate()
    return traj


def test_step_single_neighbor_forced(rng):
    traj = _checked_walk("edge", [0, 0], rng.random(2))
    assert traj.positions[1] == 0
    assert traj.final_tree.node_count == 2
    assert traj.horizon == 1


def test_step_zero_leaves_constant_node_count(rng):
    traj = _checked_walk("edge", np.zeros(11, dtype=np.int64), rng.random(11))
    assert traj.final_tree.node_count == 2
    assert traj.depths.tolist() == [1, 0] * 5 + [1]


def test_step_uniform_jump_frequencies():
    # degree-3 vertex after adding 2 leaves on the edge tip: each neighbor
    # frequency within 4 * sqrt(1/(4R)) of 1/3
    R = 10_000
    counts = {}
    for r in range(R):
        jump_u = np.random.default_rng(r).random(2)
        walk = _checked_walk if r < 100 else engine.run_arrays
        pos = int(walk("edge", [0, 2], jump_u).positions[1])
        counts[pos] = counts.get(pos, 0) + 1
    assert set(counts) == {0, 2, 3}
    tol = 4 * np.sqrt(1 / (4 * R))
    for c in counts.values():
        assert abs(c / R - 1 / 3) < tol


def test_step_isolated_walker_rejected(rng):
    jump_u = rng.random(2)
    with pytest.raises(SimulationError):
        engine.run_arrays("vertex", [0, 0], jump_u)
    with pytest.raises(ValueError):
        reference_walk([None], 0, [0, 0], jump_u)


def test_run_delta0_alternates_on_edge():
    traj = engine.run("edge", schedules.iid(schedules.LeafLaw.delta(0)), 4, seed=3)
    assert traj.depths.tolist() == [1, 0, 1, 0, 1]


def test_run_two_step_enumeration_oracle():
    # exact oracle first: point mass 1 from the edge, two steps
    dist = enumerate_depth_distribution([None, 0], 1, [1, 1])
    assert dist == {1: Fraction(3, 4), 3: Fraction(1, 4)}
    R = 20_000
    sched = schedules.iid(schedules.LeafLaw.delta(1))
    finals = np.array([engine.run("edge", sched, 2, seed=s).depths[-1]
                       for s in range(R)])
    for depth, prob in dist.items():
        p = float(prob)
        se = np.sqrt(p * (1 - p) / R)
        assert abs((finals == depth).mean() - p) < 3 * se


def test_run_deterministic_replay():
    sched = schedules.bernoulli(0.4)
    a = engine.run("edge", sched, 500, seed=11)
    b = engine.run("edge", sched, 500, seed=11)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.depths, b.depths)
    c = engine.run("edge", sched, 500, seed=12)
    assert not np.array_equal(a.positions, c.positions)


def test_run_records_leaf_flags_against_snapshot():
    traj = engine.run("edge", schedules.bernoulli(0.7), 300, seed=5,
                      keep_tree=True)
    tree = traj.final_tree
    # degree-1 flags at the end of the run agree with the snapshot degrees
    last = traj.positions[-1]
    assert traj.leaf_at_arrival[-1] == (tree.degrees()[last] == 1)
    tree.validate()


@given(p=st.floats(0.05, 1.0), seed=st.integers(0, 10_000),
       horizon=st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_run_invariants_property(p, seed, horizon):
    traj = engine.run("edge", schedules.bernoulli(p), horizon, seed,
                      keep_tree=True)
    # one edge per step
    assert (np.abs(np.diff(traj.depths)) == 1).all()
    assert (traj.depths >= 0).all()
    # node count conservation
    assert traj.final_tree.node_count == 2 + traj.xi.sum()
    # cached depths match a recomputation along parent links
    tree = traj.final_tree
    for v in range(tree.node_count):
        d, u = 0, v
        while tree.parent[u] >= 0:
            u = tree.parent[u]
            d += 1
        assert d == tree.depth[v]


def test_degree_growth_only_at_walker():
    sched = schedules.bernoulli(0.6)
    rng = np.random.default_rng(9)
    xi, _ = sched.sample_array(60, rng)
    traj = _checked_walk("edge", xi, rng.random(61))
    tree = traj.final_tree
    has_parent = tree.parent >= 0

    def degrees_after(n):
        kids = np.flatnonzero((tree.birth <= n) & has_parent)
        return np.bincount(tree.parent[kids], minlength=tree.node_count) + has_parent

    for n in range(1, 61):
        changed = np.flatnonzero(degrees_after(n) != degrees_after(n - 1))
        assert set(changed.tolist()) <= {int(traj.positions[n - 1])}, \
            "degree changed away from the walker"
    assert np.array_equal(degrees_after(60), tree.degrees())


def test_tree_validate_rejects_corrupted_arena():
    tree = engine.run("edge", schedules.bernoulli(0.7), 200, seed=3,
                      keep_tree=True).final_tree
    tree.validate()
    leaf = int(np.flatnonzero(tree.n_children == 0)[-1])
    fork = int(np.flatnonzero(tree.n_children >= 2)[0])
    cases = [("depth", leaf, tree.depth[leaf] + 1, "depth cache broken"),
             ("depth", leaf, tree.depth[leaf] - 1, "depth cache broken"),
             ("n_children", fork, tree.n_children[fork] - 1, "child counts"),
             ("n_children", leaf, 1, "child counts"),
             ("next_sibling", tree.first_child[fork], -1, "next_sibling links"),
             ("first_child", fork, tree.last_child[fork], "first_child links"),
             ("parent", leaf, -1, "exactly one root")]
    for name, node, value, message in cases:
        arrays = dict(zip(_kernels._NODE_ARRAYS,
                          (a.copy() for a in tree.arrays())))
        arrays[name][node] = value
        with pytest.raises(AssertionError, match=message):
            engine.RootedTree(**arrays).validate()


def test_trajectory_csv_round_trip(tmp_path):
    traj = engine.run("edge", schedules.bernoulli(0.5), 20, seed=2)
    path = tmp_path / "traj.csv"
    engine.trajectory_to_csv(traj, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "step,position,depth,xi,leaf_at_arrival"
    assert len(rows) == 22
    sidecar = json.loads((tmp_path / "traj.json").read_text())
    assert sidecar["seed"] == 2
    assert sidecar["horizon"] == 20
    assert sidecar["engine_version"] == engine.ENGINE_VERSION
    assert sidecar["schedule"]["kind"] == "iid"


def test_run_rejects_bad_horizon():
    with pytest.raises(SimulationError):
        engine.run("edge", schedules.bernoulli(0.5), 0, seed=1)


def test_run_from_explicit_state_keeps_depth_offset():
    initial = {"parents": [None, 0, 1, 2], "walker": 3}
    traj = engine.run(initial, schedules.bernoulli(1.0), 50, seed=8,
                      keep_tree=True)
    assert traj.depths[0] == 3
    traj.validate()
