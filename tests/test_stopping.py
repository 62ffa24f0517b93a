import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbrw import engine, schedules, stopping
from tbrw.engine import Trajectory
from tbrw.stopping import InsufficientBlocksError

from oracles import brute_force_ladder, brute_force_renewals


def _traj_from(depths, leaf_flags, positions=None, xi=None, initial_size=2):
    depths = np.asarray(depths, dtype=np.int64)
    n = len(depths) - 1
    if positions is None:
        positions = np.arange(n + 1, dtype=np.int64)
    if xi is None:
        xi = np.zeros(n + 1, dtype=np.int64)
        xi[1:] = 1
    return Trajectory(positions=np.asarray(positions, dtype=np.int64),
                      depths=depths, xi=np.asarray(xi, dtype=np.int64),
                      leaf_at_arrival=np.asarray(leaf_flags, dtype=np.bool_),
                      initial_tree_size=initial_size)


def test_strictly_descending_all_renewals():
    # fresh leaf at every step, depth always a new record
    n = 10
    traj = _traj_from(np.arange(1, n + 2), [True] * (n + 1))
    rec = stopping.detect_renewals(traj, guard=0)
    assert rec.taus.tolist() == list(range(1, n + 1))
    blocks = stopping.renewal_blocks(rec, drop_first=False)
    assert (blocks == 1).all()


def test_delta0_edge_no_renewals():
    traj = engine.run("edge", schedules.iid(schedules.LeafLaw.delta(0)), 50, seed=0)
    rec = stopping.detect_renewals(traj, guard=0)
    assert len(rec.taus) == 0
    assert stopping.detect_ladder_times(traj) == []


def test_hand_built_first_renewal():
    # depth (1,0,1,2,3,2,3): step 3 arrives on a fresh leaf at a record depth
    # and the later minimum is 2, so it is the one renewal candidate besides
    # the tail; brute force agrees clause by clause
    depths = [1, 0, 1, 2, 3, 2, 3]
    flags = [False, False, False, True, True, False, True]
    traj = _traj_from(depths, flags)
    rec = stopping.detect_renewals(traj, guard=0)
    oracle = brute_force_renewals(depths, flags)
    assert rec.taus.tolist() == oracle
    assert 3 in rec.taus.tolist()
    assert rec.taus.tolist()[0] == 3


@given(p=st.floats(0.1, 1.0), seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_detector_matches_brute_force(p, seed):
    traj = engine.run("edge", schedules.bernoulli(p), 120, seed)
    rec = stopping.detect_renewals(traj, guard=0)
    assert rec.taus.tolist() == brute_force_renewals(
        traj.depths.tolist(), traj.leaf_at_arrival.tolist())
    assert stopping.detect_ladder_times(traj) == brute_force_ladder(
        traj.depths.tolist(), traj.leaf_at_arrival.tolist())


def test_renewals_are_ladder_times():
    for seed in range(100):
        traj = engine.run("edge", schedules.bernoulli(0.6), 300, seed)
        rec = stopping.detect_renewals(traj, guard=0)
        ladder = set(stopping.detect_ladder_times(traj))
        assert set(rec.taus.tolist()) <= ladder


def test_guard_censors_tail():
    n = 10
    traj = _traj_from(np.arange(1, n + 2), [True] * (n + 1))
    rec = stopping.detect_renewals(traj, guard=4)
    assert rec.censored.tolist() == [m < 4 for m in (n - rec.taus)]
    assert rec.n_confirmed == n - 4
    # extending the horizon confirms previously censored candidates and never
    # adds an earlier one
    traj2 = _traj_from(np.arange(1, n + 6), [True] * (n + 5))
    rec2 = stopping.detect_renewals(traj2, guard=4)
    assert set(rec.confirmed_taus.tolist()) <= set(rec2.confirmed_taus.tolist())
    assert min(rec2.confirmed_taus) == min(rec.confirmed_taus)


def test_hitting_time_examples():
    traj = engine.run("edge", schedules.iid(schedules.LeafLaw.delta(0)), 6, seed=0)
    # walker starts at node 1; target itself returns from_step
    assert stopping.hitting_time(traj, 1, 0).step == 0
    assert stopping.hitting_time(traj, 0, 0).step == 1
    assert stopping.hitting_time(traj, 1, 1).step == 2
    with pytest.raises(ValueError):
        stopping.hitting_time(traj, 99, 0)


def test_hitting_time_censored():
    traj = engine.run("edge", schedules.iid(schedules.LeafLaw.delta(1)), 5, seed=1)
    # final node is created at the last step and may never be visited
    unvisited = [v for v in range(traj.final_size)
                 if v not in set(traj.positions.tolist())]
    assert unvisited, "expected some never-visited node in this run"
    ct = stopping.hitting_time(traj, unvisited[0], 0)
    assert ct.censored


def test_parent_return_step_down_and_back():
    # down to a fresh leaf then straight back: return time is one step later
    depths = [1, 2, 1, 2, 3]
    flags = [False, True, False, True, True]
    positions = [1, 2, 1, 3, 4]
    traj = _traj_from(depths, flags, positions=positions)
    returns = stopping.parent_return_times(traj)
    ladder = stopping.detect_ladder_times(traj)
    assert ladder == [1, 4]
    assert returns[0].step == 2
    assert returns[1].censored


def test_parent_return_consistency_with_renewals():
    # after a confirmed renewal the parent of the renewal vertex is never
    # visited again within the horizon
    for seed in range(60):
        traj = engine.run("edge", schedules.bernoulli(0.9), 400, seed)
        rec = stopping.detect_renewals(traj, guard=0)
        for tau in rec.confirmed_taus:
            if tau == traj.horizon:
                continue  # no post-steps to inspect
            parent = traj.positions[tau - 1]
            later = stopping.hitting_time(traj, int(parent), int(tau) + 1)
            assert later.censored, (seed, tau)


def test_renewal_blocks_arithmetic():
    rec = stopping.RenewalRecord(
        taus=np.array([1, 2, 3]), depths=np.array([1, 2, 3]),
        censored=np.array([False] * 3), confirm_margin=np.array([9, 8, 7]),
        horizon=10, guard=0)
    assert stopping.renewal_blocks(rec, drop_first=True).tolist() == [[1, 1]]
    rec2 = stopping.RenewalRecord(
        taus=np.array([3, 5, 9]), depths=np.array([2, 3, 6]),
        censored=np.array([False] * 3), confirm_margin=np.array([9, 7, 3]),
        horizon=12, guard=0)
    assert stopping.renewal_blocks(rec2, drop_first=True).tolist() == [[4, 3]]
    assert stopping.renewal_blocks(rec2, drop_first=False).tolist() == [[2, 1], [4, 3]]


def test_renewal_blocks_insufficient():
    rec = stopping.RenewalRecord(
        taus=np.array([4]), depths=np.array([2]), censored=np.array([False]),
        confirm_margin=np.array([5]), horizon=9, guard=0)
    with pytest.raises(InsufficientBlocksError):
        stopping.renewal_blocks(rec)


def test_block_depth_gains_positive():
    for seed in range(40):
        traj = engine.run("edge", schedules.bernoulli(0.8), 500, seed)
        rec = stopping.detect_renewals(traj)
        if rec.n_confirmed >= 2:
            blocks = stopping.renewal_blocks(rec, drop_first=False)
            assert (blocks[:, 1] >= 1).all()
            assert (blocks[:, 0] >= 1).all()


def test_censoring_monotone_under_extension():
    # exact sub-claims: candidates are determined by their past, so extending
    # the run never creates an earlier confirmed renewal
    sched = schedules.bernoulli(0.5)
    for seed in range(30):
        long = engine.run("edge", sched, 600, seed, keep_tree=False)
        short = Trajectory(positions=long.positions[:301],
                           depths=long.depths[:301], xi=long.xi[:301],
                           leaf_at_arrival=long.leaf_at_arrival[:301],
                           initial_tree_size=2)
        rec_s = stopping.detect_renewals(short, guard=0)
        rec_l = stopping.detect_renewals(long, guard=0)
        long_set = set(rec_l.taus.tolist())
        # refuted-at-short stays refuted; any new confirmation is later
        if len(rec_l.taus) and len(rec_s.taus):
            assert min(rec_l.taus) >= min(rec_s.taus) or min(rec_l.taus) in \
                set(rec_s.taus.tolist())
        # a long-run renewal visible before the short horizon must have been a
        # short-run candidate as well
        for tau in long_set:
            if tau <= 300 and long.depths[301:].min() >= long.depths[tau]:
                assert tau in set(rec_s.taus.tolist())


@pytest.mark.parametrize("guard", [None, 0, 10])
def test_row_detection_matches_one_row_path(guard):
    # each row of a batch gets what detect_renewals finds on that run alone,
    # with its own guard under guard=None; rows range from no candidates to
    # many
    swarm = schedules.iid(schedules.LeafLaw((0, 1, 3), (0.5, 0.3, 0.2)))
    seeds = list(range(40))
    for initial, law, horizon in (("edge", swarm, 300),
                                  ("vertex", schedules.bernoulli(0.9), 60),
                                  ("edge", swarm, 1)):
        batch = engine.run_batch(initial, law, horizon, seeds)
        found = stopping.detect_renewal_rows(batch.depths,
                                             batch.leaf_at_arrival, guard)
        assert found.horizon == horizon
        block_row, blocks = found.blocks()
        counts = np.bincount(found.row, minlength=len(seeds))
        for r, seed in enumerate(seeds):
            if batch.isolated[r]:
                continue
            rec = stopping.detect_renewals(
                engine.run(initial, law, horizon, seed), guard)
            mine = found.row == r
            assert found.guard[r] == rec.guard
            assert np.array_equal(found.taus[mine], rec.taus)
            assert np.array_equal(found.depths[mine], rec.depths)
            assert np.array_equal(found.censored[mine], rec.censored)
            assert np.array_equal(found.confirm_margin[mine], rec.confirm_margin)
            expected = (stopping.renewal_blocks(rec) if rec.n_confirmed >= 2
                        else np.zeros((0, 2), dtype=np.int64))
            assert np.array_equal(blocks[block_row == r], expected)
        if horizon == 300:
            assert counts.min() == 0 and counts.max() >= 3
            assert len(set(found.guard.tolist())) > 2 or guard is not None


def test_detection_scales_linearly():
    sched = schedules.bernoulli(0.5)
    t_small = t_big = 0.0
    small = engine.run("edge", sched, 20_000, 1, keep_tree=False)
    big = engine.run("edge", sched, 2_000_000, 1, keep_tree=False)
    t0 = time.perf_counter()
    for _ in range(3):
        stopping.detect_renewals(small, guard=10)
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(3):
        stopping.detect_renewals(big, guard=10)
    t_big = time.perf_counter() - t0
    # 100x the data should cost well under 1000x the time (linear-ish)
    assert t_big < 1000 * max(t_small, 1e-4)


def test_record_csv_format(tmp_path):
    traj = engine.run("edge", schedules.bernoulli(0.9), 200, seed=4)
    rec = stopping.detect_renewals(traj, guard=5)
    path = tmp_path / "renewals.csv"
    stopping.renewal_record_to_csv(rec, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,tau,depth_at_tau,delta_tau,delta_depth,censored"
    assert len(lines) == 1 + len(rec.taus)
