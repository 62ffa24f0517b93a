import dataclasses

import numpy as np
import pytest

from tbrw import couplings, schedules, stopping
from tbrw.schedules import LeafLaw


def test_tv_distance_examples():
    b5, b7 = LeafLaw.bernoulli(0.5), LeafLaw.bernoulli(0.7)
    assert couplings.tv_distance(b5, b5) == 0.0
    assert couplings.tv_distance(LeafLaw.delta(0), LeafLaw.delta(1)) == 1.0
    # formula oracle: 0.5 * (|0.5-0.3| + |0.5-0.7|) = 0.2
    assert couplings.tv_distance(b5, b7) == pytest.approx(0.2)


def test_max_couple_identical_always_equal(rng):
    law = LeafLaw(support=(0, 2), probs=(0.25, 0.75))
    xa, xb, eq = couplings.sample_coupled_arrays(law, law, 200, rng)
    assert eq.all() and np.array_equal(xa, xb)
    assert set(xa.tolist()) == {0, 2}


def test_max_couple_agreement_probability(rng):
    b5, b7 = LeafLaw.bernoulli(0.5), LeafLaw.bernoulli(0.7)
    n = 100_000
    xa, xb, eq = couplings.sample_coupled_arrays(b5, b7, n, rng)
    assert abs(eq.mean() - 0.8) < 0.01
    assert (xa[eq] == xb[eq]).all()
    assert (xa[~eq] != xb[~eq]).all()


def test_max_couple_marginals(rng):
    b5, b7 = LeafLaw.bernoulli(0.5), LeafLaw.bernoulli(0.7)
    n = 100_000
    xa, xb, _ = couplings.sample_coupled_arrays(b5, b7, n, rng)
    assert abs(xa.mean() - 0.5) < 0.01
    assert abs(xb.mean() - 0.7) < 0.01


def test_tv_coupled_run_identical_laws_never_split():
    law = LeafLaw.bernoulli(0.6)
    pair = couplings.tv_coupled_run(law, law, 300, seed=1)
    assert pair.censored
    assert np.array_equal(pair.traj_a.positions, pair.traj_b.positions)
    assert np.array_equal(pair.traj_a.xi, pair.traj_b.xi)


def test_tv_coupled_run_split_time_geometric():
    b5, b7 = LeafLaw.bernoulli(0.5), LeafLaw.bernoulli(0.7)
    zetas = []
    for seed in range(3000):
        pair = couplings.tv_coupled_run(b5, b7, 120, seed=seed)
        if pair.split_time is not None:
            zetas.append(pair.split_time)
    zetas = np.array(zetas, dtype=float)
    # Geo(0.2): mean 5, variance 20
    assert abs(zetas.mean() - 5.0) < 3 * np.sqrt(20 / len(zetas))
    assert abs(zetas.var(ddof=1) - 20.0) < 4.0


def test_tv_coupled_run_pre_split_equality_and_renewals():
    b5, b7 = LeafLaw.bernoulli(0.5), LeafLaw.bernoulli(0.7)
    checked = 0
    for seed in range(400):
        pair = couplings.tv_coupled_run(b5, b7, 400, seed=seed)
        z = pair.split_time
        if z is None:
            continue
        assert np.array_equal(pair.traj_a.positions[:z], pair.traj_b.positions[:z])
        assert np.array_equal(pair.traj_a.xi[:z], pair.traj_b.xi[:z])
        rec_a = stopping.detect_renewals(pair.traj_a)
        rec_b = stopping.detect_renewals(pair.traj_b)
        if rec_a.n_confirmed and rec_b.n_confirmed:
            ta, tb = rec_a.confirmed_taus[0], rec_b.confirmed_taus[0]
            if max(ta, tb) < z:
                assert ta == tb
                checked += 1
    assert checked > 0, "expected at least one pair with both renewals before the split"


def test_tv_coupled_marginals_preserved():
    # each side of the coupled run keeps its own one-step law
    b5, b7 = LeafLaw.bernoulli(0.5), LeafLaw.bernoulli(0.7)
    a_draws, b_draws = [], []
    for seed in range(300):
        pair = couplings.tv_coupled_run(b5, b7, 60, seed=seed)
        a_draws.append(pair.traj_a.xi[1:])
        b_draws.append(pair.traj_b.xi[1:])
    a = np.concatenate(a_draws).mean()
    b = np.concatenate(b_draws).mean()
    se = 1 / (2 * np.sqrt(300 * 60))
    assert abs(a - 0.5) < 4 * se
    assert abs(b - 0.7) < 4 * se


def test_grand_first_step_structure():
    g = couplings.grand_run("edge", horizon=1, seed=11)
    u = g.uniforms[0]
    # one new vertex labeled [U,1] attached at the walker
    assert g.n_nodes == 3
    assert g.node_parent[2] == 1
    assert g.label(2) == ((u, 1.0),)
    # the ball [0,1] split into [0,U], [U,1]
    cuts = g.cuts(1).tolist()
    assert list(zip(cuts, cuts[1:])) == [(0.0, u), (u, 1.0)]
    # the low fragment cannot sit on the new vertex
    assert g.balls(1)[0] != 2


def test_grand_invariants_many_runs():
    for seed in range(25):
        g = couplings.grand_run("edge", horizon=40, seed=seed)
        couplings.check_grand_invariants(g)
        assert len(g.balls(g.horizon)) == 1 + g.horizon
        assert couplings.vertex_count(g, 1.0, g.horizon) == 2 + g.horizon
        assert couplings.vertex_count(g, 0.0, g.horizon) == 2


def _swapped_first_cuts():
    # a run where ball 1 = [U_1, 1] sits on node 2, labeled [U_1, 1], after
    # step 1 and U_2 < U_1: with U_1 and U_2 swapped, step 1's ball 1 is
    # [U_2, 1], which node 2's label misses
    for seed in range(100):
        g = couplings.grand_run("edge", horizon=40, seed=seed)
        if g.balls(1)[1] == 2 and g.uniforms[1] < g.uniforms[0]:
            return dataclasses.replace(g, uniforms=g.uniforms[[1, 0, *range(2, 40)]])
    raise AssertionError("no such run among 100 seeds")


def _grand_corrupted(case):
    g = couplings.grand_run("edge", horizon=40, seed=0)
    steps = g.ball_steps.copy()
    if case == "ball off its label":
        # ball 0 = [0, c] cannot sit on the last node: its parts start at U_40
        steps[20 * 21 // 2] = g.n_nodes - 1
        return dataclasses.replace(g, ball_steps=steps)
    if case == "two cuts swapped":
        return _swapped_first_cuts()
    if case == "duplicate cut":
        u = g.uniforms.copy()
        u[5] = u[2]
        return dataclasses.replace(g, uniforms=u)
    if case == "ball dropped":
        return dataclasses.replace(g, ball_steps=np.delete(steps, 10 * 11 // 2 + 3))
    raise ValueError(case)


@pytest.mark.parametrize("case, message", [
    ("ball off its label", "escaped its vertex label at step 20"),
    ("two cuts swapped", "escaped its vertex label at step 1"),
    ("duplicate cut", "cuts must run strictly"),
    ("ball dropped", "one split per step"),
])
def test_grand_invariants_reject_corrupted_runs(case, message):
    couplings.check_grand_invariants(couplings.grand_run("edge", 40, seed=0))
    with pytest.raises(AssertionError, match=message):
        couplings.check_grand_invariants(_grand_corrupted(case))


def test_grand_unique_ball_per_parameter():
    g = couplings.grand_run("edge", horizon=60, seed=3)
    for p in (0.21, 0.5, 0.83):
        holding = g.nodes_holding(p, 60)
        for step in (0, 10, 60):
            cuts = g.cuts(step)
            holders = np.flatnonzero((cuts[:-1] <= p) & (p <= cuts[1:]))
            assert len(holders) == 1
            assert holding[step] == g.balls(step)[holders[0]]
    with pytest.raises(ValueError):
        g.nodes_holding(float(g.uniforms[4]), 10)


def test_extract_instance_xi_matches_uniform_indicators():
    for seed in range(10):
        g = couplings.grand_run("edge", horizon=50, seed=seed)
        for p in (0.3, 0.9):
            traj = couplings.extract_instance(g, p)
            traj.validate()
            assert traj.xi[1:].tolist() == [int(u < p) for u in g.uniforms]


def test_extract_instance_point_mass_one():
    g = couplings.grand_run("edge", horizon=40, seed=7)
    traj = couplings.extract_instance(g, 1.0)
    assert (traj.xi[1:] == 1).all()
    assert traj.final_size == 2 + 40


def test_extract_rejects_collision():
    g = couplings.grand_run("edge", horizon=20, seed=9)
    with pytest.raises(ValueError):
        couplings.extract_instance(g, float(g.uniforms[4]))


def test_vertex_count_monotone_over_grid():
    for seed in range(50):
        g = couplings.grand_run("edge", horizon=30, seed=100 + seed)
        assert couplings.vertex_count_monotone(g, [0.0, 0.25, 0.5, 0.75, 1.0], 30)


def test_coalescence_inclusion_and_frequency():
    p, q, n = 0.5, 0.55, 20
    runs = [couplings.grand_run("edge", horizon=n, seed=1000 + s)
            for s in range(600)]
    agree = np.array([couplings.instances_agree_through(g, p, q, n) for g in runs])
    suff = np.array([couplings.no_uniform_between(g, p, q, n) for g in runs])
    assert np.all(agree | ~suff), "sufficient event must imply agreement"
    lower_bound = (1.0 - abs(p - q)) ** n
    assert lower_bound == pytest.approx(0.95 ** 20)
    se = np.sqrt(lower_bound * (1 - lower_bound) / len(runs))
    assert abs(suff.mean() - lower_bound) < 3 * se
    assert agree.mean() >= suff.mean()


def test_monotone_pair_bernoulli_floor_identical():
    # floor parameter equal to the law: walkers never separate
    law = LeafLaw.bernoulli(0.4)
    res = couplings.monotone_pair_run(law, 0.4, 400, seed=2)
    assert res.n_synced == 400
    assert np.array_equal(res.traj_lead.positions, res.traj_floor.positions)
    assert np.array_equal(res.traj_lead.xi, res.floor_xi)
    assert res.label_violations == 0


def test_monotone_pair_lead_marginal():
    law = LeafLaw(support=(0, 1, 3), probs=(0.25, 0.25, 0.5))
    counts = {0: 0, 1: 0, 3: 0}
    n_total = 0
    for seed in range(40):
        res = couplings.monotone_pair_run(law, 0.5, 2500, seed=seed)
        vals, cnts = np.unique(res.traj_lead.xi[1:], return_counts=True)
        for v, c in zip(vals, cnts):
            counts[int(v)] += int(c)
        n_total += 2500
    tv = 0.5 * sum(abs(counts[k] / n_total - law.pmf(k)) for k in counts)
    assert tv < 0.01
    assert res.label_violations == 0


def test_monotone_pair_rejects_thin_law():
    with pytest.raises(ValueError):
        couplings.monotone_pair_run(LeafLaw.bernoulli(0.3), 0.5, 100, seed=0)


def test_monotone_pair_domination_inclusion():
    # lead reaching the root of a depth-3 initial path forces a floor visit
    law = LeafLaw(support=(0, 1, 3), probs=(0.25, 0.25, 0.5))
    initial = {"parents": [None, 0, 1, 2], "walker": 3}
    lead_hits = floor_hits = 0
    for seed in range(300):
        res = couplings.monotone_pair_run(law, 0.5, 250, seed=seed,
                                          initial=initial)
        lead_hit = bool((res.traj_lead.positions == 0).any())
        floor_hit = bool((res.traj_floor.positions == 0).any())
        assert floor_hit or not lead_hit, f"inclusion broken at seed {seed}"
        lead_hits += lead_hit
        floor_hits += floor_hit
    assert lead_hits <= floor_hits
    assert floor_hits > 0


def test_monotone_floor_xi_mean_near_floor():
    law = LeafLaw(support=(0, 1, 3), probs=(0.25, 0.25, 0.5))
    means = []
    for seed in range(30):
        res = couplings.monotone_pair_run(law, 0.5, 1500, seed=seed)
        means.append(res.floor_xi[1:].mean())
    # continuation dominates the floor stream; mean stays near the floor rate
    assert abs(np.mean(means) - 0.5) < 0.02
