import json
import math

import numpy as np
import pytest

from tbrw import engine, estimators, schedules, stopping
from tbrw.config import parse_config
from tbrw.engine import RootedTree
from tbrw.experiments import run_experiment
from tbrw.stopping import InsufficientBlocksError


def test_speed_trajectory_delta0():
    traj = engine.run("edge", schedules.iid(schedules.LeafLaw.delta(0)), 1000, 0)
    est = estimators.speed_trajectory(traj)
    assert est.value == traj.depths[-1] / 1000
    assert est.value <= 1 / 1000
    assert est.method == "trajectory"


def test_speed_trajectory_descending_is_one():
    # deterministic strictly-descending path: value is 1 up to the initial
    # depth offset and the batch means are exactly 1
    depths = np.arange(1, 66, dtype=np.int64)
    traj = engine.Trajectory(positions=np.arange(65), depths=depths,
                             xi=np.r_[0, np.ones(64, dtype=np.int64)],
                             leaf_at_arrival=np.ones(65, dtype=bool),
                             initial_tree_size=2)
    est = estimators.speed_trajectory(traj)
    assert est.value == pytest.approx(65 / 64)
    assert est.stderr == 0.0


def test_speed_renewal_arithmetic():
    est = estimators.speed_renewal(np.array([[2, 1], [4, 3]]))
    assert est.value == pytest.approx(4 / 6)
    est2 = estimators.speed_renewal(np.array([[1, 1]] * 5))
    assert est2.value == 1.0
    assert est2.stderr == 0.0
    with pytest.raises(InsufficientBlocksError):
        estimators.speed_renewal(np.array([[2, 1]]))


def test_speed_renewal_consistency_on_synthetic_blocks(rng):
    # known mean ratio: dt ~ 3 + Geom, dd ~ Bernoulli+1; ratio of means
    n = 20_000
    dt = 3 + rng.geometric(0.5, n)
    dd = 1 + rng.binomial(1, 0.4, n)
    est = estimators.speed_renewal(np.column_stack([dt, dd]))
    truth = (1.4) / (3 + 2.0)
    assert abs(est.value - truth) < 4 * est.stderr
    # rate ~ 1/sqrt(n): quadruple data, stderr roughly halves
    est2 = estimators.speed_renewal(np.column_stack([dt, dd])[:n // 4])
    assert est.stderr < est2.stderr


def test_variance_estimators_examples():
    pair = estimators.variance_estimators(np.array([[3, 2]] * 4), v_hat=0.5)
    assert pair.sigma2_depth == 0.0
    pair2 = estimators.variance_estimators(np.array([[2, 1], [4, 3]]), v_hat=2 / 3)
    # centered values are -1/3 and +1/3; unbiased variance = 2/9
    assert pair2.sigma2_centered == pytest.approx(2 / 9)
    assert pair2.sigma2_depth == pytest.approx(2.0)


def test_sigma_candidates_and_selection(rng):
    # synthetic regenerative blocks with known per-step variance
    n = 50_000
    dt = rng.geometric(0.25, n).astype(float)  # mean 4
    dd = rng.normal(0.5, 1.0, n) + 0.1 * dt
    blocks = np.column_stack([dt, dd])
    v = dd.sum() / dt.sum()
    cands = estimators.sigma_candidates(blocks, v)
    assert set(cands) == {"depth_blocks", "centered_blocks", "centered_per_step"}
    # build replica finals that genuinely follow the per-step normalization
    N = 400
    sigma_true = math.sqrt(cands["centered_per_step"])
    finals = N * v + sigma_true * math.sqrt(N) * rng.normal(size=3000)
    name, sigma = estimators.select_sigma(finals, N, v, cands)
    assert name == "centered_per_step"
    z, ks = estimators.clt_samples(finals, N, v, sigma)
    assert ks < 0.03


def test_clt_samples_point_mass():
    z, ks = estimators.clt_samples(np.full(100, 50.0), 100, 0.5, 1.0)
    assert (z == 0).all()
    assert ks == pytest.approx(0.5)


def test_clt_samples_rejects_bad_sigma():
    with pytest.raises(ValueError):
        estimators.clt_samples([1.0], 10, 0.1, 0.0)


def test_clt_normal_input_passes_ks_in_most_meta_trials(rng):
    # exactly-normal synthetic input should clear a 5% KS test most of the time
    N, reps, trials = 100, 500, 50
    hits = 0
    for _ in range(trials):
        finals = N * 0.3 + 2.0 * np.sqrt(N) * rng.normal(size=reps)
        z, _ = estimators.clt_samples(finals, N, 0.3, 2.0)
        from scipy import stats
        hits += stats.kstest(z, "norm").pvalue > 0.05
    assert hits >= 0.9 * trials


def test_lil_statistic_zero_for_deterministic():
    # exactly linear path: depth n = n, v = 1
    traj = engine.Trajectory(positions=np.arange(101),
                             depths=np.arange(101, dtype=np.int64),
                             xi=np.r_[0, np.ones(100, dtype=np.int64)],
                             leaf_at_arrival=np.ones(101, dtype=bool),
                             initial_tree_size=1)
    curve = estimators.lil_statistic(traj, v_hat=1.0, sigma_hat=1.0, n_min=3)
    assert curve.shape == (98,)
    assert (curve == 0).all()


def test_lil_statistic_domain():
    traj = engine.run("edge", schedules.bernoulli(0.5), 50, 0)
    with pytest.raises(ValueError):
        estimators.lil_statistic(traj, 0.1, 1.0, n_min=2)


def test_degree_histogram_single_edge():
    hist = estimators.degree_histogram(RootedTree.from_parents([None, 0]))
    assert hist.degrees.tolist() == [1]
    assert hist.fractions.tolist() == [1.0]
    assert hist.fractions.sum() == 1.0


def test_degree_target_values():
    assert estimators.cubic_degree_target(1) == pytest.approx(2 / 3)
    assert estimators.cubic_degree_target(2) == pytest.approx(1 / 6)
    assert estimators.cubic_degree_target(3) == pytest.approx(1 / 15)


def test_degree_histogram_fractions_sum_to_one():
    traj = engine.run("edge", schedules.bernoulli(0.7), 2000, 1, keep_tree=True)
    hist = estimators.degree_histogram(traj.final_tree)
    assert hist.fractions.sum() == pytest.approx(1.0, abs=1e-12)
    assert hist.n_nodes == traj.final_size


def test_kaplan_meier_no_censoring_matches_empirical():
    samples = [1, 1, 2, 5, 5, 5, 9]
    times, surv = estimators.kaplan_meier(samples, [False] * 7)
    assert times.tolist() == [1, 2, 5, 9]
    assert surv.tolist() == pytest.approx([5 / 7, 4 / 7, 1 / 7, 0.0])


def test_kaplan_meier_censored_shrinks_risk_set():
    times, surv = estimators.kaplan_meier([2, 3, 4], [False, True, False])
    # at t=4 the risk set is just one subject
    assert surv.tolist() == pytest.approx([2 / 3, 0.0])


def test_tail_survival_synthetic_recovery(rng):
    # S(t) = exp(-0.5 sqrt(t)) by inverse transform, discretized upward
    u = rng.random(200_000)
    x = np.ceil((2.0 * np.log(1 / u)) ** 2).astype(int)
    fit = estimators.tail_survival(x)
    assert not fit.degenerate
    assert abs(fit.rate - 0.5) < 0.05
    assert fit.r_squared > 0.99


def test_tail_survival_all_equal_degenerate():
    fit_in = [1] * 200
    fit = estimators.tail_survival(fit_in)
    assert fit.degenerate
    assert math.isnan(fit.rate)


def test_tail_survival_requires_events():
    with pytest.raises(InsufficientBlocksError):
        estimators.tail_survival([5] * 50, [False] * 50)


def test_speed_curve_endpoints(tmp_path):
    run_experiment(parse_config({
        "experiment": "speed-curve", "seed": 9, "horizon": 400, "replicas": 8,
        "params": {"p_grid": [0.0, 1.0]}, "out": str(tmp_path)}))
    pts = [estimators.SpeedCurvePoint(**pt) for pt in
           json.loads((tmp_path / "summary.json").read_text())["points"]]
    # at p=0 only the 1/N alternation artifact remains
    assert pts[0].v_hat <= 1 / 400 + 1e-12
    assert 0.15 < pts[1].v_hat < 0.35
    assert all(p.v_hat <= p.p + 3 * p.stderr for p in pts if p.p > 0)
