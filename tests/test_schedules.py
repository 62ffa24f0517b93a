import numpy as np
import pytest

from tbrw import schedules
from tbrw.schedules import LeafLaw, ScheduleError

from oracles import decaying_count_sd, decaying_expected_count


def test_law_validation():
    with pytest.raises(ScheduleError):
        LeafLaw(support=(0, 1), probs=(0.5, 0.6))
    with pytest.raises(ScheduleError):
        LeafLaw(support=(1, 0), probs=(0.5, 0.5))
    with pytest.raises(ScheduleError):
        LeafLaw(support=(-1, 0), probs=(0.5, 0.5))
    with pytest.raises(ScheduleError):
        LeafLaw(support=(0,), probs=(0.5, 0.5))


def test_positive_mass_exact():
    assert LeafLaw.delta(0).positive_mass == 0.0
    assert LeafLaw.bernoulli(0.3).positive_mass == 0.3
    law = LeafLaw(support=(0, 2), probs=(0.5, 0.5))
    assert law.positive_mass == 0.5
    # exactly 1 - P(0), no float drift
    assert law.positive_mass == 1.0 - law.pmf(0)


def test_iid_delta_draws(rng):
    xi, extras = schedules.iid(LeafLaw.delta(0)).sample_array(1000, rng)
    assert xi.sum() == 0
    assert extras == {}


def test_iid_bernoulli_mean(rng):
    xi, _ = schedules.bernoulli(0.3).sample_array(100_000, rng)
    assert abs(xi[1:].mean() - 0.3) < 0.01


def test_iid_two_point_support(rng):
    law = LeafLaw(support=(0, 2), probs=(0.5, 0.5))
    xi, _ = schedules.iid(law).sample_array(100_000, rng)
    assert set(np.unique(xi)) <= {0, 2}
    assert abs((xi[1:] == 2).mean() - 0.5) < 0.01


@pytest.mark.parametrize("support, p0", [
    ((0, 1), 0.5), ((0, 1), 0.7), ((0, 1), 1e-9), ((0, 1), 1 - 1e-9),
    ((0, 1), 0.1 + 0.2), ((2, 7), 0.35), ((0, 1), 0.0), ((0, 1), 1.0)])
def test_two_point_sample_matches_searchsorted(support, p0):
    # the u >= probs[0] fast path against the general inverse-CDF lookup
    law = LeafLaw(support=support, probs=(p0, 1.0 - p0))
    for size in (0, 1, 7, 100_000):
        got = law.sample(np.random.default_rng(size), size)
        u = np.random.default_rng(size).random(size)
        idx = np.minimum(np.searchsorted(np.cumsum(law.probs), u, side="right"), 1)
        want = np.asarray(law.support, dtype=np.int64)[idx]
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_iid_independence_factorizes(rng):
    xi, _ = schedules.bernoulli(0.5).sample_array(200_000, rng)
    a, b = xi[1:-1], xi[2:]
    joint = ((a == 1) & (b == 1)).mean()
    assert abs(joint - a.mean() * b.mean()) < 0.01


def test_decaying_step_probabilities():
    assert schedules.decaying(1.0).step_probability(4) == 0.25
    assert schedules.decaying(0.75).step_probability(16) == 0.125
    with pytest.raises(ScheduleError):
        schedules.decaying(0.0)


def test_decaying_expected_count(rng):
    gamma, horizon = 0.75, 20_000
    xi, _ = schedules.decaying(gamma).sample_array(horizon, rng)
    expect = decaying_expected_count(gamma, horizon)
    sd = decaying_count_sd(gamma, horizon)
    assert abs(xi.sum() - expect) < 3 * sd


def test_converging_constant_after_switch(rng):
    sched = schedules.converging(LeafLaw.bernoulli(0.5),
                                 LeafLaw(support=(1, 2), probs=(0.5, 0.5)),
                                 switch_step=50)
    xi, extras = sched.sample_array(500, rng)
    k = extras["realized_limit"]
    assert k in (1, 2)
    assert extras["switch_step"] == 50
    assert (xi[50:] == k).all()


def test_converging_degenerate_is_point_mass(rng):
    sched = schedules.converging(LeafLaw.delta(1), LeafLaw.delta(1), switch_step=1)
    xi, extras = sched.sample_array(100, rng)
    assert (xi[1:] == 1).all()
    assert extras["realized_limit"] == 1


def test_converging_limit_split():
    sched = schedules.converging(LeafLaw.bernoulli(0.5),
                                 LeafLaw(support=(1, 2), probs=(0.5, 0.5)),
                                 switch_step=10)
    limits = []
    for seed in range(4000):
        _, extras = sched.sample_array(12, np.random.default_rng(seed))
        limits.append(extras["realized_limit"])
    frac = np.mean([k == 1 for k in limits])
    assert abs(frac - 0.5) < 3 * 0.5 / np.sqrt(len(limits))


def test_alternating_blocks_and_means(rng):
    sched = schedules.AlternatingSchedule(p_slow=0.2, p_fast=0.9,
                                          checkpoints=(100, 300, 1200))
    xi, _ = sched.sample_array(2000, rng)
    segments = [(1, 100, 0.2), (101, 300, 0.9), (301, 1200, 0.2),
                (1201, 2000, 0.9)]
    for lo, hi, p in segments:
        block = xi[lo:hi + 1]
        se = np.sqrt(p * (1 - p) / len(block))
        assert abs(block.mean() - p) < 3 * se, (lo, hi, p, block.mean())


def test_alternating_checkpoints_increasing():
    with pytest.raises(ScheduleError):
        schedules.AlternatingSchedule(p_slow=0.1, p_fast=0.9,
                                      checkpoints=(10, 10))


def test_descriptor_round_trips(rng):
    cases = [
        schedules.bernoulli(0.25),
        schedules.iid(LeafLaw(support=(0, 3), probs=(0.75, 0.25))),
        schedules.decaying(0.8),
        schedules.converging(LeafLaw.bernoulli(0.4), LeafLaw.delta(2), 7),
        schedules.AlternatingSchedule(0.2, 0.9, (5, 11)),
    ]
    for sched in cases:
        desc = sched.descriptor()
        again = schedules.schedule_from_json(desc)
        assert again.descriptor() == desc
        xi1, _ = sched.sample_array(50, np.random.default_rng(1))
        xi2, _ = again.sample_array(50, np.random.default_rng(1))
        assert np.array_equal(xi1, xi2)


def test_build_alternating_single_block():
    pilot = schedules.PilotConfig(replicas=12, seed=5, reference_horizon=1500,
                                  step_budget=200_000)
    sched, ck = schedules.build_alternating(0.2, 0.9, 1, pilot)
    assert len(ck) == 1
    assert sched.checkpoints == (ck[0],)
    # single block: schedule is plain Ber(p) up to the checkpoint
    xi, _ = sched.sample_array(ck[0], np.random.default_rng(0))
    p_arr = sched.step_probabilities(ck[0])
    assert (p_arr[1:] == 0.2).all()
    assert xi[1:].mean() < 0.35


def test_build_alternating_growth_constraint():
    pilot = schedules.PilotConfig(replicas=12, seed=6, reference_horizon=1500,
                                  step_budget=500_000)
    sched, ck = schedules.build_alternating(0.2, 0.9, 3, pilot)
    assert len(ck) == 3
    for j, (a, b) in enumerate(zip(ck, ck[1:]), start=2):
        assert b >= j * a, f"k_{j} = {b} violates growth over {a}"


def test_bad_alternating_params():
    with pytest.raises(ScheduleError):
        schedules.build_alternating(0.9, 0.2, 2)
    with pytest.raises(ScheduleError):
        schedules.build_alternating(0.2, 0.9, 0)
