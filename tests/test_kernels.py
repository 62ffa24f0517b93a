import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from tbrw import _kernels, couplings, engine, experiments, schedules
from tbrw.config import parse_config
from tbrw.experiments import run_experiment

from oracles import reference_walk


def _kernel_args(horizon, p, seed):
    rng = np.random.default_rng(seed)
    xi = np.zeros(horizon + 1, dtype=np.int64)
    xi[1:] = (rng.random(horizon) < p).astype(np.int64)
    jump_u = rng.random(horizon + 1)
    total = 2 + int(xi.sum())
    parent = np.full(total, -1, dtype=np.int64)
    depth = np.zeros(total, dtype=np.int64)
    birth = np.zeros(total, dtype=np.int64)
    first = np.full(total, -1, dtype=np.int64)
    sib = np.full(total, -1, dtype=np.int64)
    last = np.full(total, -1, dtype=np.int64)
    nch = np.zeros(total, dtype=np.int64)
    parent[1] = 0
    depth[1] = 1
    first[0] = last[0] = 1
    nch[0] = 1
    pos_arr = np.zeros(horizon + 1, dtype=np.int64)
    dep_arr = np.zeros(horizon + 1, dtype=np.int64)
    flags = np.zeros(horizon + 1, dtype=np.bool_)
    return [parent, depth, birth, first, sib, last, nch, 2, 1, xi, jump_u,
            pos_arr, dep_arr, flags]


def _engine_args(initial, schedule, horizon, seed):
    # the arena engine.run_arrays builds, on the stream engine.run draws
    state = engine.make_initial(initial)
    rng = np.random.default_rng(seed)
    xi, _ = schedule.sample_array(horizon, rng)
    jump_u = rng.random(horizon + 1)
    arrays = engine._state_to_arrays(state, state.tree.node_count + int(xi.sum()))
    return [*arrays, state.tree.node_count, state.position, xi, jump_u,
            np.zeros(horizon + 1, dtype=np.int64),
            np.zeros(horizon + 1, dtype=np.int64),
            np.zeros(horizon + 1, dtype=np.bool_)]


def _isolated_args():
    args = _kernel_args(3, 0.0, 0)
    # single vertex, no neighbors: node arrays describe one root, walker on it
    for i, value in enumerate((-1, 0, 0, -1, -1, -1, 0)):
        args[i] = np.array([value], dtype=np.int64)
    args[7] = 1
    args[8] = 0
    return args


def _outputs(fn, args):
    return fn(*args), [a.copy() for a in args if isinstance(a, np.ndarray)]


def _c_backend(kernel="simulate"):
    # a silent fallback to the Python loop must not pass where gcc exists
    fn = _kernels.available_backends(kernel).get("c")
    if fn is None:
        assert shutil.which("gcc") is None, \
            f"gcc is on PATH but the C kernel is missing: {_kernels.FALLBACK_REASON}"
        pytest.skip(f"no C backend: {_kernels.FALLBACK_REASON}")
    return fn


LAWS = {
    "bernoulli": schedules.bernoulli(0.6),
    "0-1-3": schedules.iid(schedules.LeafLaw((0, 1, 3), (0.25, 0.25, 0.5))),
    "decaying": schedules.decaying(0.75),
}
INITIALS = ["edge", "vertex",
            {"parents": [None, 0, 0, 1, 1, 2], "walker": 4},
            {"parents": [None, 0, 1, 2], "walker": 0}]


def test_backends_bit_identical():
    c_fn = _c_backend()
    for law in LAWS.values():
        for seed in range(25):
            for initial in INITIALS:
                for horizon in (1, 2, 37, 400):
                    ref = _outputs(_kernels._simulate_python,
                                   _engine_args(initial, law, horizon, seed))
                    got = _outputs(c_fn, _engine_args(initial, law, horizon, seed))
                    assert got[0] == ref[0]
                    for a, b in zip(got[1], ref[1]):
                        assert np.array_equal(a, b), (law, seed, initial, horizon)


def test_backend_flag_reports():
    backends = _kernels.available_backends()
    assert _kernels.BACKEND in ("c", "python")
    assert set(backends) == {"python", _kernels.BACKEND}
    assert backends[_kernels.BACKEND] is _kernels.simulate_loop
    grand = _kernels.available_backends("grand")
    assert set(grand) == set(backends)
    assert grand[_kernels.BACKEND] is _kernels.grand_loop
    batch = _kernels.available_backends("batch")
    assert set(batch) == set(backends)
    assert batch[_kernels.BACKEND] is _kernels.simulate_batch
    assert (_kernels.FALLBACK_REASON is None) == (_kernels.BACKEND == "c")


def test_isolated_walker_flagged():
    for fn in _kernels.available_backends().values():
        args = _isolated_args()
        assert fn(*args) == -1
        assert args[11][0] == 0 and args[12][0] == 0 and not args[13][0]


def _bad(i, value):
    def mutate(args):
        args[i] = value(args[i]) if callable(value) else value
    return mutate


BAD_INPUTS = {
    "node dtype int32": _bad(0, lambda a: a.astype(np.int32)),
    "node array not contiguous": _bad(3, lambda a: np.repeat(a, 2)[::2]),
    "node array read-only": _bad(6, lambda a: np.frombuffer(a.tobytes(), np.int64)),
    "node array 2-d": _bad(1, lambda a: a.reshape(1, -1)),
    "node array a list": _bad(2, lambda a: a.tolist()),
    "node arrays too short": _bad(4, lambda a: a[:-1].copy()),
    "xi dtype float": _bad(9, lambda a: a.astype(np.float64)),
    "jump_u dtype float32": _bad(10, lambda a: a.astype(np.float32)),
    "leaf_flags dtype uint8": _bad(13, lambda a: a.astype(np.uint8)),
    "positions too short": _bad(11, lambda a: a[:-1].copy()),
    "depths too long": _bad(12, lambda a: np.zeros(len(a) + 1, np.int64)),
    "jump_u too short": _bad(10, lambda a: a[:-1].copy()),
    "pos negative": _bad(8, -1),
    "pos past the nodes": _bad(8, 2),
    "n_nodes past the arena": _bad(7, 10_000),
    "xi negative": _bad(9, lambda a: np.where(np.arange(len(a)) == 3, -1, a)),
    "xi too large": _bad(9, lambda a: a + 1),
    "xi sum wraps around": _bad(9, lambda a: np.where(
        (np.arange(len(a)) >= 1) & (np.arange(len(a)) <= 4), 2 ** 62, a)),
    "jump_u equal to 1": _bad(10, lambda a: np.where(np.arange(len(a)) == 5, 1.0, a)),
    "jump_u negative": _bad(10, lambda a: -a),
    "jump_u NaN": _bad(10, lambda a: np.where(np.arange(len(a)) == 2, np.nan, a)),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_c_wrapper_rejects_bad_input_before_the_call(case, monkeypatch):
    c_fn = _c_backend()
    assert c_fn(*_kernel_args(40, 0.5, 1)) >= 2  # the unmodified input runs

    def must_not_run(*a):
        raise AssertionError("C was called")

    monkeypatch.setattr(_kernels, "_c_simulate", must_not_run)
    args = _kernel_args(40, 0.5, 1)
    BAD_INPUTS[case](args)
    with pytest.raises(ValueError):
        c_fn(*args)


def test_c_loop_rejects_links_to_missing_nodes():
    c_fn = _c_backend()
    args = _isolated_args()
    args[3][0] = args[5][0] = 5  # the root's child "5" does not exist
    args[6][0] = 1
    with pytest.raises(ValueError, match="link"):
        c_fn(*args)
    args = _kernel_args(40, 0.5, 1)
    c_fn(*args)
    with pytest.raises(ValueError, match="link"):
        c_fn(*args)  # the arena now links to nodes the rerun has not made


# -- the batch loop


def _assert_rows_match_run(batch, initial, law, horizon, seeds):
    for r, seed in enumerate(seeds):
        try:
            traj = engine.run(initial, law, horizon, seed)
        except engine.SimulationError:
            assert batch.node_count[r] == -1, (initial, horizon, seed)
            continue
        assert batch.node_count[r] == traj.final_size, (initial, horizon, seed)
        assert np.array_equal(batch.positions[r], traj.positions)
        assert np.array_equal(batch.depths[r], traj.depths)
        assert np.array_equal(batch.leaf_at_arrival[r], traj.leaf_at_arrival)
        assert np.array_equal(batch.xi[r], traj.xi)


def test_run_batch_matches_run(monkeypatch):
    # row r of run_batch is engine.run with seeds[r], on both batch loops;
    # from the vertex some walkers are isolated, which marks only their row
    backends = {"python": _kernels._simulate_batch_python,
                "c": _c_backend("batch")}
    seeds = list(range(25))
    for name, fn in backends.items():
        monkeypatch.setattr(_kernels, "simulate_batch", fn)
        for law in LAWS.values():
            for initial in INITIALS[:3]:
                for horizon in (1, 2, 37, 400):
                    batch = engine.run_batch(initial, law, horizon, seeds)
                    assert batch.positions.shape == (25, horizon + 1)
                    _assert_rows_match_run(batch, initial, law, horizon, seeds)
        assert engine.run_batch("vertex", LAWS["bernoulli"], 5,
                                seeds).isolated.any()

    # enough replicas that _chunks cuts them by STEP_BUDGET, not by worker
    # (on the C loop: the Python loop would take some 15 s)
    horizon, law = 400, LAWS["0-1-3"]
    per_chunk = experiments.STEP_BUDGET // (horizon + 1)
    n = 4 * per_chunk + 3
    bounds = experiments._chunks(n, horizon, 1)
    assert len(bounds) == 5 and bounds[0] == (0, per_chunk)
    seeds = [experiments.derive_seed(11, "renewal-stats", r, "run")
             for r in range(n)]
    for lo, hi in bounds:
        batch = engine.run_batch("edge", law, horizon, seeds[lo:hi])
        _assert_rows_match_run(batch, "edge", law, horizon, seeds[lo:hi])


def _batch_args(rows=6, horizon=30, seed=2):
    batch = engine.run_batch("edge", LAWS["0-1-3"], horizon,
                             list(range(seed, seed + rows)))
    rng = np.random.default_rng(seed)
    tree = np.array(engine.make_initial("edge").tree.arrays())
    capacity = 2 + int(batch.xi.sum(axis=1).max())
    return [np.empty((7, capacity), dtype=np.int64), tree, 1, batch.xi,
            rng.random(batch.xi.shape), np.zeros_like(batch.positions),
            np.zeros_like(batch.depths), np.zeros_like(batch.leaf_at_arrival),
            np.zeros(rows, dtype=np.int64)]


BATCH_BAD_INPUTS = {
    "arena int32": _bad(0, lambda a: a.astype(np.int32)),
    "arena read-only": _bad(0, lambda a: np.frombuffer(
        a.tobytes(), np.int64).reshape(a.shape)),
    "arena too narrow": _bad(0, lambda a: a[:, :-1].copy()),
    "arena 1-d": _bad(0, lambda a: a.ravel()),
    "arena six node arrays": _bad(0, lambda a: a[:6].copy()),
    "tree not contiguous": _bad(1, lambda a: np.repeat(a, 2, axis=1)[:, ::2]),
    "tree a list": _bad(1, lambda a: a.tolist()),
    "pos past the tree": _bad(2, 2),
    "pos negative": _bad(2, -1),
    "xi 1-d": _bad(3, lambda a: a[0].copy()),
    "xi dtype float": _bad(3, lambda a: a.astype(np.float64)),
    "xi negative": _bad(3, lambda a: np.where(a == a.max(), -1, a)),
    "xi a row past the capacity": _bad(3, lambda a: a + (np.arange(
        len(a)) == 4)[:, None]),
    "xi sum wraps around": _bad(3, lambda a: np.where(
        (np.arange(a.shape[1]) >= 1) & (np.arange(a.shape[1]) <= 4), 2 ** 62, a)),
    "jump_u one row short": _bad(4, lambda a: a[:-1].copy()),
    "jump_u equal to 1": _bad(4, lambda a: np.where(a == a.max(), 1.0, a)),
    "jump_u NaN": _bad(4, lambda a: np.where(a == a.min(), np.nan, a)),
    "positions one column short": _bad(5, lambda a: a[:, :-1].copy()),
    "depths dtype int32": _bad(6, lambda a: a.astype(np.int32)),
    "leaf_flags dtype uint8": _bad(7, lambda a: a.astype(np.uint8)),
    "finals one short": _bad(8, lambda a: a[:-1].copy()),
}


@pytest.mark.parametrize("case", sorted(BATCH_BAD_INPUTS))
def test_c_batch_wrapper_rejects_bad_input_before_the_call(case, monkeypatch):
    c_fn = _c_backend("batch")
    args = _batch_args()
    c_fn(*args)  # the unmodified input runs
    assert (args[8] > 2).all()
    args = _batch_args()
    BATCH_BAD_INPUTS[case](args)

    def must_not_run(*a):
        raise AssertionError("C was called")

    monkeypatch.setattr(_kernels, "_c_simulate_batch", must_not_run)
    with pytest.raises(ValueError):
        c_fn(*args)


def test_c_batch_rejects_links_to_missing_nodes():
    c_fn = _c_backend("batch")
    args = _batch_args()
    args[1][3, 0] = args[1][5, 0] = 9  # the root's first child "9"
    with pytest.raises(ValueError, match="link"):
        c_fn(*args)


FALLBACK_CONFIGS = {
    "simulate": {"experiment": "simulate", "seed": 3, "horizon": 300,
                 "schedule": {"kind": "bernoulli", "p": 0.5}},
    "renewal-stats": {"experiment": "renewal-stats", "seed": 3,
                      "horizon": 100, "replicas": 30, "workers": 2,
                      "schedule": {"kind": "iid", "support": [0, 1, 3],
                                   "probs": [0.5, 0.3, 0.2]}},
    "coupling-grand": {"experiment": "coupling-grand", "seed": 3,
                       "horizon": 40, "replicas": 3,
                       "params": {"coalescence": {"p": 0.5, "q": 0.6, "n": 10},
                                  "marginal": {"p": 0.5, "steps": 40,
                                               "replicas": 3}}},
}


def test_python_fallback_without_gcc(tmp_path):
    # a copy of the package with no build cache and gcc hidden from PATH runs
    # the CLI on the Python loops, says why, and writes the same artifacts
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    shutil.copytree(os.path.join(src, "tbrw"), tmp_path / "tbrw",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PATH=str(tmp_path / "no-bin"),
               PYTHONPATH=str(tmp_path))
    for name, config in FALLBACK_CONFIGS.items():
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        subprocess.run([sys.executable, "-m", "tbrw.cli", name, "--config",
                        str(tmp_path / "cfg.json"), "--out",
                        str(tmp_path / name / "py")],
                       env=env, check=True, capture_output=True, timeout=120)
        assert not list((tmp_path / "tbrw").rglob("*.so"))
        manifest = json.loads(
            (tmp_path / name / "py" / "manifest.json").read_text())
        assert manifest["backend"] == "python"
        assert manifest["fallback_reason"] == "gcc not found on PATH"

        here = tmp_path / name / "here"
        run_experiment(parse_config({**config, "out": str(here)}))
        for output in manifest["outputs"]:
            assert (tmp_path / name / "py" / output).read_bytes() == \
                (here / output).read_bytes(), (name, output)


def test_engine_matches_stepwise_reference():
    # run_arrays against an independent dict-based stepper on shared draws
    for seed in range(30):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(1, 80))
        xi = np.zeros(horizon + 1, dtype=np.int64)
        xi[1:] = rng.integers(0, 3, size=horizon)
        ju = rng.random(horizon + 1)
        traj = engine.run_arrays("edge", xi, ju)
        positions, depths, _ = reference_walk([None, 0], 1, xi, ju)
        assert traj.depths.tolist() == depths
        assert traj.positions.tolist() == positions


# -- the grand swarm loop


def _grand_stream(horizon, seed):
    # what grand_run draws: one U and n + 1 jumps at step n, plus spare
    rng = np.random.default_rng(seed)
    return rng.random(horizon * (horizon + 5) // 2 + 8)


def _grand_args(horizon, stream, initial="edge"):
    return couplings.grand_arrays(engine.make_initial(initial), horizon, stream)


def test_grand_backends_bit_identical():
    c_fn = _c_backend("grand")
    for seed in range(25):
        for horizon in (1, 2, 37, 200):
            stream = _grand_stream(horizon, seed)
            ref = _outputs(_kernels._grand_python, _grand_args(horizon, stream))
            got = _outputs(c_fn, _grand_args(horizon, stream))
            assert got[0] == ref[0] > 0
            for a, b in zip(got[1], ref[1]):
                assert np.array_equal(a, b), (seed, horizon)


def _with_redraws(stream, redraws):
    """``stream`` with ``redraws[n]`` inserted before step n's U."""
    out, at = list(stream), 0
    for n in range(1, max(redraws) + 1):
        if n in redraws:
            out[at:at] = redraws[n]
            at += len(redraws[n])
        at += n + 2  # U, then n + 1 jumps
    return np.array(out)


def test_grand_backends_redraw_zero_and_duplicate_u():
    # a U equal to 0 or to an earlier cut is skipped: with such values
    # inserted, both backends give the arrays of the plain stream
    horizon = 30
    stream = _grand_stream(horizon, 4)
    u = [stream[(n - 1) * (n + 4) // 2] for n in range(1, horizon + 1)]
    forced = _with_redraws(stream, {1: [0.0], 2: [u[0]],
                                    12: [u[4], 0.0, u[10]], 30: [u[28]]})
    final, ref = _outputs(_kernels._grand_python, _grand_args(horizon, stream))
    del ref[7]  # the stream
    assert ref[7].tolist() == u  # the uniforms
    for fn in _kernels.available_backends("grand").values():
        got = _outputs(fn, _grand_args(horizon, forced))
        del got[1][7]
        assert got[0] == final
        for a, b in zip(got[1], ref):
            assert np.array_equal(a, b)
        # the run takes every value but the 8 spare ones; one fewer is
        # reported as a stream that runs out
        used = len(forced) - 8
        assert fn(*_grand_args(horizon, forced[:used])) == final
        assert fn(*_grand_args(horizon, forced[:used - 1])) == -3


def test_grand_ball_without_eligible_neighbor():
    # from a single vertex, step 1 hangs [U, 1] below the root, and ball
    # [0, U] on the root has no neighbor whose label holds it
    for fn in _kernels.available_backends("grand").values():
        assert fn(*_grand_args(3, _grand_stream(3, 0), "vertex")) == -1
    with pytest.raises(engine.SimulationError):
        couplings.grand_run("vertex", 3, 0)


def test_grand_run_redraws_a_short_stream(monkeypatch):
    # a stream that runs out is drawn again, longer, from the same seed
    expected = couplings.grand_run("edge", 25, 6).events
    lengths = []

    def runs_short_once(*args):
        lengths.append(len(args[10]))
        return -3 if len(lengths) == 1 else _kernels._grand_python(*args)

    monkeypatch.setattr(_kernels, "grand_loop", runs_short_once)
    assert couplings.grand_run("edge", 25, 6).events == expected
    assert lengths[1] == 2 * lengths[0]


GRAND_BAD_INPUTS = {
    "node dtype int32": _bad(0, lambda a: a.astype(np.int32)),
    "node array read-only": _bad(6, lambda a: np.frombuffer(a.tobytes(), np.int64)),
    "node array not contiguous": _bad(3, lambda a: np.repeat(a, 2)[::2]),
    "node arrays too short": _bad(4, lambda a: a[:-1].copy()),
    "n_nodes past the arena": _bad(7, 10_000),
    "pos negative": _bad(8, -1),
    "pos past the nodes": _bad(8, 2),
    "horizon negative": _bad(9, -1),
    "horizon past the capacities": _bad(9, lambda h: h + 1),
    "stream dtype float32": _bad(10, lambda a: a.astype(np.float32)),
    "stream 2-d": _bad(10, lambda a: a.reshape(1, -1)),
    "stream equal to 1": _bad(10, lambda a: np.where(np.arange(len(a)) == 7, 1.0, a)),
    "stream negative": _bad(10, lambda a: -a),
    "stream NaN": _bad(10, lambda a: np.where(np.arange(len(a)) == 3, np.nan, a)),
    "uniforms too long": _bad(11, lambda a: np.zeros(len(a) + 1)),
    "label_start too short": _bad(12, lambda a: a[:-1].copy()),
    "label_lo too short": _bad(13, lambda a: a[:-1].copy()),
    "label_hi dtype float32": _bad(14, lambda a: a.astype(np.float32)),
    "ball_steps too short": _bad(15, lambda a: a[:-1].copy()),
    "ball_steps a list": _bad(15, lambda a: a.tolist()),
}


@pytest.mark.parametrize("case", sorted(GRAND_BAD_INPUTS))
def test_c_grand_wrapper_rejects_bad_input_before_the_call(case, monkeypatch):
    c_fn = _c_backend("grand")
    assert c_fn(*_grand_args(20, _grand_stream(20, 1))) > 2  # unmodified runs

    def must_not_run(*a):
        raise AssertionError("C was called")

    monkeypatch.setattr(_kernels, "_c_grand", must_not_run)
    args = _grand_args(20, _grand_stream(20, 1))
    GRAND_BAD_INPUTS[case](args)
    with pytest.raises(ValueError):
        c_fn(*args)


def test_c_grand_rejects_links_to_missing_nodes():
    c_fn = _c_backend("grand")
    args = _grand_args(5, _grand_stream(5, 2))
    args[3][1] = args[5][1] = 7  # the walker's child "7" does not exist yet
    args[6][1] = 1
    with pytest.raises(ValueError, match="link"):
        c_fn(*args)
