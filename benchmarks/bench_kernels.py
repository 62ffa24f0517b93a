"""Benchmark the simulation kernel backends.

Runs the same seeded workloads through the C loops (``c``, built by gcc when
``tbrw`` is imported) and the step-by-step Python loops (``python``),
verifies they produce identical outputs, and prints throughput tables: the
walk's step loop on one long walk, then ``couplings.grand_run`` (the grand
coupling's swarm) at each grand horizon, the Python loop only up to
horizon 800.  A last table times short replicas on the active backend: one
``engine.run_batch`` call against one ``engine.run`` per replica, whose
rows must agree.

Usage: python benchmarks/bench_kernels.py [--horizon N] [--repeat K]
"""

import argparse
import dataclasses
import time

import numpy as np

from tbrw import _kernels, couplings, engine, schedules

GRAND_HORIZONS = (200, 800, 2000)
PYTHON_GRAND_MAX = 800
# the short replicas of the batch table, and their leaf law
BATCH_REPLICAS, BATCH_HORIZON = 10_000, 100
BATCH_LAW = schedules.iid(schedules.LeafLaw((0, 1, 3), (0.5, 0.3, 0.2)))


def build_args(horizon: int, p: float, seed: int):
    state = engine.make_initial("edge")
    rng = np.random.default_rng(seed)
    xi, _ = schedules.bernoulli(p).sample_array(horizon, rng)
    jump_u = rng.random(horizon + 1)
    total = state.tree.node_count + int(xi.sum())
    arrays = engine._state_to_arrays(state, total)
    positions = np.zeros(horizon + 1, dtype=np.int64)
    depths = np.zeros(horizon + 1, dtype=np.int64)
    flags = np.zeros(horizon + 1, dtype=np.bool_)
    return [*arrays, state.tree.node_count, state.position, xi, jump_u,
            positions, depths, flags]


def bench_grand(repeat: int) -> None:
    """Time ``grand_run("edge", horizon, 1)`` per backend; the runs of one
    horizon must agree on every array."""
    active = _kernels.grand_loop
    print(f"\ngrand_run, seed 1 (best of {repeat}):")
    print(f"{'horizon':>8} {'backend':<10} {'seconds':>10} {'nodes':>10}")
    try:
        for horizon in GRAND_HORIZONS:
            reference = None
            for name, fn in _kernels.available_backends("grand").items():
                if name == "python" and horizon > PYTHON_GRAND_MAX:
                    continue
                _kernels.grand_loop = fn
                best = float("inf")
                for _ in range(repeat):
                    t0 = time.perf_counter()
                    grand = couplings.grand_run("edge", horizon, 1)
                    best = min(best, time.perf_counter() - t0)
                arrays = [getattr(grand, f.name)
                          for f in dataclasses.fields(grand)]
                if reference is None:
                    reference = arrays
                else:
                    assert all(np.array_equal(a, b)
                               for a, b in zip(arrays, reference)), \
                        f"backends disagree on grand_run at horizon {horizon}"
                print(f"{horizon:>8} {name:<10} {best:>10.3f} "
                      f"{grand.n_nodes:>10,}")
    finally:
        _kernels.grand_loop = active


def bench_batch(repeat: int) -> None:
    """Time ``BATCH_REPLICAS`` replicas of ``BATCH_HORIZON`` steps as one
    ``run_batch`` and as one ``run`` each; every row must equal its run."""
    seeds = list(range(BATCH_REPLICAS))
    timings = {"run_batch": float("inf"), "run": float("inf")}
    for _ in range(repeat):
        t0 = time.perf_counter()
        batch = engine.run_batch("edge", BATCH_LAW, BATCH_HORIZON, seeds)
        timings["run_batch"] = min(timings["run_batch"],
                                   time.perf_counter() - t0)
        t0 = time.perf_counter()
        runs = [engine.run("edge", BATCH_LAW, BATCH_HORIZON, s) for s in seeds]
        timings["run"] = min(timings["run"], time.perf_counter() - t0)
    for r, traj in enumerate(runs):
        assert (np.array_equal(batch.positions[r], traj.positions)
                and np.array_equal(batch.depths[r], traj.depths)
                and np.array_equal(batch.leaf_at_arrival[r],
                                   traj.leaf_at_arrival)
                and batch.node_count[r] == traj.final_size), \
            f"run_batch row {r} differs from run"
    print(f"\n{BATCH_REPLICAS:,} replicas x {BATCH_HORIZON} steps of the "
          f"{{0,1,3}} law on {_kernels.BACKEND} (best of {repeat}):")
    print(f"{'path':<10} {'seconds':>10} {'us/replica':>11}")
    for name, secs in timings.items():
        print(f"{name:<10} {secs:>10.3f} {secs / BATCH_REPLICAS * 1e6:>11.1f}")
    print(f"\nspeedup: {timings['run'] / timings['run_batch']:.1f}x "
          "(rows bit-identical)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=2_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--p", type=float, default=0.5)
    opts = parser.parse_args()

    backends = _kernels.available_backends()
    print(f"active backend: {_kernels.BACKEND}; "
          f"available: {', '.join(backends)}")

    # warm-up: first calls page in the library and numpy's code paths
    for fn in backends.values():
        fn(*build_args(1000, opts.p, 0))

    reference = None
    rows = []
    for name, fn in backends.items():
        best = float("inf")
        for k in range(opts.repeat):
            args = build_args(opts.horizon, opts.p, seed=1)
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        depths = args[12]
        if reference is None:
            reference = depths.copy()
        else:
            assert np.array_equal(depths, reference), \
                "backends disagree on the same seeded workload"
        rows.append((name, best, opts.horizon / best / 1e6))

    print(f"\nhorizon {opts.horizon:,} steps at p={opts.p} "
          f"(best of {opts.repeat}):")
    print(f"{'backend':<10} {'seconds':>10} {'Msteps/s':>10}")
    for name, secs, rate in rows:
        print(f"{name:<10} {secs:>10.3f} {rate:>10.1f}")
    if len(rows) == 2:
        slow = max(r[1] for r in rows)
        fast = min(r[1] for r in rows)
        print(f"\nspeedup: {slow / fast:.1f}x (outputs bit-identical)")
    bench_grand(opts.repeat)
    bench_batch(opts.repeat)


if __name__ == "__main__":
    main()
