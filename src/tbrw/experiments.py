"""Experiment runners: seeded parallel replicas, aggregation, file emission.

Every experiment is a pure function of (config, master seed): replica streams
are derived per index, aggregation is order-independent, and all CSV/JSON
outputs are byte-identical across reruns and across worker counts.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy import stats

from . import _kernels, couplings, engine, estimators, schedules, stopping
from .config import LIL_N_MIN, ExperimentConfig, RunManifest, derive_seed


class ExperimentError(RuntimeError):
    pass


class ReplicaError(ExperimentError):
    def __init__(self, failures):
        self.failures = failures
        lines = "; ".join(f"replica {i}: {msg}" for i, msg in failures[:5])
        super().__init__(f"{len(failures)} replica(s) failed: {lines}")


def _map_replicas(fn: Callable, args_list: Sequence, workers: int) -> List:
    """Run one task per argument tuple; failures are collected per index.

    A pool receives the tasks in contiguous chunks of ceil(n / (4 workers))
    indices, so its per-submission cost is paid per chunk, not per replica.
    """
    if workers <= 1 or len(args_list) <= 1:
        results = [_safe_call(fn, a) for a in args_list]
    else:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        ctx = mp.get_context("fork")
        chunk = math.ceil(len(args_list) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
            results = list(ex.map(_safe_call, itertools.repeat(fn), args_list,
                                  chunksize=chunk))
    failures = [(i, msg) for i, (ok, msg) in enumerate(results) if not ok]
    if failures:
        raise ReplicaError(failures)
    return [payload for _, payload in results]


def _safe_call(fn, args):
    try:
        return True, fn(args)
    except Exception as exc:  # noqa: BLE001
        return False, f"{type(exc).__name__}: {exc}"


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


# stream role of the replica seeds, "run" unless listed; speed-curve and
# counterexample derive theirs per p and per phase instead (see _run_seeds)
_SEED_ROLES = {"coupling-grand": "grand", "coupling-tv": "pair",
               "coupling-monotone": "pair"}


def _seed(cfg: ExperimentConfig, replica: int, role: str) -> int:
    return derive_seed(cfg.master_seed, cfg.experiment, replica, role)


def _replica_seed(cfg: ExperimentConfig, replica: int) -> int:
    return _seed(cfg, replica, _SEED_ROLES.get(cfg.experiment, "run"))


def _p_role(p: float) -> str:
    return f"p={p!r}"


def _run_seeds(cfg: ExperimentConfig):
    """Every replica seed the runner derives, in the order RunManifest states."""
    if cfg.experiment == "speed-curve":
        return (_seed(cfg, r, _p_role(p))
                for p in map(float, cfg.params.get("p_grid") or [])
                for r in range(cfg.replicas))
    if cfg.experiment == "counterexample":
        evals = int(cfg.params.get("eval_replicas", 100))
        return itertools.chain([_seed(cfg, 0, "pilot")],
                               (_seed(cfg, r, "eval") for r in range(evals)))
    replicas = (_replica_seed(cfg, r) for r in range(cfg.replicas))
    marginal = cfg.params.get("marginal")  # null: the block is absent
    if cfg.experiment == "coupling-grand" and marginal is not None:
        walks = int(marginal["replicas"])
        return itertools.chain(replicas,
                               (_seed(cfg, i, "direct") for i in range(walks)))
    return replicas


def _resolve_schedule(cfg: ExperimentConfig, default: Optional[dict] = None):
    desc = cfg.schedule or default
    if desc is None:
        raise ExperimentError(f"experiment {cfg.experiment!r} needs a schedule")
    sched = schedules.schedule_from_json(desc)
    cfg.resolved_schedule = sched.descriptor()
    return sched, desc


# ---------------------------------------------------------------------------
# replica tasks (top level so they pickle under process pools)


def _task_trajectory_stats(args):
    seed, sched_desc, horizon, guard, initial = args
    sched = schedules.schedule_from_json(sched_desc)
    traj = engine.run(initial, sched, horizon, seed)
    record = stopping.detect_renewals(traj, guard)
    out = {
        "final_depth": int(traj.depths[-1]),
        "taus": record.taus.tolist(),
        "tau_depths": record.depths.tolist(),
        "censored": record.censored.tolist(),
        "guard": record.guard,
        "extras": traj.extras,
        # optional diagnostic: the edge-start root is node 0
        "root_return": bool((traj.positions[1:] == 0).any())
        if initial == "edge" else None,
    }
    if record.n_confirmed >= 3:
        out["blocks"] = stopping.renewal_blocks(record, drop_first=True).tolist()
    else:
        out["blocks"] = []
    return out


def _task_final_depth(args):
    seed, p, horizon = args
    traj = engine.run("edge", schedules.bernoulli(p), horizon, seed)
    return int(traj.depths[-1])


def _task_lil_pass2(args):
    seed, sched_desc, horizon, v_hat, sigma_hat, n_min = args
    sched = schedules.schedule_from_json(sched_desc)
    traj = engine.run("edge", sched, horizon, seed)
    curve = estimators.lil_statistic(traj, v_hat, sigma_hat, n_min)
    return float(curve[-1])


def _task_grand(args):
    (seed, horizon, p_grid, coal, marginal_p, marginal_step, want_marginal,
     want_events) = args
    grand = couplings.grand_run("edge", horizon, seed)
    couplings.check_grand_invariants(grand)
    out = {
        "monotone": couplings.vertex_count_monotone(grand, p_grid, horizon),
        "count_at_one": couplings.vertex_count(grand, 1.0, horizon),
        "count_at_zero": couplings.vertex_count(grand, 0.0, horizon),
    }
    if coal is not None:
        p, q, n = coal
        agree = couplings.instances_agree_through(grand, p, q, n)
        sufficient = couplings.no_uniform_between(grand, p, q, n)
        out["coal_agree"] = agree
        out["coal_sufficient"] = sufficient
        out["coal_inclusion_ok"] = agree or not sufficient
    if want_marginal:
        traj = couplings.extract_instance(grand, marginal_p)
        out["marginal_depth"] = int(traj.depths[marginal_step])
    if want_events:
        out["events"] = grand.events
    return out


def _task_tv_pair(args):
    seed, law_a, law_b, horizon, guard = args
    pair = couplings.tv_coupled_run(schedules.LeafLaw.from_dict(law_a),
                                    schedules.LeafLaw.from_dict(law_b),
                                    horizon, seed)
    zeta = pair.split_time
    agree_n = (zeta - 1) if zeta is not None else horizon
    pre_equal = bool(
        np.array_equal(pair.traj_a.positions[:agree_n + 1],
                       pair.traj_b.positions[:agree_n + 1])
        and np.array_equal(pair.traj_a.xi[:agree_n + 1],
                           pair.traj_b.xi[:agree_n + 1]))
    rec_a = stopping.detect_renewals(pair.traj_a, guard)
    rec_b = stopping.detect_renewals(pair.traj_b, guard)
    tau_a = int(rec_a.confirmed_taus[0]) if rec_a.n_confirmed else None
    tau_b = int(rec_b.confirmed_taus[0]) if rec_b.n_confirmed else None
    both_before = (zeta is not None and tau_a is not None and tau_b is not None
                   and max(tau_a, tau_b) < zeta)
    return {"zeta": zeta, "agree_n": agree_n, "pre_equal": pre_equal,
            "tau_a": tau_a, "tau_b": tau_b,
            "both_before_split": both_before,
            "tau_match": (tau_a == tau_b) if both_before else None}


def _task_monotone(args):
    seed, law_d, p_floor, horizon, initial, target = args
    law = schedules.LeafLaw.from_dict(law_d)
    res = couplings.monotone_pair_run(law, p_floor, horizon, seed,
                                      initial=initial)
    lead_hit = bool((res.traj_lead.positions == target).any())
    floor_hit = bool((res.traj_floor.positions == target).any())
    counts = {}
    for v in res.traj_lead.xi[1:]:
        counts[int(v)] = counts.get(int(v), 0) + 1
    return {"lead_hit": lead_hit, "floor_hit": floor_hit,
            "inclusion_ok": floor_hit or not lead_hit,
            "violations": res.label_violations,
            "n_synced": res.n_synced,
            "lead_xi_counts": counts,
            "floor_xi_mean": float(res.floor_xi[1:].mean())}


# ---------------------------------------------------------------------------
# runners


def _run_simulate(cfg: ExperimentConfig, out: str) -> list:
    sched, desc = _resolve_schedule(cfg)
    seed = _replica_seed(cfg, 0)
    traj = engine.run(cfg.params.get("initial", "edge"), sched, cfg.horizon, seed)
    csv_path = os.path.join(out, "trajectory.csv")
    engine.trajectory_to_csv(traj, csv_path)
    record = stopping.detect_renewals(traj, cfg.guard)
    stopping.renewal_record_to_csv(record, os.path.join(out, "renewals.csv"))
    _write_json(os.path.join(out, "summary.json"), {
        "final_depth": int(traj.depths[-1]),
        "final_size": traj.final_size,
        "speed_trajectory": estimators.speed_trajectory(traj).__dict__,
        "n_renewals_confirmed": record.n_confirmed,
        "extras": traj.extras,
    })
    return ["trajectory.csv", "trajectory.json", "renewals.csv", "summary.json"]


def _pooled_blocks(per_replica: Sequence[dict]) -> np.ndarray:
    rows = [b for r in per_replica for b in r["blocks"]]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 2)


def _run_renewal_stats(cfg: ExperimentConfig, out: str) -> list:
    sched, desc = _resolve_schedule(cfg)
    args = [(_replica_seed(cfg, r), desc,
             cfg.horizon, cfg.guard, cfg.params.get("initial", "edge"))
            for r in range(cfg.replicas)]
    results = _map_replicas(_task_trajectory_stats, args, cfg.workers)

    with open(os.path.join(out, "renewals.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replica", *stopping.RENEWAL_HEADER])
        for r, res in enumerate(results):
            w.writerows([r, *row] for row in stopping.renewal_rows(
                res["taus"], res["tau_depths"], res["censored"]))

    v_traj = np.array([r["final_depth"] / cfg.horizon for r in results])
    blocks = _pooled_blocks(results)
    root_returns = [r["root_return"] for r in results
                    if r.get("root_return") is not None]
    summary = {
        "replicas": cfg.replicas,
        "horizon": cfg.horizon,
        "speed_trajectory_mean": float(v_traj.mean()),
        "speed_trajectory_se": float(v_traj.std(ddof=1) / math.sqrt(len(v_traj)))
        if len(v_traj) > 1 else 0.0,
        "n_blocks": int(blocks.shape[0]),
        "no_renewal_replicas": sum(1 for r in results if not r["taus"]),
        "root_return_freq": float(np.mean(root_returns)) if root_returns else None,
    }
    if blocks.shape[0] >= 2:
        sp = estimators.speed_renewal(blocks)
        summary["speed_renewal"] = sp.value
        summary["speed_renewal_se"] = sp.stderr
        summary["variance_candidates"] = estimators.sigma_candidates(blocks, sp.value)
        # independence diagnostics on the step spacings
        pairs = [(b[i][0], b[i + 1][0]) for b in
                 (r["blocks"] for r in results) for i in range(len(b) - 1)]
        if len(pairs) >= 3:
            x, y = np.array(pairs, dtype=np.float64).T
            r1 = float(np.corrcoef(x, y)[0, 1])
            summary["lag1_autocorr"] = r1
            summary["lag1_ci95"] = 1.96 / math.sqrt(len(pairs))
        spacings = blocks[:, 0]
        half = len(spacings) // 2
        ks = stats.ks_2samp(spacings[:half], spacings[half:])
        summary["halves_ks_stat"] = float(ks.statistic)
        summary["halves_ks_pvalue"] = float(ks.pvalue)
    _write_json(os.path.join(out, "summary.json"), summary)
    return ["renewals.csv", "summary.json"]


def _run_speed_curve(cfg: ExperimentConfig, out: str) -> list:
    p_grid = cfg.params.get("p_grid")
    if not p_grid:
        raise ExperimentError("params.p_grid: required for speed-curve")
    points = []
    for p in map(float, p_grid):
        args = [(_seed(cfg, r, _p_role(p)), p, cfg.horizon)
                for r in range(cfg.replicas)]
        finals = _map_replicas(_task_final_depth, args, cfg.workers)
        v = np.asarray(finals, dtype=np.float64) / cfg.horizon
        points.append(estimators.SpeedCurvePoint(
            p=p, v_hat=float(v.mean()),
            stderr=float(v.std(ddof=1) / math.sqrt(len(v))),
            replicas=len(v), horizon=cfg.horizon))
    estimators.speed_curve_to_csv(points, os.path.join(out, "speed_curve.csv"))
    diffs = [b.v_hat - a.v_hat for a, b in zip(points, points[1:])]
    _write_json(os.path.join(out, "summary.json"), {
        "points": [pt.__dict__ for pt in points],
        "nondecreasing_within_noise": all(
            d >= -3 * math.hypot(a.stderr, b.stderr)
            for d, a, b in zip(diffs, points, points[1:])),
        "bound_v_le_p": all(pt.v_hat <= pt.p + 3 * pt.stderr for pt in points),
    })
    return ["speed_curve.csv", "summary.json"]


def _run_degree_dist(cfg: ExperimentConfig, out: str) -> list:
    default = {"kind": "decaying", "gamma": cfg.params.get("gamma", 0.75)}
    sched, desc = _resolve_schedule(cfg, default)
    seed = _replica_seed(cfg, 0)
    traj = engine.run("edge", sched, cfg.horizon, seed, keep_tree=True)
    hist = estimators.degree_histogram(traj.final_tree)
    estimators.degree_histogram_to_csv(hist, os.path.join(out, "degree.csv"))
    _write_json(os.path.join(out, "summary.json"), {
        "n_nodes": hist.n_nodes,
        "fractions": {int(d): float(f)
                      for d, f in zip(hist.degrees, hist.fractions)},
        "targets": {int(d): float(t)
                    for d, t in zip(hist.degrees, hist.targets)},
        "fractions_sum": float(hist.fractions.sum()),
    })
    return ["degree.csv", "summary.json"]


def _run_tail(cfg: ExperimentConfig, out: str) -> list:
    sched, desc = _resolve_schedule(cfg, {"kind": "bernoulli", "p": 0.5})
    args = [(_replica_seed(cfg, r), desc,
             cfg.horizon, cfg.guard, "edge") for r in range(cfg.replicas)]
    results = _map_replicas(_task_trajectory_stats, args, cfg.workers)
    samples, censored = [], []
    for res in results:
        confirmed = [t for t, c in zip(res["taus"], res["censored"]) if not c]
        if confirmed:
            samples.append(confirmed[0])
            censored.append(False)
        else:
            samples.append(max(cfg.horizon - res["guard"], 1))
            censored.append(True)
    fit = estimators.tail_survival(samples, censored)
    estimators.tail_to_csv(fit, os.path.join(out, "tail.csv"))
    _write_json(os.path.join(out, "summary.json"), {
        "n_events": fit.n_events, "n_censored": fit.n_censored,
        "scale": fit.scale, "rate": fit.rate, "r_squared": fit.r_squared,
        "degenerate": fit.degenerate,
    })
    return ["tail.csv", "summary.json"]


def _run_clt(cfg: ExperimentConfig, out: str) -> list:
    sched, desc = _resolve_schedule(cfg, {"kind": "bernoulli", "p": 0.5})
    args = [(_replica_seed(cfg, r), desc,
             cfg.horizon, cfg.guard, "edge") for r in range(cfg.replicas)]
    results = _map_replicas(_task_trajectory_stats, args, cfg.workers)
    finals = np.array([r["final_depth"] for r in results], dtype=np.float64)
    blocks = _pooled_blocks(results)
    v_hat = float(finals.mean() / cfg.horizon)
    candidates = estimators.sigma_candidates(blocks, v_hat)
    name, sigma_hat = estimators.select_sigma(finals, cfg.horizon, v_hat, candidates)
    z, ks = estimators.clt_samples(finals, cfg.horizon, v_hat, sigma_hat)
    with open(os.path.join(out, "clt.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replica", "D_N", "standardized"])
        for r, (d, s) in enumerate(zip(finals, z)):
            w.writerow([r, int(d), repr(float(s))])
    _write_json(os.path.join(out, "summary.json"), {
        "v_hat": v_hat,
        "sigma_candidates": candidates,
        "sigma_selected": name,
        "sigma_hat": sigma_hat,
        "ks_stat": ks,
        "standardized_variance": float(np.var(z, ddof=1)),
        "n_blocks": int(blocks.shape[0]),
    })
    return ["clt.csv", "summary.json"]


def _run_lil(cfg: ExperimentConfig, out: str) -> list:
    sched, desc = _resolve_schedule(cfg, {"kind": "bernoulli", "p": 0.5})
    n_min = int(cfg.params.get("n_min", LIL_N_MIN))
    band = cfg.params.get("band", [0.4, 1.6])
    seeds = [_replica_seed(cfg, r)
             for r in range(cfg.replicas)]
    pass1 = _map_replicas(_task_trajectory_stats,
                          [(s, desc, cfg.horizon, cfg.guard, "edge") for s in seeds],
                          cfg.workers)
    blocks = _pooled_blocks(pass1)
    finals = np.array([r["final_depth"] for r in pass1], dtype=np.float64)
    v_hat = float(finals.mean() / cfg.horizon)
    candidates = estimators.sigma_candidates(blocks, v_hat)
    name, sigma_hat = estimators.select_sigma(finals, cfg.horizon, v_hat, candidates)
    maxima = _map_replicas(
        _task_lil_pass2,
        [(s, desc, cfg.horizon, v_hat, sigma_hat, n_min) for s in seeds],
        cfg.workers)
    maxima = np.asarray(maxima, dtype=np.float64)
    inside = (maxima >= band[0]) & (maxima <= band[1])
    with open(os.path.join(out, "lil.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replica", "max_statistic", "inside_band"])
        for r, (m, ok) in enumerate(zip(maxima, inside)):
            w.writerow([r, repr(float(m)), int(ok)])
    _write_json(os.path.join(out, "summary.json"), {
        "v_hat": v_hat, "sigma_hat": sigma_hat, "sigma_selected": name,
        "band": band, "n_min": n_min,
        "fraction_inside": float(inside.mean()),
        "maxima_range": [float(maxima.min()), float(maxima.max())],
    })
    return ["lil.csv", "summary.json"]


def _run_coupling_grand(cfg: ExperimentConfig, out: str) -> list:
    p_grid = cfg.params.get("p_grid", [0.0, 0.25, 0.5, 0.75, 1.0])
    coal = cfg.params.get("coalescence")
    coal_t = (float(coal["p"]), float(coal["q"]), int(coal["n"])) if coal else None
    marg = cfg.params.get("marginal")
    args = []
    for r in range(cfg.replicas):
        want_marginal = marg is not None and r < int(marg["replicas"])
        args.append((_replica_seed(cfg, r),
                     cfg.horizon, tuple(float(p) for p in p_grid), coal_t,
                     float(marg["p"]) if marg else 0.0,
                     int(marg["steps"]) if marg else 0, want_marginal, r == 0))
    results = _map_replicas(_task_grand, args, cfg.workers)
    couplings.write_events_jsonl(results[0].pop("events"),
                                 os.path.join(out, "grand_events.jsonl"))
    summary = {
        "replicas": cfg.replicas,
        "horizon": cfg.horizon,
        "invariants_ok_all": True,  # check_grand_invariants raises otherwise
        "monotone_all": all(r["monotone"] for r in results),
        "count_at_one_ok_all": all(
            r["count_at_one"] == 2 + cfg.horizon for r in results),
        "count_at_zero_ok_all": all(r["count_at_zero"] == 2 for r in results),
    }
    if coal_t is not None:
        agree = np.array([r["coal_agree"] for r in results])
        suff = np.array([r["coal_sufficient"] for r in results])
        n_batches = int(coal.get("batches", 5))
        edges = np.linspace(0, len(agree), n_batches + 1).astype(int)
        batches = [{"agree": float(agree[a:b].mean()),
                    "sufficient": float(suff[a:b].mean())}
                   for a, b in zip(edges, edges[1:]) if b > a]
        summary["coalescence"] = {
            "p": coal_t[0], "q": coal_t[1], "n": coal_t[2],
            "agree_freq": float(agree.mean()),
            "sufficient_freq": float(suff.mean()),
            "sufficient_se": float(suff.std(ddof=1) / math.sqrt(len(suff))),
            "target": (1.0 - abs(coal_t[1] - coal_t[0])) ** coal_t[2],
            "inclusion_ok_all": all(r["coal_inclusion_ok"] for r in results),
            "batches": batches,
        }
    if marg is not None:
        extracted = np.array([r["marginal_depth"] for r in results
                              if "marginal_depth" in r], dtype=np.float64)
        direct = np.empty(int(marg["replicas"]))
        sched = schedules.bernoulli(float(marg["p"]))
        for i in range(len(direct)):
            s = _seed(cfg, i, "direct")
            direct[i] = engine.run("edge", sched, int(marg["steps"]), s).depths[-1]
        ks = stats.ks_2samp(extracted, direct)
        summary["marginal"] = {
            "p": float(marg["p"]), "steps": int(marg["steps"]),
            "n_each": len(direct),
            "ks_stat": float(ks.statistic), "ks_pvalue": float(ks.pvalue),
            "extracted_mean": float(extracted.mean()),
            "direct_mean": float(direct.mean()),
        }
    _write_json(os.path.join(out, "summary.json"), summary)
    return ["grand_events.jsonl", "summary.json"]


def _run_coupling_tv(cfg: ExperimentConfig, out: str) -> list:
    law_a = cfg.params.get("law_a", {"support": [0, 1], "probs": [0.5, 0.5]})
    law_b = cfg.params.get("law_b", {"support": [0, 1], "probs": [0.3, 0.7]})
    d_tv = couplings.tv_distance(schedules.LeafLaw.from_dict(law_a),
                                 schedules.LeafLaw.from_dict(law_b))
    args = [(_replica_seed(cfg, r),
             law_a, law_b, cfg.horizon, cfg.guard) for r in range(cfg.replicas)]
    results = _map_replicas(_task_tv_pair, args, cfg.workers)
    with open(os.path.join(out, "tv_pairs.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair", "zeta", "agree_n", "horizon"])
        for r, res in enumerate(results):
            w.writerow([r, res["zeta"] if res["zeta"] is not None else "",
                        res["agree_n"], cfg.horizon])
    zetas = np.array([r["zeta"] for r in results if r["zeta"] is not None],
                     dtype=np.float64)
    matched = [r for r in results if r["both_before_split"]]
    _write_json(os.path.join(out, "summary.json"), {
        "d_tv": d_tv,
        "expected_mean_split": (1.0 / d_tv) if d_tv > 0 else None,
        "n_finite_splits": int(len(zetas)),
        "mean_split": float(zetas.mean()) if len(zetas) else None,
        "var_split": float(zetas.var(ddof=1)) if len(zetas) > 1 else None,
        "pre_split_equal_all": all(r["pre_equal"] for r in results),
        "n_both_renewed_before_split": len(matched),
        "renewals_match_all": all(r["tau_match"] for r in matched),
    })
    return ["tv_pairs.csv", "summary.json"]


def _run_coupling_monotone(cfg: ExperimentConfig, out: str) -> list:
    law = cfg.params.get("law", {"support": [0, 1, 3], "probs": [0.25, 0.25, 0.5]})
    p_floor = float(cfg.params.get("p_floor", 0.5))
    initial = cfg.params.get("initial",
                             {"parents": [None, 0, 1, 2], "walker": 3})
    target = int(cfg.params.get("target", 0))
    args = [(_replica_seed(cfg, r),
             law, p_floor, cfg.horizon, initial, target)
            for r in range(cfg.replicas)]
    results = _map_replicas(_task_monotone, args, cfg.workers)
    lead = np.array([r["lead_hit"] for r in results])
    floor = np.array([r["floor_hit"] for r in results])
    law_obj = schedules.LeafLaw.from_dict(law)
    counts: dict = {}
    for r in results:
        for k, c in r["lead_xi_counts"].items():
            counts[int(k)] = counts.get(int(k), 0) + c
    total = sum(counts.values())
    support = sorted(set(counts) | set(law_obj.support))
    tv_emp = 0.5 * sum(abs(counts.get(k, 0) / total - law_obj.pmf(k))
                       for k in support)
    _write_json(os.path.join(out, "summary.json"), {
        "p_floor": p_floor,
        "target": target,
        "replicas": cfg.replicas,
        "lead_hit_freq": float(lead.mean()),
        "floor_hit_freq": float(floor.mean()),
        "domination_ok": float(lead.mean()) <= float(floor.mean()),
        "inclusion_ok_all": all(r["inclusion_ok"] for r in results),
        "label_violations_total": int(sum(r["violations"] for r in results)),
        "lead_xi_tv_error": float(tv_emp),
        "floor_xi_mean": float(np.mean([r["floor_xi_mean"] for r in results])),
        "mean_synced": float(np.mean([r["n_synced"] for r in results])),
    })
    return ["summary.json"]


def _run_counterexample(cfg: ExperimentConfig, out: str) -> list:
    p = float(cfg.params.get("p", 0.2))
    q = float(cfg.params.get("q", 0.9))
    j_max = int(cfg.params.get("j_max", 4))
    pilot_cfg = cfg.params.get("pilot", {})
    pilot = schedules.PilotConfig(
        replicas=int(pilot_cfg.get("replicas", 64)),
        slack=float(pilot_cfg.get("slack", 0.01)),
        gap_fraction=float(pilot_cfg.get("gap_fraction", 0.125)),
        seed=_seed(cfg, 0, "pilot"),
        step_budget=int(pilot_cfg.get("step_budget", 4_000_000)),
        reference_horizon=int(pilot_cfg.get("reference_horizon", 4000)))
    sched, checkpoints = schedules.build_alternating(p, q, j_max, pilot)
    cfg.resolved_schedule = sched.descriptor()
    v_slow = schedules.pilot_speed(p, pilot, salt=1)
    v_fast = schedules.pilot_speed(q, pilot, salt=2)

    eval_replicas = int(cfg.params.get("eval_replicas", 100))
    horizon = checkpoints[-1]
    depth_sum = np.zeros(horizon + 1, dtype=np.float64)
    depth_sq = np.zeros(horizon + 1, dtype=np.float64)
    for r in range(eval_replicas):
        s = _seed(cfg, r, "eval")
        traj = engine.run("edge", sched, horizon, s)
        depth_sum += traj.depths
        depth_sq += traj.depths.astype(np.float64) ** 2
    rows = []
    for j, k in enumerate(checkpoints, start=1):
        mean_d = depth_sum[k] / eval_replicas
        var_d = depth_sq[k] / eval_replicas - mean_d ** 2
        rows.append({
            "j": j, "k_j": k,
            "block_param": p if j % 2 == 1 else q,
            "target_speed": v_slow if j % 2 == 1 else v_fast,
            "mean_relative_depth": mean_d / k,
            "se": math.sqrt(max(var_d, 0.0) / eval_replicas) / k,
        })
    with open(os.path.join(out, "checkpoints.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "k_j", "block_param", "target_speed",
                    "mean_relative_depth", "se"])
        for row in rows:
            w.writerow([row["j"], row["k_j"], repr(row["block_param"]),
                        repr(row["target_speed"]),
                        repr(float(row["mean_relative_depth"])), repr(row["se"])])
    gaps = [abs(a["mean_relative_depth"] - b["mean_relative_depth"])
            for a, b in zip(rows, rows[1:])]
    _write_json(os.path.join(out, "summary.json"), {
        "p": p, "q": q, "j_max": j_max,
        "checkpoints": checkpoints,
        "growth_ok": all(b >= (j + 2) * a for j, (a, b) in
                         enumerate(zip(checkpoints, checkpoints[1:]))),
        "pilot_v_slow": v_slow,
        "pilot_v_fast": v_fast,
        "rows": rows,
        "consecutive_gaps": gaps,
        "min_gap": min(gaps) if gaps else None,
        "required_gap": (v_fast - v_slow) / 2.0,
        "oscillates": all(g >= (v_fast - v_slow) / 2.0 for g in gaps),
    })
    return ["checkpoints.csv", "summary.json"]


_RUNNERS = {
    "simulate": _run_simulate,
    "renewal-stats": _run_renewal_stats,
    "speed-curve": _run_speed_curve,
    "degree-dist": _run_degree_dist,
    "tail": _run_tail,
    "clt": _run_clt,
    "lil": _run_lil,
    "coupling-grand": _run_coupling_grand,
    "coupling-tv": _run_coupling_tv,
    "coupling-monotone": _run_coupling_monotone,
    "counterexample": _run_counterexample,
}


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute one experiment config; writes outputs plus manifest.json."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ExperimentError(f"output directory {out!r} is not writable")
    start = time.monotonic()
    outputs = _RUNNERS[cfg.experiment](cfg, out)
    summary_path = os.path.join(out, "summary.json")
    if "summary.json" in outputs and os.path.exists(summary_path):
        with open(summary_path) as fh:
            payload = json.load(fh)
        payload["config_hash"] = cfg.hash()
        _write_json(summary_path, payload)
    manifest = RunManifest(
        config=cfg.canonical(),
        config_hash=cfg.hash(),
        resolved_schedule=cfg.resolved_schedule,
        engine_version=engine.ENGINE_VERSION,
        replica_seeds=list(itertools.islice(_run_seeds(cfg), 10_000)),
        wall_time_s=round(time.monotonic() - start, 3),
        outputs=sorted(outputs),
        backend=_kernels.BACKEND,
        fallback_reason=_kernels.FALLBACK_REASON,
    )
    manifest.write(os.path.join(out, "manifest.json"))
    return manifest
