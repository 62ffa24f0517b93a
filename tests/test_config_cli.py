import json

import numpy as np
import pytest
from scipy import stats

from tbrw import _kernels, cli, config, couplings, engine, schedules
from tbrw.config import ConfigError, derive_seed, parse_config
from tbrw.experiments import run_experiment


def test_parse_minimal_speed_curve():
    params = {"p_grid": [round(0.1 * k, 1) for k in range(1, 11)]}
    cfg = parse_config({"experiment": "speed-curve", "seed": 1,
                        "replicas": 2, "params": params})
    assert cfg.experiment == "speed-curve"
    assert cfg.replicas == 2
    assert len(cfg.params["p_grid"]) == 10
    # the default of one replica leaves the standard error undefined
    with pytest.raises(ConfigError, match="replicas"):
        parse_config({"experiment": "speed-curve", "seed": 1, "params": params})


def test_parse_rejects_zero_replicas():
    with pytest.raises(ConfigError, match="replicas"):
        parse_config({"experiment": "simulate", "seed": 1, "replicas": 0})


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ConfigError) as err:
        parse_config({"experiment": "frobnicate", "seed": 1})
    assert "speed-curve" in str(err.value)
    assert "coupling-grand" in str(err.value)


def test_parse_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"experiment": "simulate"})


def test_parse_rejects_bad_schedule():
    with pytest.raises(ConfigError, match="schedule"):
        parse_config({"experiment": "simulate", "seed": 1,
                      "schedule": {"kind": "iid", "support": [0], "probs": [0.7]}})


def test_overrides_win():
    cfg = parse_config({"experiment": "tail", "seed": 1, "horizon": 10},
                       overrides={"horizon": 99, "seed": 5})
    assert cfg.horizon == 99
    assert cfg.master_seed == 5


def test_seed_derivation_stable_and_distinct():
    a = derive_seed(7, "tail", 0)
    assert a == derive_seed(7, "tail", 0)
    assert a != derive_seed(7, "tail", 1)
    assert a != derive_seed(7, "clt", 0)
    assert a != derive_seed(8, "tail", 0)


def test_config_hash_depends_on_content():
    c1 = parse_config({"experiment": "tail", "seed": 1})
    c2 = parse_config({"experiment": "tail", "seed": 2})
    assert c1.hash() != c2.hash()
    assert c1.hash() == parse_config({"experiment": "tail", "seed": 1}).hash()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_deterministic_outputs(tmp_path):
    base = {"experiment": "simulate", "seed": 11, "horizon": 40,
            "schedule": {"kind": "bernoulli", "p": 0.5}}
    cfg1 = parse_config({**base, "out": str(tmp_path / "a")})
    cfg2 = parse_config({**base, "out": str(tmp_path / "b")})
    run_experiment(cfg1)
    run_experiment(cfg2)
    for name in ("trajectory.csv", "renewals.csv", "summary.json"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)


def test_parallel_serial_equivalence(tmp_path):
    base = {"experiment": "renewal-stats", "seed": 3, "horizon": 600,
            "replicas": 6, "schedule": {"kind": "bernoulli", "p": 0.8}}
    cfg1 = parse_config({**base, "out": str(tmp_path / "serial"), "workers": 1})
    cfg2 = parse_config({**base, "out": str(tmp_path / "par"), "workers": 2})
    run_experiment(cfg1)
    run_experiment(cfg2)
    assert _read(tmp_path / "serial" / "renewals.csv") == \
        _read(tmp_path / "par" / "renewals.csv")
    assert _read(tmp_path / "serial" / "summary.json") == \
        _read(tmp_path / "par" / "summary.json")


def test_manifest_contents(tmp_path):
    cfg = parse_config({"experiment": "simulate", "seed": 4, "horizon": 12,
                        "schedule": {"kind": "bernoulli", "p": 1.0},
                        "out": str(tmp_path)})
    manifest = run_experiment(cfg)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["config_hash"] == cfg.hash() == manifest.config_hash
    assert on_disk["engine_version"] == engine.ENGINE_VERSION
    assert on_disk["replica_seeds"] == [derive_seed(4, "simulate", 0, "run")]
    assert on_disk["backend"] == _kernels.BACKEND in ("c", "python")
    assert on_disk["fallback_reason"] == _kernels.FALLBACK_REASON
    assert (on_disk["fallback_reason"] is None) == (on_disk["backend"] == "c")
    assert set(on_disk["outputs"]) <= {"trajectory.csv", "trajectory.json",
                                       "renewals.csv", "summary.json"}


def test_cli_simulate_delta0(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "simulate", "seed": 1, "horizon": 10,
        "schedule": {"kind": "iid", "support": [0], "probs": [1.0]},
        "out": str(tmp_path / "run")}))
    rc = cli.main(["simulate", "--config", str(cfg_path)])
    assert rc == 0
    rows = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    depths = [int(r.split(",")[2]) for r in rows[1:]]
    assert depths == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_cli_error_is_machine_readable(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "missing.json")])
    assert rc != 0
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


GRAND_PARAMS = {"p_grid": [0.0, 0.5, 1.0],
                "coalescence": {"p": 0.5, "q": 0.55, "n": 10},
                "marginal": {"p": 0.5, "steps": 20, "replicas": 2}}


# (experiment, params, error[, replicas]); the config has 2 replicas unless
# a case gives its own count
PARAMS_FAILURES = [
    ("coupling-grand", {**GRAND_PARAMS, "marginal": {"p": 0.5, "steps": 20}},
     "ConfigError"),
    ("coupling-grand", {**GRAND_PARAMS, "p_grid": [0.5, 1.5]}, "ConfigError"),
    ("coupling-grand", {**GRAND_PARAMS,
                        "coalescence": {"p": 0.5, "q": 0.55, "n": 21}},
     "ConfigError"),
    ("tail", {}, "InsufficientBlocksError"),
    ("counterexample", {"p": 0.9, "q": 0.2}, "ScheduleError"),
    ("speed-curve", {"p_grid": [0.5, 1.5]}, "ConfigError"),
    ("simulate", {"initial": {"parents": [None, 0], "walker": 5}},
     "ConfigError"),
    ("renewal-stats", {"initial": "triangle"}, "ConfigError"),
    ("degree-dist", {"gamma": -0.5}, "ConfigError"),
    ("tail", {"n_min": 10}, "ConfigError"),
    ("clt", {"band": [0.4, 1.6]}, "ConfigError"),
    ("lil", {"band": [1.6, 0.4]}, "ConfigError"),
    ("coupling-tv", {"law_a": {"support": [0, 1], "probs": [0.5, 0.6]}},
     "ConfigError"),
    ("coupling-monotone", {"p_floor": 1.5}, "ConfigError"),
    ("counterexample", {"p": 0.2, "q": 0.9, "j_max": 0}, "ConfigError"),
    ("lil", {"n_min": 2}, "ConfigError"),
    ("lil", {}, "ConfigError"),  # the default n_min is above the horizon
    # one replica, for runners that take a standard deviation over replicas
    ("speed-curve", {"p_grid": [0.5]}, "ConfigError", 1),
    ("coupling-grand", GRAND_PARAMS, "ConfigError", 1),
    ("clt", {}, "ConfigError", 1),
    ("lil", {"n_min": 10}, "ConfigError", 1),
]


@pytest.mark.parametrize(
    "experiment, params, error, replicas", [(*case, 2)[:4] for case in PARAMS_FAILURES],
    ids=[f"{case[0]}-params{i}-{case[2]}" for i, case in enumerate(PARAMS_FAILURES)])
def test_cli_params_failure_is_one_json_line(tmp_path, capsys, experiment,
                                             params, error, replicas):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": experiment, "seed": 1, "horizon": 20, "replicas": replicas,
        "params": params, "out": str(tmp_path / "run")}))
    rc = cli.main([experiment, "--config", str(cfg_path)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    if error == "ConfigError":  # rejected before the runner, so nothing ran
        assert not (tmp_path / "run").exists()


def test_manifest_seeds_replay_coupling_runs(tmp_path):
    grand_out, tv_out = tmp_path / "grand", tmp_path / "tv"
    run_experiment(parse_config({
        "experiment": "coupling-grand", "seed": 2, "horizon": 20,
        "replicas": 3, "params": GRAND_PARAMS, "out": str(grand_out)}))
    manifest = json.loads((grand_out / "manifest.json").read_text())
    replayed = couplings.grand_run("edge", manifest["config"]["horizon"],
                                   manifest["replica_seeds"][0])
    couplings.write_events_jsonl(replayed.events, tmp_path / "replay.jsonl")
    assert _read(tmp_path / "replay.jsonl") == _read(grand_out / "grand_events.jsonl")

    run_experiment(parse_config({
        "experiment": "coupling-tv", "seed": 2, "horizon": 30, "replicas": 3,
        "out": str(tv_out)}))
    manifest = json.loads((tv_out / "manifest.json").read_text())
    rows = (tv_out / "tv_pairs.csv").read_text().splitlines()[1:]
    laws = (schedules.LeafLaw(support=(0, 1), probs=(0.5, 0.5)),
            schedules.LeafLaw(support=(0, 1), probs=(0.3, 0.7)))
    for row, seed in zip(rows, manifest["replica_seeds"]):
        zeta = couplings.tv_coupled_run(*laws, 30, seed).split_time
        assert row.split(",")[1] == ("" if zeta is None else str(zeta))


def test_manifest_seeds_replay_grand_marginal(tmp_path):
    # the marginal block compares depths extracted from the grand runs with
    # direct walks; manifest.json lists both sets of seeds, in that order
    run_experiment(parse_config({
        "experiment": "coupling-grand", "seed": 5, "horizon": 20,
        "replicas": 3, "params": GRAND_PARAMS, "out": str(tmp_path)}))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    config = manifest["config"]
    marginal = config["params"]["marginal"]
    seeds = manifest["replica_seeds"]
    assert len(seeds) == config["replicas"] + marginal["replicas"]
    extracted = [couplings.extract_instance(
        couplings.grand_run("edge", config["horizon"], s),
        marginal["p"]).depths[marginal["steps"]]
        for s in seeds[:marginal["replicas"]]]
    direct = np.array([engine.run("edge", schedules.bernoulli(marginal["p"]),
                                  marginal["steps"], s).depths[-1]
                       for s in seeds[config["replicas"]:]], dtype=np.float64)
    summary = json.loads((tmp_path / "summary.json").read_text())["marginal"]
    assert summary["n_each"] == len(direct)
    assert summary["direct_mean"] == float(direct.mean())
    assert summary["extracted_mean"] == float(np.mean(extracted))
    assert summary["ks_stat"] == float(stats.ks_2samp(extracted, direct).statistic)


def test_grand_null_blocks_are_absent(tmp_path):
    cfg = parse_config({
        "experiment": "coupling-grand", "seed": 2, "horizon": 20,
        "replicas": 2, "out": str(tmp_path),
        "params": {"p_grid": [0.5], "coalescence": None, "marginal": None}})
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["replica_seeds"]) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "coalescence" not in summary and "marginal" not in summary
    # with no coalescence block, no standard deviation needs two replicas
    assert parse_config({**cfg.canonical(), "replicas": 1}).replicas == 1


def test_manifest_seeds_replay_speed_curve_and_counterexample(tmp_path):
    curve_out, counter_out = tmp_path / "curve", tmp_path / "counter"
    run_experiment(parse_config({
        "experiment": "speed-curve", "seed": 7, "horizon": 40, "replicas": 2,
        "params": {"p_grid": [0.2, 0.7]}, "out": str(curve_out)}))
    manifest = json.loads((curve_out / "manifest.json").read_text())
    seeds = manifest["replica_seeds"]
    assert len(seeds) == 4  # p-major: both p = 0.2 replicas, then p = 0.7's
    finals = [engine.run("edge", schedules.bernoulli(0.7), 40, s).depths[-1]
              for s in seeds[2:]]
    v_hat = (np.asarray(finals, dtype=np.float64) / 40).mean()
    point = json.loads((curve_out / "summary.json").read_text())["points"][1]
    assert point["p"] == 0.7 and point["v_hat"] == float(v_hat)

    pilot = {"replicas": 4, "reference_horizon": 300, "step_budget": 200_000}
    run_experiment(parse_config({
        "experiment": "counterexample", "seed": 7,
        "params": {"p": 0.2, "q": 0.9, "j_max": 2, "pilot": pilot,
                   "eval_replicas": 1},
        "out": str(counter_out)}))
    manifest = json.loads((counter_out / "manifest.json").read_text())
    pilot_seed, eval_seed = manifest["replica_seeds"]
    sched, checkpoints = schedules.build_alternating(
        0.2, 0.9, 2, schedules.PilotConfig(seed=pilot_seed, **pilot))
    assert sched.descriptor() == manifest["resolved_schedule"]
    traj = engine.run("edge", schedules.schedule_from_json(
        manifest["resolved_schedule"]), checkpoints[-1], eval_seed)
    rows = json.loads((counter_out / "summary.json").read_text())["rows"]
    assert [row["mean_relative_depth"] for row in rows] == \
        [float(traj.depths[k]) / k for k in checkpoints]


def test_cli_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "simulate", "seed": 1, "horizon": 10,
        "schedule": {"kind": "bernoulli", "p": 0.3},
        "out": str(tmp_path / "x")}))
    rc = cli.main(["simulate", "--config", str(cfg_path), "--horizon", "25",
                   "--out", str(tmp_path / "y")])
    assert rc == 0
    rows = (tmp_path / "y" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 27


def test_replica_failure_reported(tmp_path):
    # horizon 1 with an explicit single-vertex tree and a schedule that never
    # adds leaves leaves the walker isolated: the failure must carry the index
    cfg = parse_config({
        "experiment": "renewal-stats", "seed": 5, "horizon": 3, "replicas": 2,
        "schedule": {"kind": "iid", "support": [0], "probs": [1.0]},
        "params": {"initial": {"parents": [None], "walker": 0}},
        "out": str(tmp_path)})
    from tbrw.experiments import ReplicaError
    with pytest.raises(ReplicaError) as err:
        run_experiment(cfg)
    assert "replica 0" in str(err.value)
