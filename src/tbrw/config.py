"""Experiment configuration, seed derivation, and run manifests.

A config is one JSON document; CLI flags may override the common fields.
Replica streams are derived by hashing (master seed, experiment name,
replica index, role), so no two experiments sharing a master seed ever
consume the same stream; the streams a construction splits off one of those
seeds come from ``child_seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

EXPERIMENT_NAMES = (
    "simulate", "renewal-stats", "speed-curve", "degree-dist", "tail",
    "clt", "lil", "coupling-grand", "coupling-tv", "coupling-monotone",
    "counterexample",
)

LIL_N_MIN = 10_000  # the lil statistic's first step when params omit n_min


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    master_seed: int
    out_dir: str = "out"
    horizon: int = 10_000
    replicas: int = 1
    workers: int = 1
    guard: Optional[int] = None
    schedule: Optional[dict] = None
    params: dict = field(default_factory=dict)
    resolved_schedule: Optional[dict] = None  # filled in by the runner

    def canonical(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.master_seed,
            "horizon": self.horizon,
            "replicas": self.replicas,
            "guard": self.guard,
            "schedule": self.schedule,
            "params": self.params,
        }

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _require_number(x, path: str, lo: float, hi: float, integer=False) -> None:
    kind = int if integer else (int, float)
    _require(isinstance(x, kind) and not isinstance(x, bool) and lo <= x <= hi,
             path, f"must be {'an integer' if integer else 'a number'} "
                   f"in [{lo}, {hi}]")


def _number(lo: float, hi: float, integer=False):
    return lambda x, path: _require_number(x, path, lo, hi, integer)


def _positive(hi: float):
    return lambda x, path: _require(
        isinstance(x, (int, float)) and not isinstance(x, bool) and 0 < x <= hi,
        path, f"must be a number in (0, {hi}]")


def _list(item, length: Optional[int] = None, nonempty=False):
    def check(x, path: str) -> None:
        _require(isinstance(x, list) and (length is None or len(x) == length)
                 and (x or not nonempty), path,
                 f"must be a {'nonempty ' if nonempty else ''}list"
                 + (f" of {length}" if length is not None else ""))
        for i, value in enumerate(x):
            item(value, f"{path}[{i}]")
    return check


def _block(fields: dict, required=()):
    """An object whose keys are all in ``fields``, each mapped to a check."""
    def check(x, path: str) -> None:
        _require(isinstance(x, dict), path, "must be an object")
        for key in required:
            _require(key in x, f"{path}.{key}", "is required")
        for key, value in x.items():
            _require(key in fields, f"{path}.{key}", "is not a parameter here")
            fields[key](value, f"{path}.{key}")
    return check


def _or_null(check):
    """``check``, or a null that stands for the block being absent."""
    return lambda x, path: None if x is None else check(x, path)


def _law(x, path: str) -> None:
    from .schedules import LeafLaw
    try:
        LeafLaw.from_dict(x)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a leaf law ({exc!r})") from None


def _initial(x, path: str) -> None:
    from .engine import make_initial
    try:
        make_initial(x)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not an initial tree ({exc!r})") from None


def _band(x, path: str) -> None:
    _list(_number(-math.inf, math.inf), 2)(x, path)
    _require(x[0] <= x[1], path, "must be [low, high] with low <= high")


def _params_schema(experiment: str, horizon: int):
    """The check of ``params`` for one experiment: every key it reads."""
    unit, step, count = _number(0.0, 1.0), _number(1, horizon, True), \
        _number(1, math.inf, True)
    p_grid = _list(unit, nonempty=experiment == "speed-curve")
    pilot = _block({"replicas": count, "slack": _number(0.0, math.inf),
                    "gap_fraction": unit, "step_budget": count,
                    "reference_horizon": count})
    return _block({
        "simulate": {"initial": _initial},
        "renewal-stats": {"initial": _initial},
        "speed-curve": {"p_grid": p_grid},
        "degree-dist": {"gamma": _positive(math.inf)},
        "tail": {},
        "clt": {},
        "lil": {"n_min": _number(3, horizon, True), "band": _band},
        "coupling-grand": {
            "p_grid": p_grid,
            "coalescence": _or_null(_block(
                {"p": unit, "q": unit, "n": step, "batches": count},
                ("p", "q", "n"))),
            "marginal": _or_null(_block(
                {"p": unit, "steps": step, "replicas": count},
                ("p", "steps", "replicas")))},
        "coupling-tv": {"law_a": _law, "law_b": _law},
        "coupling-monotone": {"law": _law, "p_floor": _positive(1.0),
                              "initial": _initial,
                              "target": _number(0, math.inf, True)},
        "counterexample": {"p": unit, "q": unit, "j_max": count,
                           "eval_replicas": count, "pilot": pilot},
    }[experiment], ("p_grid",) if experiment == "speed-curve" else ())


def parse_config(source, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a validated config from a JSON file path, JSON string, or dict.

    ``overrides`` maps common field names (seed, horizon, replicas, out,
    workers, guard) to replacement values, mirroring the CLI flags.
    """
    if isinstance(source, dict):
        raw = dict(source)
    else:
        text = None
        try:
            with open(source) as fh:
                text = fh.read()
        except (OSError, TypeError):
            text = str(source)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: not valid JSON ({exc})") from None
    _require(isinstance(raw, dict), "config", "top level must be an object")
    overrides = overrides or {}
    merged = dict(raw)
    for key in ("seed", "horizon", "replicas", "out", "workers", "guard"):
        if overrides.get(key) is not None:
            merged[key] = overrides[key]

    experiment = merged.get("experiment")
    _require(experiment in EXPERIMENT_NAMES, "experiment",
             f"unknown experiment {experiment!r}; valid names: "
             + ", ".join(EXPERIMENT_NAMES))
    _require("seed" in merged, "seed",
             "a master seed is required (wall-clock seeding is not allowed)")
    _require(isinstance(merged["seed"], int), "seed", "must be an integer")
    horizon = merged.get("horizon", 10_000)
    _require(isinstance(horizon, int) and horizon >= 1, "horizon", "must be >= 1")
    replicas = merged.get("replicas", 1)
    _require(isinstance(replicas, int) and replicas >= 1, "replicas", "must be >= 1")
    workers = merged.get("workers", 1)
    _require(isinstance(workers, int) and workers >= 1, "workers", "must be >= 1")
    guard = merged.get("guard")
    _require(guard is None or (isinstance(guard, int) and guard >= 0),
             "guard", "must be a nonnegative integer or null")
    schedule = merged.get("schedule")
    if schedule is not None:
        _require(isinstance(schedule, dict) and "kind" in schedule,
                 "schedule", "must be an object with a 'kind' field")
        from .schedules import ScheduleError, schedule_from_json
        try:
            schedule_from_json(schedule)
        except ScheduleError as exc:
            raise ConfigError(f"schedule: {exc}") from None
    params = merged.get("params", {})
    _params_schema(experiment, horizon)(params, "params")
    if experiment in ("speed-curve", "clt", "lil") or (
            experiment == "coupling-grand"
            and params.get("coalescence") is not None):
        _require(replicas >= 2, "replicas",
                 f"must be >= 2: {experiment} takes a standard deviation "
                 "over the replicas")
    if experiment == "lil" and "n_min" not in params:
        _require(LIL_N_MIN <= horizon, "params.n_min",
                 f"defaults to {LIL_N_MIN}, above the horizon {horizon}; "
                 f"set it in [3, {horizon}]")
    return ExperimentConfig(
        experiment=experiment, master_seed=merged["seed"],
        out_dir=str(merged.get("out", "out")), horizon=horizon,
        replicas=replicas, workers=workers, guard=guard,
        schedule=schedule, params=params)


def derive_seed(master_seed: int, experiment: str, replica: int, role: str = "") -> int:
    """Stable 63-bit stream seed; distinct per (experiment, replica, role)."""
    key = f"tbrw:{master_seed}:{experiment}:{replica}:{role}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def child_seed(*keys: int) -> int:
    """Stable 32-bit seed of a stream split off a seed, keyed by integers:
    the first word of ``SeedSequence(keys)``.  The coupled runs split
    ``(seed, k)`` off a pair's seed, the counterexample's pilot runs
    ``(pilot seed, salt, r)`` and ``(pilot seed, 3, j)``."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


@dataclass
class RunManifest:
    """What a finished run writes to ``manifest.json``, enough to replay it.

    ``replica_seeds`` lists the stream seeds in the order the runner uses
    them, at most 10,000: one per replica for most experiments; for
    ``speed-curve`` the replicas of the first ``p_grid`` value, then those of
    the next (role ``p=<p>``); for ``counterexample`` the pilot seed, then
    one seed per evaluation replica; for ``coupling-grand`` one seed per
    replica, then one per direct walk of the ``marginal`` block (role
    ``direct``).  ``backend`` is the step kernel that ran
    (``"c"`` or ``"python"``) and ``fallback_reason`` why it is not ``"c"``.
    """

    config: dict
    config_hash: str
    resolved_schedule: Optional[dict]
    engine_version: str
    replica_seeds: list
    wall_time_s: float
    outputs: list
    backend: str
    fallback_reason: Optional[str]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")
