"""Experiment configuration, seed derivation, and run manifests.

A config is one JSON document; CLI flags may override the common fields.
Replica streams are derived by hashing (master seed, experiment name,
replica index, role), so no two experiments sharing a master seed ever
consume the same stream.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

EXPERIMENT_NAMES = (
    "simulate", "renewal-stats", "speed-curve", "degree-dist", "tail",
    "clt", "lil", "coupling-grand", "coupling-tv", "coupling-monotone",
    "counterexample",
)


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


def _check_p_grid(params: dict) -> None:
    p_grid = params.get("p_grid", [])
    _require(isinstance(p_grid, list), "params.p_grid", "must be a list")
    for i, p in enumerate(p_grid):
        _require_number(p, f"params.p_grid[{i}]", 0.0, 1.0)


def _check_grand_params(params: dict, horizon: int) -> None:
    unit, step, count = (0.0, 1.0), (1, horizon, True), (1, math.inf, True)
    _check_p_grid(params)
    for name, fields in (("coalescence", {"p": unit, "q": unit, "n": step}),
                         ("marginal", {"p": unit, "steps": step,
                                       "replicas": count})):
        block = params.get(name)
        if block is None:
            continue
        _require(isinstance(block, dict), f"params.{name}", "must be an object")
        for key, bounds in fields.items():
            _require(key in block, f"params.{name}.{key}", "is required")
            _require_number(block[key], f"params.{name}.{key}", *bounds)
    batches = (params.get("coalescence") or {}).get("batches", 1)
    _require_number(batches, "params.coalescence.batches", *count)


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
    _require(isinstance(params, dict), "params", "must be an object")
    if experiment == "coupling-grand":
        _check_grand_params(params, horizon)
    elif experiment == "speed-curve":
        _check_p_grid(params)
    return ExperimentConfig(
        experiment=experiment, master_seed=merged["seed"],
        out_dir=str(merged.get("out", "out")), horizon=horizon,
        replicas=replicas, workers=workers, guard=guard,
        schedule=schedule, params=params)


def derive_seed(master_seed: int, experiment: str, replica: int, role: str = "") -> int:
    """Stable 63-bit stream seed; distinct per (experiment, replica, role)."""
    key = f"tbrw:{master_seed}:{experiment}:{replica}:{role}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


@dataclass
class RunManifest:
    """What a finished run writes to ``manifest.json``, enough to replay it.

    ``replica_seeds`` lists the stream seeds in the order the runner uses
    them, at most 10,000: one per replica for most experiments; for
    ``speed-curve`` the replicas of the first ``p_grid`` value, then those of
    the next (role ``p=<p>``); for ``counterexample`` the pilot seed, then
    one seed per evaluation replica.  ``backend`` is the step kernel that ran
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
