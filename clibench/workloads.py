"""The benchmark's workloads: one tbrw CLI experiment each, at a fixed size.

A workload turns the benchmark seed into a CLI config (only the master seed
changes with it), knows how many walker steps one invocation simulates, and
checks an invocation's outputs with ``checks``.  ``tiny`` sizes serve the
self-test.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable

import checks

# the pool never gets more workers than the machine has cores
WORKERS = min(2, os.cpu_count() or 1)

SWARM_LAW = {"support": [0, 1, 3], "probs": [0.5, 0.3, 0.2]}
REFERENCE_REPLICAS = {"full": 3000, "tiny": 1000}


def master_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"clibench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def long_walk_config(master: int, size: str) -> dict:
    return {"experiment": "simulate", "seed": master,
            "horizon": {"full": 1_000_000, "tiny": 20_000}[size],
            "guard": 1000, "schedule": {"kind": "bernoulli", "p": 0.5}}


def replica_swarm_config(master: int, size: str) -> dict:
    return {"experiment": "renewal-stats", "seed": master, "horizon": 100,
            "replicas": {"full": 10_000, "tiny": 500}[size],
            "workers": WORKERS, "guard": 10,
            "schedule": {"kind": "iid", **SWARM_LAW}}


def grand_coupling_config(master: int, size: str) -> dict:
    horizon, replicas = {"full": (200, 24), "tiny": (80, 24)}[size]
    # (1 - |p - q|)^n is about 1/2, where a frequency over few replicas is
    # most informative
    coal_n = {"full": 69, "tiny": 35}[size]
    coal_q = {"full": 0.51, "tiny": 0.52}[size]
    return {"experiment": "coupling-grand", "seed": master, "horizon": horizon,
            "replicas": replicas, "workers": WORKERS,
            "params": {"p_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
                       "coalescence": {"p": 0.5, "q": coal_q, "n": coal_n},
                       "marginal": {"p": 0.5, "steps": horizon,
                                    "replicas": replicas}}}


def _swarm_reference(seed: int, cfg: dict, size: str):
    return checks.reference_speed(seed, REFERENCE_REPLICAS[size], cfg["horizon"],
                                  SWARM_LAW["support"], SWARM_LAW["probs"])


@dataclass(frozen=True)
class Workload:
    config: Callable[[int, str], dict]
    # (out dir, config, reference) -> {check name: None or failure message}
    check: Callable[[str, dict, object], dict]
    # (benchmark seed, config, size) -> reference data for ``check``
    reference: Callable[[int, dict, str], object] = lambda seed, cfg, size: None

    def steps(self, cfg: dict) -> int:
        """Walker steps one invocation simulates (swarm steps for the grand
        coupling): replicas x horizon."""
        return cfg.get("replicas", 1) * cfg["horizon"]


WORKLOADS = {
    "long-walk": Workload(long_walk_config, checks.check_long_walk),
    "replica-swarm": Workload(replica_swarm_config, checks.check_replica_swarm,
                              _swarm_reference),
    "grand-coupling": Workload(grand_coupling_config, checks.check_grand_coupling),
}
