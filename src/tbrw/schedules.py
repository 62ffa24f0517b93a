"""Leaf-count processes: how many leaves the walker attaches at each step.

All schedules are independent across steps, so a whole run's leaf counts are
sampled as one array up front.  Descriptors round-trip through JSON and are
embedded in trajectory manifests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .config import child_seed

PROB_ATOL = 1e-12


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class LeafLaw:
    """Finite-support distribution over nonnegative leaf counts."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ScheduleError("support and probs must be nonempty and equal length")
        sup = tuple(int(s) for s in self.support)
        pr = tuple(float(p) for p in self.probs)
        if any(s < 0 for s in sup):
            raise ScheduleError("support must be nonnegative integers")
        if list(sup) != sorted(set(sup)):
            raise ScheduleError("support must be strictly increasing")
        if any(p < 0 for p in pr):
            raise ScheduleError("probabilities must be nonnegative")
        if abs(sum(pr) - 1.0) > PROB_ATOL:
            raise ScheduleError(f"probabilities sum to {sum(pr)}, not 1")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", pr)

    @classmethod
    def delta(cls, k: int) -> "LeafLaw":
        return cls(support=(int(k),), probs=(1.0,))

    @classmethod
    def bernoulli(cls, p: float) -> "LeafLaw":
        if not 0.0 <= p <= 1.0:
            raise ScheduleError(f"Bernoulli parameter {p} outside [0, 1]")
        if p == 0.0:
            return cls.delta(0)
        if p == 1.0:
            return cls.delta(1)
        return cls(support=(0, 1), probs=(1.0 - p, p))

    @classmethod
    def from_dict(cls, d: dict) -> "LeafLaw":
        return cls(support=tuple(d["support"]), probs=tuple(d["probs"]))

    @property
    def positive_mass(self) -> float:
        """Probability of adding at least one leaf (exactly 1 - P(0))."""
        return sum(p for s, p in zip(self.support, self.probs) if s >= 1)

    @property
    def mean(self) -> float:
        return float(sum(s * p for s, p in zip(self.support, self.probs)))

    def pmf(self, k: int) -> float:
        for s, p in zip(self.support, self.probs):
            if s == k:
                return p
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if len(self.support) == 1:
            return np.full(size, self.support[0], dtype=np.int64)
        u = rng.random(size)
        if len(self.support) == 2:
            # equals the searchsorted index below, clipped to 1, exactly
            lo, hi = self.support
            return lo + (hi - lo) * (u >= self.probs[0]).astype(np.int64)
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, len(self.support) - 1)
        return np.asarray(self.support, dtype=np.int64)[idx]

    def to_json(self) -> dict:
        return {"support": list(self.support), "probs": list(self.probs)}


class LeafSchedule:
    """Base: a rule mapping (step index, random stream) to a leaf count."""

    def sample_array(self, horizon: int, rng: np.random.Generator):
        """Return ``(xi, extras)``: counts for steps 0..horizon (xi[0] = 0)."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class IidSchedule(LeafSchedule):
    law: LeafLaw

    def sample_array(self, horizon, rng):
        xi = np.zeros(horizon + 1, dtype=np.int64)
        xi[1:] = self.law.sample(rng, horizon)
        return xi, {}

    def descriptor(self):
        return {"kind": "iid", **self.law.to_json()}

    @property
    def positive_mass(self) -> float:
        return self.law.positive_mass


@dataclass(frozen=True)
class DecayingSchedule(LeafSchedule):
    """Bernoulli with success probability ``n ** -gamma`` at step n >= 1."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ScheduleError("gamma must be positive")

    def step_probability(self, n: int) -> float:
        return float(n) ** -self.gamma

    def sample_array(self, horizon, rng):
        xi = np.zeros(horizon + 1, dtype=np.int64)
        steps = np.arange(1, horizon + 1, dtype=np.float64)
        xi[1:] = rng.random(horizon) < steps ** -self.gamma
        return xi, {}

    def descriptor(self):
        return {"kind": "decaying", "gamma": self.gamma}


@dataclass(frozen=True)
class ConvergingSchedule(LeafSchedule):
    """Noisy up to a switch step, constant (random) limit value afterwards.

    The limit is drawn once per run from ``limit_pmf``; the realized value
    and the switch step land in the trajectory extras.
    """

    noise: tuple          # one LeafLaw per step 1..switch_step-1, cycled if shorter
    limit_pmf: LeafLaw
    switch_step: int

    def __post_init__(self):
        if self.switch_step < 1:
            raise ScheduleError("switch_step must be >= 1")
        if not self.noise:
            raise ScheduleError("at least one noise law required")

    def sample_array(self, horizon, rng):
        limit = int(self.limit_pmf.sample(rng, 1)[0])
        xi = np.full(horizon + 1, limit, dtype=np.int64)
        xi[0] = 0
        for n in range(1, min(self.switch_step, horizon + 1)):
            law = self.noise[(n - 1) % len(self.noise)]
            xi[n] = law.sample(rng, 1)[0]
        return xi, {"realized_limit": limit, "switch_step": self.switch_step}

    def descriptor(self):
        return {
            "kind": "converging",
            "noise": [law.to_json() for law in self.noise],
            "limit_pmf": self.limit_pmf.to_json(),
            "switch_step": self.switch_step,
        }


@dataclass(frozen=True)
class AlternatingSchedule(LeafSchedule):
    """Bernoulli blocks of alternating parameters split at fixed checkpoints.

    Block j covers steps (checkpoints[j-1], checkpoints[j]]; odd blocks use
    ``p_slow``, even blocks ``p_fast``, and the parity pattern continues past
    the last checkpoint.
    """

    p_slow: float
    p_fast: float
    checkpoints: tuple

    def __post_init__(self):
        ck = tuple(int(k) for k in self.checkpoints)
        if any(b <= a for a, b in zip((0,) + ck, ck)):
            raise ScheduleError("checkpoints must be strictly increasing")
        object.__setattr__(self, "checkpoints", ck)

    def step_probabilities(self, horizon: int) -> np.ndarray:
        p_arr = np.empty(horizon + 1, dtype=np.float64)
        p_arr[0] = 0.0
        bounds = [0, *self.checkpoints]
        j = 1
        lo = 1
        while lo <= horizon:
            hi = bounds[j] if j < len(bounds) else horizon
            hi = min(hi, horizon)
            p_arr[lo:hi + 1] = self.p_slow if j % 2 == 1 else self.p_fast
            lo = hi + 1
            j += 1
        return p_arr

    def sample_array(self, horizon, rng):
        p_arr = self.step_probabilities(horizon)
        xi = np.zeros(horizon + 1, dtype=np.int64)
        xi[1:] = rng.random(horizon) < p_arr[1:]
        return xi, {}

    def descriptor(self):
        return {"kind": "alternating", "p": self.p_slow, "q": self.p_fast,
                "checkpoints": list(self.checkpoints)}


def iid(law: LeafLaw) -> IidSchedule:
    return IidSchedule(law=law)


def bernoulli(p: float) -> IidSchedule:
    return IidSchedule(law=LeafLaw.bernoulli(p))


def decaying(gamma: float) -> DecayingSchedule:
    return DecayingSchedule(gamma=gamma)


def converging(noise: Union[LeafLaw, Sequence[LeafLaw]], limit_pmf: LeafLaw,
               switch_step: int) -> ConvergingSchedule:
    if isinstance(noise, LeafLaw):
        noise = (noise,)
    return ConvergingSchedule(noise=tuple(noise), limit_pmf=limit_pmf,
                              switch_step=int(switch_step))


def schedule_from_json(d: dict) -> LeafSchedule:
    kind = d.get("kind")
    if kind == "iid":
        return IidSchedule(law=LeafLaw.from_dict(d))
    if kind == "bernoulli":
        return bernoulli(float(d["p"]))
    if kind == "decaying":
        return DecayingSchedule(gamma=float(d["gamma"]))
    if kind == "converging":
        return ConvergingSchedule(
            noise=tuple(LeafLaw.from_dict(x) for x in d["noise"]),
            limit_pmf=LeafLaw.from_dict(d["limit_pmf"]),
            switch_step=int(d["switch_step"]))
    if kind == "alternating":
        return AlternatingSchedule(p_slow=float(d["p"]), p_fast=float(d["q"]),
                                   checkpoints=tuple(d["checkpoints"]))
    raise ScheduleError(f"unknown schedule kind {kind!r}")


@dataclass(frozen=True)
class PilotConfig:
    """Monte Carlo budget for certifying alternating-block checkpoints."""

    replicas: int = 64
    slack: float = 0.01         # statistical inflation on the closeness test
    gap_fraction: float = 0.125  # closeness as a fraction of the speed gap
    seed: int = 0
    step_budget: int = 2_000_000
    reference_horizon: int = 4000
    grid_factor: float = 1.12   # geometric spacing of certified step counts
    grid_start: int = 16


class CheckpointError(RuntimeError):
    pass


def _pilot_mean_depth_curve(p: float, q: float, param: float,
                            checkpoints, budget: int, replicas: int, seed: int):
    """Mean of depth[m]/m over replicas, m = 1..budget, for the schedule that
    follows the committed blocks and then keeps parameter ``param`` forever."""
    from . import engine  # local import: engine does not depend on schedules

    p_arr = np.full(budget + 1, param, dtype=np.float64)
    p_arr[0] = 0.0
    bounds = [0, *checkpoints]
    for j in range(1, len(bounds)):
        lo, hi = bounds[j - 1] + 1, min(bounds[j], budget)
        if lo > budget:
            break
        p_arr[lo:hi + 1] = p if j % 2 == 1 else q
    total = np.zeros(budget + 1, dtype=np.float64)
    for r in range(replicas):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        xi = np.zeros(budget + 1, dtype=np.int64)
        xi[1:] = rng.random(budget) < p_arr[1:]
        traj = engine.run_arrays("edge", xi, rng.random(budget + 1))
        total += traj.depths
    steps = np.arange(budget + 1, dtype=np.float64)
    steps[0] = 1.0
    return total / replicas / steps


def pilot_speed(p: float, pilot: PilotConfig, salt: int) -> float:
    """Plain Monte Carlo speed estimate for a Bernoulli leaf process."""
    from . import engine

    sched = bernoulli(p)
    vals = []
    for r in range(pilot.replicas):
        traj = engine.run("edge", sched, pilot.reference_horizon,
                          child_seed(pilot.seed, salt, r))
        vals.append(traj.depths[-1] / pilot.reference_horizon)
    return float(np.mean(vals))


def build_alternating(p: float, q: float, j_max: int,
                      pilot: Optional[PilotConfig] = None):
    """Construct checkpoints so the mean relative depth provably oscillates.

    Block j runs Ber(p) for odd j and Ber(q) for even j.  Checkpoint j is
    certified by a pilot: the replica-averaged depth[m]/m must stay within a
    tolerance of the pilot speed for every m from the candidate onward (up to
    the explored budget), after which ``j * previous_checkpoint`` is added, so
    ``k_j >= j * k_{j-1}`` holds exactly.

    Returns ``(schedule, checkpoints)``.
    """
    if not 0 < p < q <= 1:
        raise ScheduleError("need 0 < p < q <= 1")
    if j_max < 1:
        raise ScheduleError("j_max must be >= 1")
    pilot = pilot or PilotConfig()
    v_slow = pilot_speed(p, pilot, salt=1)
    v_fast = pilot_speed(q, pilot, salt=2)
    gap = v_fast - v_slow
    if gap <= 0:
        raise CheckpointError(
            f"pilot speeds are not ordered: v(p)={v_slow:.4f}, v(q)={v_fast:.4f}")
    checkpoints = []
    for j in range(1, j_max + 1):
        param = p if j % 2 == 1 else q
        target = v_slow if j % 2 == 1 else v_fast
        tol = min(1.0 / (2 * j), pilot.gap_fraction * gap) + pilot.slack
        prev = checkpoints[-1] if checkpoints else 0
        budget = max(4000, 8 * j * prev)
        while True:
            if budget > pilot.step_budget:
                raise CheckpointError(
                    f"could not certify checkpoint {j} within {pilot.step_budget} steps")
            curve = _pilot_mean_depth_curve(
                p, q, param, tuple(checkpoints), budget, pilot.replicas,
                seed=child_seed(pilot.seed, 3, j))
            grid = _geometric_grid(max(pilot.grid_start, prev + 1), budget,
                                   pilot.grid_factor)
            dev = np.abs(curve[grid] - target)
            # smallest grid point with every later grid point within tolerance
            rev_max = np.maximum.accumulate(dev[::-1])[::-1]
            ok = np.flatnonzero(rev_max < tol)
            k_j = None
            if ok.size:
                n_cert = int(grid[ok[0]])
                k_j = n_cert + j * prev
                if k_j <= budget and prev < k_j \
                        and abs(curve[k_j] - target) < tol:
                    checkpoints.append(k_j)
                    break
            budget *= 2
    sched = AlternatingSchedule(p_slow=p, p_fast=q, checkpoints=tuple(checkpoints))
    return sched, list(checkpoints)


def _geometric_grid(start: int, stop: int, factor: float) -> np.ndarray:
    pts = [start]
    while pts[-1] < stop:
        pts.append(max(pts[-1] + 1, int(pts[-1] * factor)))
    pts[-1] = stop
    return np.unique(np.asarray(pts, dtype=np.int64))
