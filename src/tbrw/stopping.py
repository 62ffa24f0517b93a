"""Post-hoc detection of regeneration and hitting times on finished runs.

A regeneration candidate is a step where the walker arrives on a degree-1
vertex at a strict record depth and, within the observed horizon, never goes
strictly above that depth again.  Candidates with fewer than ``guard``
verified post-steps are flagged censored rather than confirmed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .engine import Trajectory


class InsufficientBlocksError(ValueError):
    pass


@dataclass(frozen=True)
class CensoredTime:
    """A step index, or None when the event was not observed by the horizon."""

    step: Optional[int]
    horizon: int

    @property
    def censored(self) -> bool:
        return self.step is None


@dataclass
class RenewalRecord:
    taus: np.ndarray           # all candidate steps, increasing
    depths: np.ndarray         # walker depth at each candidate
    censored: np.ndarray       # True when post-horizon verification fell short
    confirm_margin: np.ndarray  # post-candidate steps actually inspected
    horizon: int
    guard: int

    @property
    def confirmed_taus(self) -> np.ndarray:
        return self.taus[~self.censored]

    @property
    def confirmed_depths(self) -> np.ndarray:
        return self.depths[~self.censored]

    @property
    def n_confirmed(self) -> int:
        return int((~self.censored).sum())


def detect_renewals(traj: Trajectory, guard: Optional[int] = None) -> RenewalRecord:
    """Find all regeneration candidates in one O(horizon) pass.

    ``guard=None`` picks twice the mean confirmed spacing (a second pass
    re-censors the tail with that margin).
    """
    depths = traj.depths
    n = len(depths) - 1
    flags = traj.leaf_at_arrival
    prev_max = np.empty(n + 1, dtype=np.int64)
    prev_max[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(depths[:-1], out=prev_max[1:])
    # min over depths[k+1..n]; empty future treated as +inf
    future_min = np.empty(n + 1, dtype=np.int64)
    future_min[-1] = np.iinfo(np.int64).max
    np.minimum.accumulate(depths[:0:-1], out=future_min[-2::-1])
    cand = flags & (depths > prev_max) & (future_min >= depths)
    cand[0] = False
    taus = np.flatnonzero(cand)
    margins = n - taus
    if guard is None:
        guard = 0
        if len(taus) >= 3:
            spacing = float(np.mean(np.diff(taus)))
            guard = int(math.ceil(2.0 * spacing))
    censored = margins < guard
    return RenewalRecord(taus=taus, depths=depths[taus], censored=censored,
                         confirm_margin=margins, horizon=n, guard=int(guard))


def detect_ladder_times(traj: Trajectory) -> List[int]:
    """Chained fresh-leaf descents: each time is the first arrival on a
    degree-1 vertex strictly deeper than at the previous such time (starting
    from the walker's initial depth)."""
    depths = traj.depths
    leaf_steps = np.flatnonzero(traj.leaf_at_arrival)
    times: List[int] = []
    level = depths[0]
    for s in leaf_steps:
        if s >= 1 and depths[s] > level:
            times.append(int(s))
            level = depths[s]
    return times


def hitting_time(traj: Trajectory, target: int, from_step: int = 0) -> CensoredTime:
    """First step >= from_step with the walker on ``target``."""
    n = traj.horizon
    if not 0 <= target < traj.final_size:
        raise ValueError(f"target node {target} does not exist in this run")
    if from_step > n:
        raise ValueError("from_step exceeds the horizon")
    hits = np.flatnonzero(traj.positions[from_step:] == target)
    if hits.size == 0:
        return CensoredTime(step=None, horizon=n)
    return CensoredTime(step=int(from_step + hits[0]), horizon=n)


def parent_return_times(traj: Trajectory) -> List[CensoredTime]:
    """For each ladder time, the first later visit to the parent of the vertex
    reached there.  A degree-1 arrival is entered through its parent, so the
    parent is the walker's previous position."""
    ladder = detect_ladder_times(traj)
    out: List[CensoredTime] = []
    order = np.argsort(traj.positions, kind="stable")
    sorted_pos = traj.positions[order]
    for t in ladder:
        parent = traj.positions[t - 1]
        lo = np.searchsorted(sorted_pos, parent, side="left")
        hi = np.searchsorted(sorted_pos, parent, side="right")
        visits = order[lo:hi]
        later = visits[visits > t]
        step = int(later.min()) if later.size else None
        out.append(CensoredTime(step=step, horizon=traj.horizon))
    return out


def renewal_blocks(record: RenewalRecord, drop_first: bool = True) -> np.ndarray:
    """Consecutive (delta_step, delta_depth) pairs between confirmed
    regenerations, as an (n, 2) int array.  ``drop_first`` discards the first
    spacing, whose law differs from the rest."""
    taus = record.confirmed_taus
    if len(taus) < 2:
        raise InsufficientBlocksError(
            f"need at least 2 confirmed regenerations, have {len(taus)}")
    deltas = np.column_stack([np.diff(taus), np.diff(record.confirmed_depths)])
    return deltas[1:] if drop_first else deltas


RENEWAL_HEADER = ["k", "tau", "depth_at_tau", "delta_tau", "delta_depth",
                  "censored"]


def renewal_rows(taus, depths, censored):
    """The ``RENEWAL_HEADER`` rows of one run's candidates, given as lists:
    deltas to the previous candidate, blank on the first row."""
    rows, prev = [], None
    for k, (tau, dep, cens) in enumerate(zip(taus, depths, censored), start=1):
        rows.append([k, tau, dep, "" if prev is None else tau - prev[0],
                     "" if prev is None else dep - prev[1], int(cens)])
        prev = (tau, dep)
    return rows


def renewal_record_to_csv(record: RenewalRecord, path) -> None:
    """One run's candidates as ``RENEWAL_HEADER`` rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RENEWAL_HEADER)
        w.writerows(renewal_rows(record.taus.tolist(), record.depths.tolist(),
                                 record.censored.tolist()))
