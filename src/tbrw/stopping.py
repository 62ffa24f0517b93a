"""Post-hoc detection of regeneration and hitting times on finished runs.

A regeneration candidate is a step where the walker arrives on a degree-1
vertex at a strict record depth and, within the observed horizon, never goes
strictly above that depth again.  Candidates with fewer than ``guard``
verified post-steps are flagged censored rather than confirmed.

``detect_renewal_rows`` finds them in a batch of runs at once: its input
is (rows, horizon + 1) depth and leaf-flag arrays, one run per row as
``engine.run_batch`` lays them out, and its ``RenewalRows`` are flat
arrays of every candidate in row-major order, each tagged with its row.
``detect_renewals`` is its one-row call.
"""

from __future__ import annotations

import csv
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


@dataclass
class RenewalRows:
    """The candidates of a batch of runs as flat arrays, ordered by row and
    then by step: candidate i is step ``taus[i]`` of run ``row[i]``."""

    row: np.ndarray
    taus: np.ndarray
    depths: np.ndarray
    censored: np.ndarray
    confirm_margin: np.ndarray
    guard: np.ndarray          # the guard of each run, one entry per row
    horizon: int

    def blocks(self, drop_first: bool = True):
        """``(block_row, deltas)``: the (delta_step, delta_depth) pairs
        between consecutive confirmed candidates of each run, as an (n, 2)
        int array, and the run of each pair.  ``drop_first`` discards each
        run's first spacing, whose law differs from the rest."""
        confirmed = ~self.censored
        return _block_pairs(self.row[confirmed], self.taus[confirmed],
                            self.depths[confirmed], drop_first)


def _block_pairs(row, taus, depths, drop_first):
    keep = row[1:] == row[:-1]  # pair i joins candidates i and i + 1
    if drop_first and len(keep):
        # pair i is its run's first when candidate i is the run's first
        keep[1:] &= row[1:-1] == row[:-2]
        keep[0] = False
    deltas = np.column_stack([np.diff(taus)[keep], np.diff(depths)[keep]])
    return row[1:][keep], deltas


def detect_renewal_rows(depths: np.ndarray, leaf_flags: np.ndarray,
                        guard: Optional[int] = None) -> RenewalRows:
    """Find all regeneration candidates of every row in one O(rows x
    horizon) pass over (rows, horizon + 1) depth and leaf-flag arrays.

    ``guard=None`` picks, per row, twice the mean spacing of that row's
    candidates when it has at least three, else 0.
    """
    rows, steps = depths.shape
    n = steps - 1
    prev_max = np.empty((rows, steps), dtype=np.int64)
    prev_max[:, 0] = np.iinfo(np.int64).min
    np.maximum.accumulate(depths[:, :-1], axis=1, out=prev_max[:, 1:])
    # min over depths[k+1..n]; empty future treated as +inf
    future_min = np.empty((rows, steps), dtype=np.int64)
    future_min[:, -1] = np.iinfo(np.int64).max
    np.minimum.accumulate(depths[:, :0:-1], axis=1, out=future_min[:, -2::-1])
    cand = leaf_flags & (depths > prev_max) & (future_min >= depths)
    cand[:, 0] = False
    row, taus = np.divmod(np.flatnonzero(cand), steps)
    margins = n - taus
    if guard is None:
        counts = np.bincount(row, minlength=rows)
        last = np.cumsum(counts) - 1
        many = counts >= 3
        # the mean of a row's spacings is its span over their number
        spacing = (taus[last[many]] - taus[last[many] - counts[many] + 1]) \
            / (counts[many] - 1)
        guards = np.zeros(rows, dtype=np.int64)
        guards[many] = np.ceil(2.0 * spacing)
    else:
        guards = np.full(rows, guard, dtype=np.int64)
    return RenewalRows(row=row, taus=taus, depths=depths[row, taus],
                       censored=margins < guards[row], confirm_margin=margins,
                       guard=guards, horizon=n)


def detect_renewals(traj: Trajectory, guard: Optional[int] = None) -> RenewalRecord:
    """Find all regeneration candidates of one run: ``detect_renewal_rows``
    on its single row.

    ``guard=None`` picks twice the mean candidate spacing when there are
    at least three candidates (a second pass re-censors the tail with that
    margin), else 0.
    """
    found = detect_renewal_rows(traj.depths[None], traj.leaf_at_arrival[None],
                                guard)
    return RenewalRecord(taus=found.taus, depths=found.depths,
                         censored=found.censored,
                         confirm_margin=found.confirm_margin,
                         horizon=found.horizon, guard=int(found.guard[0]))


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
    return _block_pairs(np.zeros(len(taus), dtype=np.int64), taus,
                        record.confirmed_depths, drop_first)[1]


RENEWAL_HEADER = ["k", "tau", "depth_at_tau", "delta_tau", "delta_depth",
                  "censored"]


def renewal_rows(row, taus, depths, censored) -> list:
    """The ``RENEWAL_HEADER`` rows of candidates given as flat arrays in row
    order (``RenewalRows`` order): k counts each run's candidates from 1,
    and the deltas to the previous candidate are blank on a run's first."""
    first = np.ones(len(taus), dtype=np.bool_)
    first[1:] = row[1:] != row[:-1]
    starts = np.flatnonzero(first)
    k = np.arange(1, len(taus) + 1) \
        - np.repeat(starts, np.diff(np.append(starts, len(taus))))
    deltas = []
    for values in (taus, depths):
        column = np.diff(values, prepend=0).tolist()
        for i in starts.tolist():
            column[i] = ""
        deltas.append(column)
    return [list(cells) for cells in zip(
        k.tolist(), taus.tolist(), depths.tolist(), *deltas,
        censored.astype(np.int64).tolist())]


def renewal_record_to_csv(record: RenewalRecord, path) -> None:
    """One run's candidates as ``RENEWAL_HEADER`` rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RENEWAL_HEADER)
        w.writerows(renewal_rows(np.zeros(len(record.taus), dtype=np.int64),
                                 record.taus, record.depths, record.censored))
