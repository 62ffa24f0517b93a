"""Speed, variance, tail, and distributional diagnostics built from runs.

Speed is estimated two ways (final depth over time; ratio of mean block
increments) and the variance enters the CLT/LIL normalization through three
candidate block statistics, selected empirically per experiment.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from .engine import RootedTree, Trajectory
from .stopping import InsufficientBlocksError


@dataclass(frozen=True)
class SpeedEstimate:
    value: float
    stderr: float
    n: int
    method: str  # "trajectory" or "renewal-ratio"


def speed_trajectory(traj: Trajectory, batches: Optional[int] = None) -> SpeedEstimate:
    """Final depth over elapsed steps, with a batch-means standard error."""
    n = traj.horizon
    value = float(traj.depths[-1]) / n
    if batches is None:
        batches = max(2, int(math.sqrt(n)))
    batches = min(batches, n)
    edges = np.linspace(0, n, batches + 1).astype(np.int64)
    d = traj.depths[edges].astype(np.float64)
    widths = np.diff(edges).astype(np.float64)
    means = np.diff(d) / widths
    stderr = float(np.std(means, ddof=1) / math.sqrt(batches)) if batches > 1 else 0.0
    return SpeedEstimate(value=value, stderr=stderr, n=n, method="trajectory")


def speed_renewal(blocks: np.ndarray) -> SpeedEstimate:
    """Ratio of block sums: total depth gained over total steps elapsed.

    The standard error uses the delta method for a ratio of means over
    independent blocks.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 2 or blocks.shape[0] < 2:
        raise InsufficientBlocksError("ratio estimate needs at least 2 blocks")
    dt, dd = blocks[:, 0], blocks[:, 1]
    k = len(dt)
    mt, md = dt.mean(), dd.mean()
    value = md / mt
    s_dd = np.var(dd, ddof=1)
    s_tt = np.var(dt, ddof=1)
    s_td = np.cov(dt, dd, ddof=1)[0, 1]
    var = (s_dd - 2 * value * s_td + value ** 2 * s_tt) / (k * mt ** 2)
    return SpeedEstimate(value=float(value), stderr=float(math.sqrt(max(var, 0.0))),
                         n=k, method="renewal-ratio")


@dataclass(frozen=True)
class VariancePair:
    sigma2_depth: float      # variance of depth increments across blocks
    sigma2_centered: float   # variance of (depth - v * steps) across blocks
    n_blocks: int


def variance_estimators(blocks: np.ndarray, v_hat: float) -> VariancePair:
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.shape[0] < 2:
        raise InsufficientBlocksError("variance needs at least 2 blocks")
    dd = blocks[:, 1]
    centered = dd - v_hat * blocks[:, 0]
    return VariancePair(sigma2_depth=float(np.var(dd, ddof=1)),
                        sigma2_centered=float(np.var(centered, ddof=1)),
                        n_blocks=blocks.shape[0])


def sigma_candidates(blocks: np.ndarray, v_hat: float) -> Dict[str, float]:
    """Three block-based variances that could normalize the CLT statistic."""
    pair = variance_estimators(blocks, v_hat)
    mean_dt = float(np.asarray(blocks, dtype=np.float64)[:, 0].mean())
    return {
        "depth_blocks": pair.sigma2_depth,
        "centered_blocks": pair.sigma2_centered,
        "centered_per_step": pair.sigma2_centered / mean_dt,
    }


def select_sigma(final_depths: Sequence[float], n_steps: int, v_hat: float,
                 candidates: Dict[str, float]) -> Tuple[str, float]:
    """Pick the candidate whose standardized replica sample has variance
    closest to 1; returns (name, sigma)."""
    d = np.asarray(final_depths, dtype=np.float64)
    best_name, best_gap = None, np.inf
    for name, s2 in candidates.items():
        if s2 <= 0:
            continue
        z = (d - n_steps * v_hat) / (math.sqrt(s2) * math.sqrt(n_steps))
        gap = abs(np.var(z, ddof=1) - 1.0)
        if gap < best_gap:
            best_name, best_gap = name, gap
    if best_name is None:
        raise ValueError("no positive variance candidate")
    return best_name, math.sqrt(candidates[best_name])


def clt_samples(final_depths: Sequence[float], n_steps: int, v_hat: float,
                sigma_hat: float) -> Tuple[np.ndarray, float]:
    """Standardize replica end depths and measure sup-distance to a standard
    normal CDF."""
    if sigma_hat <= 0:
        raise ValueError("sigma_hat must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    d = np.asarray(final_depths, dtype=np.float64)
    z = (d - n_steps * v_hat) / (sigma_hat * math.sqrt(n_steps))
    ks = float(stats.kstest(z, "norm").statistic)
    return z, ks


def lil_statistic(traj: Trajectory, v_hat: float, sigma_hat: float,
                  n_min: int = 3) -> np.ndarray:
    """Running maximum of |depth - n v| / (sigma sqrt(2 n log log n)) for
    n >= n_min; index 0 of the result corresponds to n = n_min."""
    if n_min < 3:
        raise ValueError("n_min must be >= 3 for log log n to be positive")
    if sigma_hat <= 0:
        raise ValueError("sigma_hat must be positive")
    n = np.arange(n_min, traj.horizon + 1, dtype=np.float64)
    dev = np.abs(traj.depths[n_min:].astype(np.float64) - n * v_hat)
    stat = dev / (sigma_hat * np.sqrt(2.0 * n * np.log(np.log(n))))
    return np.maximum.accumulate(stat)


@dataclass
class DegreeHistogram:
    degrees: np.ndarray
    fractions: np.ndarray
    targets: np.ndarray
    deviations: np.ndarray
    n_nodes: int

    def fraction_at(self, d: int) -> float:
        idx = np.flatnonzero(self.degrees == d)
        return float(self.fractions[idx[0]]) if idx.size else 0.0


def cubic_degree_target(d) -> np.ndarray:
    """Reference mass 4 / (d (d+1) (d+2)) for degree d >= 1."""
    d = np.asarray(d, dtype=np.float64)
    return 4.0 / (d * (d + 1.0) * (d + 2.0))


def degree_histogram(tree: RootedTree) -> DegreeHistogram:
    degs = tree.degrees()
    if len(degs) == 0:
        raise ValueError("empty tree")
    counts = np.bincount(degs)
    degrees = np.flatnonzero(counts)
    fractions = counts[degrees] / len(degs)
    targets = cubic_degree_target(degrees)
    return DegreeHistogram(degrees=degrees, fractions=fractions, targets=targets,
                           deviations=fractions - targets, n_nodes=len(degs))


def degree_histogram_to_csv(hist: DegreeHistogram, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "empirical", "target", "deviation"])
        for d, f, t, dev in zip(hist.degrees, hist.fractions, hist.targets,
                                hist.deviations):
            w.writerow([int(d), repr(float(f)), repr(float(t)), repr(float(dev))])


@dataclass
class TailFit:
    times: np.ndarray       # event times with survival drops
    survival: np.ndarray    # Kaplan-Meier survival just after each time
    scale: float            # fitted S(t) ~ scale * exp(-rate * sqrt(t))
    rate: float
    r_squared: float
    n_events: int
    n_censored: int
    degenerate: bool = False


def kaplan_meier(samples: Sequence[float], censored: Sequence[bool]):
    """Product-limit survival over right-censored positive samples.

    Returns (event_times, survival_after_event); censored values only shrink
    the risk set.
    """
    t = np.asarray(samples, dtype=np.float64)
    c = np.asarray(censored, dtype=bool)
    order = np.argsort(t, kind="stable")
    t, c = t[order], c[order]
    times: List[float] = []
    surv: List[float] = []
    s = 1.0
    n_at_risk = len(t)
    i = 0
    while i < len(t):
        v = t[i]
        deaths = 0
        leave = 0
        while i < len(t) and t[i] == v:
            if c[i]:
                leave += 1
            else:
                deaths += 1
            i += 1
        if deaths:
            s *= 1.0 - deaths / n_at_risk
            times.append(v)
            surv.append(s)
        n_at_risk -= deaths + leave
    return np.asarray(times), np.asarray(surv)


def tail_survival(samples: Sequence[float], censored: Optional[Sequence[bool]] = None,
                  min_uncensored: int = 100, fit_floor_count: int = 10) -> TailFit:
    """Kaplan-Meier survival of first-regeneration times plus a least-squares
    fit of log survival against sqrt(t), restricted to points with at least
    ``fit_floor_count / n`` survival mass."""
    samples = np.asarray(samples, dtype=np.float64)
    if censored is None:
        censored = np.zeros(len(samples), dtype=bool)
    censored = np.asarray(censored, dtype=bool)
    n_events = int((~censored).sum())
    if n_events < min_uncensored:
        raise InsufficientBlocksError(
            f"need at least {min_uncensored} uncensored samples, have {n_events}")
    times, surv = kaplan_meier(samples, censored)
    floor = fit_floor_count / len(samples)
    keep = (surv >= floor) & (surv > 0.0)
    if keep.sum() < 3:
        return TailFit(times=times, survival=surv, scale=math.nan, rate=math.nan,
                       r_squared=math.nan, n_events=n_events,
                       n_censored=int(censored.sum()), degenerate=True)
    x = np.sqrt(times[keep])
    y = np.log(surv[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else math.nan
    return TailFit(times=times, survival=surv, scale=float(math.exp(intercept)),
                   rate=float(-slope), r_squared=r2, n_events=n_events,
                   n_censored=int(censored.sum()))


def tail_to_csv(fit: TailFit, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "survival"])
        for t, s in zip(fit.times, fit.survival):
            w.writerow([repr(float(t)), repr(float(s))])


@dataclass
class SpeedCurvePoint:
    p: float
    v_hat: float
    stderr: float
    replicas: int
    horizon: int


def speed_curve_to_csv(points: Sequence[SpeedCurvePoint], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "v_hat", "stderr", "replicas", "horizon"])
        for pt in points:
            w.writerow([repr(pt.p), repr(pt.v_hat), repr(pt.stderr),
                        pt.replicas, pt.horizon])
