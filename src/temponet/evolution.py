"""Temporal analyses across a network's life and across collections.

Join-rate curves track the cumulative fraction of the final population
present over time; vibrancy compresses a curve into one number (near 1
for networks whose mass arrives late, near 0 for front-loaded ones).
Collection-level helpers aggregate star-emergence vectors across many
networks on a shared horizon grid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import k_stars_number, k_stars_vector
from .temporal_graph import TemporalGraph


@dataclass
class Jrc:
    """Sampled join-rate curve, anchored at (0, 0) and ending at 1."""

    samples: list[tuple[int, float]]
    t_max: int

    def values(self) -> list[float]:
        return [v for _, v in self.samples]

    def times(self) -> list[int]:
        return [t for t, _ in self.samples]

    def to_csv(self, path) -> None:
        with open(str(path), "w") as fh:
            fh.write("t,value\n")
            for t, value in self.samples:
                fh.write(f"{t},{value!r}\n")

    def to_json(self) -> list[list[float]]:
        return [[t, value] for t, value in self.samples]


def jrc(g: TemporalGraph, interval: int) -> Jrc:
    """Sample the join-rate curve on a regular grid.

    The value at grid time ``t`` is the fraction of vertices that had
    joined strictly before ``t`` (arrivals complete at the end of the
    interval containing them), measured from the first arrival. The
    grid extends one step past the last arrival so the curve always
    closes at 1. A zero-span network collapses to [(0, 0), (0, 1)].
    """
    if g.n_vertices == 0:
        raise ValueError("cannot compute a join-rate curve for an empty graph")
    if interval <= 0:
        raise ValueError("interval must be positive")
    span = g.active_time
    if span == 0:
        return Jrc(samples=[(0, 0.0), (0, 1.0)], t_max=0)
    t0 = g.t_min
    n = g.n_vertices
    joins = np.array(g.join_times, dtype=np.int64)  # non-decreasing by construction
    steps = span // interval + 1
    grid = np.arange(steps + 1, dtype=np.int64) * interval
    counts = np.searchsorted(joins, t0 + grid, side="left")
    samples = [(t, c / n) for t, c in zip(grid.tolist(), counts.tolist())]
    return Jrc(samples=samples, t_max=samples[-1][0])


def vibrancy(j: Jrc) -> float:
    """One minus the time-averaged join-rate curve, by the trapezoid
    rule. A zero-span curve scores 0 (all mass arrived at the start)."""
    if j.t_max == 0:
        return 0.0
    xs = np.array(j.times(), dtype=float)
    ys = np.array(j.values(), dtype=float)
    area = np.trapezoid(ys, xs)
    return float(1.0 - area / (xs[-1] - xs[0]))


def classify_vibrancy(v: float, threshold: float = 0.5) -> str:
    """``"fast"`` strictly above the threshold, else ``"slow"``."""
    return "fast" if v > threshold else "slow"


def join_time_diff_prob(g: TemporalGraph, bin_width: int = 1) -> list[tuple[int, float]]:
    """Estimate the connection probability as a function of the join-time
    difference between two vertices.

    For each bin of absolute join-time differences, the estimate is the
    number of connected (unordered, distinct) vertex pairs in the bin
    divided by the number of all vertex pairs in the bin. Bins without
    any eligible pair are omitted. Returns ``(bin_lower_bound, prob)``
    sorted by difference.
    """
    if g.n_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    counts = Counter(g.join_times)
    times = sorted(counts)
    pairs: Counter = Counter()
    for i, t1 in enumerate(times):
        c1 = counts[t1]
        pairs[0] += c1 * (c1 - 1) // 2
        for t2 in times[i + 1 :]:
            pairs[(t2 - t1) // bin_width] += c1 * counts[t2]
    # each connected pair is the one first-link event with v < w
    _, v, w = g.first_links()
    pair = v < w
    joins = g.join_times
    connected = Counter(
        abs(joins[a] - joins[b]) // bin_width for a, b in zip(v[pair].tolist(), w[pair].tolist())
    )
    return [
        (b * bin_width, connected.get(b, 0) / p)
        for b, p in sorted(pairs.items())
        if p > 0
    ]


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with each tie group given its mean rank (the
    ``average`` method of ``scipy.stats.rankdata``); all NaN when any
    input is NaN."""
    a = np.asarray(values)
    if np.isnan(a).any():
        return np.full(len(a), np.nan)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(a)]
    group = np.repeat(np.arange(len(starts)), ends - starts)
    ranks = np.empty(len(a))
    ranks[order] = ((starts + ends + 1) / 2)[group]
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation: Pearson correlation of average ranks,
    with ties receiving their mean rank. ``None`` when either input is
    constant (ranks carry no signal)."""
    if len(xs) != len(ys):
        raise ValueError("inputs must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least 2 observations")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    if rx.std() == 0 or ry.std() == 0:
        return None
    return float(np.corrcoef(rx, ry)[0, 1])


@dataclass
class NetworkCollection:
    """A set of networks analyzed on aligned horizon grids.

    Every network carries its own horizon series; series across the
    collection must share the same step so that entry ``i`` refers to
    the same elapsed time in every network. Networks are assumed
    normalized (first arrival at time 0).
    """

    networks: list[tuple[TemporalGraph, list[int]]]

    @classmethod
    def from_graphs(cls, graphs: Sequence[TemporalGraph], interval: int) -> "NetworkCollection":
        """Build aligned horizon series ``interval, 2*interval, ...`` up
        to each network's own active time."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        entries = []
        for g in graphs:
            horizons = list(range(interval, g.active_time + 1, interval))
            entries.append((g, horizons))
        return cls(entries)

    def __len__(self) -> int:
        return len(self.networks)


def w_max_time(c: NetworkCollection, w: int) -> int:
    """The largest horizon at which at least ``w`` networks in the
    collection are still active: the w-th largest active time."""
    if not (1 <= w <= len(c)):
        raise ValueError(f"w must be in [1, {len(c)}]")
    spans = sorted((g.active_time for g, _ in c.networks), reverse=True)
    return spans[w - 1]


def stars_aggregate(
    c: NetworkCollection, k: int, w: int, horizons: Sequence[int]
) -> tuple[list[int], list[float], list[float]]:
    """Aggregate star emergence across a collection.

    For each horizon ``t_i``: ``total[i]`` sums the new-star counts of
    every network still active at ``t_i``; ``avg[i]`` divides by the
    number of such networks; ``norm_avg[i]`` averages each network's
    new-star count normalized by its own total star number, skipping
    networks that never produced a star.
    """
    if not len(c):
        raise ValueError("empty collection")
    cap = w_max_time(c, w)
    horizons = list(horizons)
    if not horizons:
        raise ValueError("horizons must be non-empty")
    if horizons[-1] > cap:
        raise ValueError(
            f"horizons extend to {horizons[-1]} but only {w} networks reach {cap}"
        )
    m = len(horizons)
    total = [0] * m
    active = [0] * m
    norm_sum = [0.0] * m
    norm_n = [0] * m
    for g, series in c.networks:
        local = [t for t in horizons if t <= g.active_time]
        for i, t in enumerate(local):
            if i < len(series) and series[i] != t:
                raise ValueError("network horizon series is not aligned with horizons")
        vec = k_stars_vector(g, local, k)
        number = k_stars_number(vec)
        for i, value in enumerate(vec):
            total[i] += value
            active[i] += 1
            if number > 0:
                norm_sum[i] += value / number
                norm_n[i] += 1
    avg = [total[i] / active[i] if active[i] else 0.0 for i in range(m)]
    norm_avg = [norm_sum[i] / norm_n[i] if norm_n[i] else 0.0 for i in range(m)]
    return total, avg, norm_avg
