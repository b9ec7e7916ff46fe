"""Temporal analyses across a network's life and across many networks.

Join-rate curves track the cumulative fraction of the final population
present over time, kept as two numpy columns (grid times and fractions;
``Jrc.samples`` builds the ``(t, value)`` pairs only when read);
vibrancy compresses a curve into one number (near 1 for networks whose
mass arrives late, near 0 for front-loaded ones) with one trapezoid
call on the columns.
Star emergence across many networks needs no graph held beside
another: ``temponet stars`` holds one network at a time, keeps its
vibrancy class, its active time and its :func:`sparse_star_vector`
(computed at event horizons only, the grid points that follow a
first-link event or a join), and drops the graph.
``w_max_time(active_times, w)`` takes the active times, and
``stars_aggregate(networks, w, interval)`` takes ``(active_time,
vector)`` pairs and aggregates the vectors on the class grid
``interval, 2 * interval, ...`` up to the w-max time, each cut to it
first: entry ``i`` is at ``(i + 1) * interval``, and the lists are
empty when the grid is shorter than one interval.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import k_stars_vector
from .temporal_graph import TemporalGraph, _check_grid, _integer, _positive

# the pair counts join_time_diff_prob holds before it folds them into
# their bins (as many as the bins where those are more)
_PAIRS_HELD = 1 << 18


@dataclass
class Jrc:
    """Join-rate curve sampled on a regular grid, anchored at (0, 0) and
    ending at 1: the grid times ``t`` (int64) and the fractions
    ``value`` (float64) as two numpy columns."""

    t: np.ndarray
    value: np.ndarray

    @property
    def t_max(self) -> int:
        return int(self.t[-1])

    @property
    def samples(self) -> list[tuple[int, float]]:
        """The ``(t, value)`` pairs, built on each read."""
        return list(zip(self.t.tolist(), self.value.tolist()))

    def values(self) -> list[float]:
        return self.value.tolist()

    def times(self) -> list[int]:
        return self.t.tolist()


def jrc(g: TemporalGraph, interval: int) -> Jrc:
    """Sample the join-rate curve on a regular grid, as numpy columns.

    The value at grid time ``t`` is the fraction of vertices that had
    joined strictly before ``t`` (arrivals complete at the end of the
    interval containing them), measured from the first arrival. The
    grid extends one step past the last arrival so the curve always
    closes at 1. A grid of more than 10**7 samples raises
    ``ValueError``, and grid times past the int64 range (an ``interval``
    too large) raise ``OverflowError``. A zero-span network collapses to
    [(0, 0), (0, 1)] once its one-step grid passes both checks.
    """
    if g.n_vertices == 0:
        raise ValueError("cannot compute a join-rate curve for an empty graph")
    interval = _positive("interval", interval)
    span = g.active_time
    steps = span // interval + 1
    _check_grid(steps + 1, interval)
    if g.t_min + steps * interval > np.iinfo(np.int64).max:
        raise OverflowError(f"interval {interval} gives join-rate grid times past the int64 range")
    if span == 0:
        return Jrc(t=np.zeros(2, dtype=np.int64), value=np.array([0.0, 1.0]))
    grid = np.arange(steps + 1, dtype=np.int64) * interval
    counts = np.searchsorted(g.join, g.t_min + grid, side="left")
    return Jrc(t=grid, value=counts / g.n_vertices)


def vibrancy(j: Jrc) -> float:
    """One minus the time-averaged join-rate curve, by the trapezoid
    rule. A zero-span curve scores 0 (all mass arrived at the start)."""
    if j.t_max == 0:
        return 0.0
    return float(1.0 - np.trapezoid(j.value, j.t) / j.t_max)


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

    The pairs are counted in numpy per offset ``k`` of the sorted
    distinct join times, where the times ``k`` apart pair ``counts[k:] *
    counts[:-k]`` vertices, so the time is quadratic in the distinct
    times. The counts are folded into their bins whenever they outnumber
    the bins (and ``_PAIRS_HELD``), so the memory follows the bins.
    """
    if g.n_vertices < 2:
        raise ValueError("need at least 2 vertices")
    bin_width = _positive("bin width", bin_width)
    # join times are non-negative, so as uint64 each difference and any
    # width up to 2**64 - 1 fit; a wider one bins every difference at 0
    join = g.join.view(np.uint64)
    width = np.uint64(min(bin_width, 2**64 - 1))
    times, counts = np.unique(join, return_counts=True)
    bins = [np.zeros(1, dtype=np.uint64)]
    pairs = [(counts * (counts - 1) // 2).sum(keepdims=True)]  # within one time
    held = 0
    for k in range(1, len(times)):
        bins.append((times[k:] - times[:-k]) // width)
        pairs.append(counts[k:] * counts[:-k])
        held += len(times) - k
        if held > max(_PAIRS_HELD, len(bins[0])):
            b, p = _fold(bins, pairs)
            bins, pairs, held = [b], [p], 0
    bins, pairs = _fold(bins, pairs)
    # each connected pair is the one first-link event with v < w; ids
    # follow join order, so join[w] >= join[v], and its bin is in bins
    _, v, w = g.first_links()
    pair = v < w
    diffs = join[w[pair]] - join[v[pair]]
    connected = np.bincount(np.searchsorted(bins, diffs // width), minlength=len(bins))
    return [
        (b * bin_width, c / p)
        for b, c, p in zip(bins.tolist(), connected.tolist(), pairs.tolist())
        if p > 0
    ]


def _fold(bins: list[np.ndarray], pairs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of the arrays ``bins`` and, per value,
    the sum of the ``pairs`` entries at its positions."""
    bins, index = np.unique(np.concatenate(bins), return_inverse=True)
    total = np.zeros(len(bins), dtype=np.int64)
    np.add.at(total, index, np.concatenate(pairs))
    return bins, total


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with each tie group given its mean rank (the
    ``average`` method of ``scipy.stats.rankdata``); all NaN when any
    input is NaN."""
    a = np.asarray(values)
    if np.isnan(a).any():
        return np.full(len(a), np.nan)
    _, group, counts = np.unique(a, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # a tie group holds the ranks ends - counts + 1 .. ends
    return ((2 * ends - counts + 1) / 2)[group]


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


def w_max_time(active_times: Sequence[int], w: int) -> int:
    """The largest horizon at which at least ``w`` of the networks are
    still active: the w-th largest of their active times."""
    w = _integer("w", w)
    if not (1 <= w <= len(active_times)):
        raise ValueError(f"w must be in [1, {len(active_times)}]")
    return sorted(active_times, reverse=True)[w - 1]


def _run_heads(values: np.ndarray) -> np.ndarray:
    """The first value of each run of equal values."""
    head = np.ones(len(values), dtype=bool)
    head[1:] = values[1:] != values[:-1]
    return values[head]


def _event_steps(g: TemporalGraph, interval: int) -> np.ndarray:
    """The steps ``j``, ``1 <= j <= active_time // interval``, of the
    grid ``j * interval`` whose interval ``((j - 1) * interval, j *
    interval]`` holds a first-link event or a join: at most ``n + E`` of
    them. At any other step the degrees and the present vertices are
    those of the step before, so no star can enter there."""
    last = g.active_time // interval
    # both time columns are sorted, so their run heads are each distinct
    # time once, and only those are divided
    events = -(-_run_heads(g.first_links(last * interval)[0]) // interval)
    joins = -(-_run_heads(g.join) // interval)
    steps = np.union1d(events, joins)
    return steps[(steps >= 1) & (steps <= last)]


def sparse_star_vector(g: TemporalGraph, k: int, interval: int) -> list[tuple[int, int]]:
    """A network's star vector on the grid ``interval, 2 * interval,
    ...`` up to its active time, as the ``(index, count)`` pairs of its
    nonzero entries: entry ``i`` is the
    :func:`~temponet.metrics.k_stars_vector` entry at ``(i + 1) *
    interval``. The grid is meant for a zero-based network (see
    :func:`~temponet.ingest.normalize_times`). The vector is evaluated at
    event horizons only, the grid points that follow a first-link event
    or a join, so its cost does not depend on the span; every other
    entry is 0."""
    interval = _positive("interval", interval)
    steps = _event_steps(g, interval)
    counts = k_stars_vector(g, steps * interval, k)
    return [(j - 1, c) for j, c in zip(steps.tolist(), counts) if c]


def stars_aggregate(
    networks: Sequence[tuple[int, Sequence[tuple[int, int]]]], w: int, interval: int
) -> tuple[list[int], list[float], list[float]]:
    """Aggregate star emergence across a sequence of networks.

    Each network is an ``(active_time, vector)`` pair, its star vector
    given by the ``(index, count)`` pairs of its nonzero entries, entry
    ``i`` at ``(i + 1) * interval`` (as :func:`sparse_star_vector` gives
    it). The networks are assumed normalized (first arrival at time 0),
    so one grid time ``t_i = (i + 1) * interval`` means the same elapsed
    time in each. The grid runs to the w-max time, and its lists are
    empty when that is shorter than one interval. Every vector is cut
    to the grid times within its network's active time before its star
    number is summed; a vector's entries depend only on earlier grid
    times, so the cut equals the vector computed on the shorter grid.
    For each grid time: ``total[i]`` sums the new-star counts of every
    network still active at ``t_i``; ``avg[i]`` divides by the number of
    such networks; ``norm_avg[i]`` averages each network's new-star
    count normalized by its own total star number, skipping networks
    that never produced a star. An ``interval`` below 1 or a grid of more
    than 10**7 points raises ``ValueError``.
    """
    if not networks:
        raise ValueError("no networks to aggregate")
    interval = _positive("interval", interval)
    spans = sorted(active_time for active_time, _ in networks)
    m = w_max_time(spans, w) // interval
    _check_grid(m, interval)
    total = [0] * m
    norm_sum = [0.0] * m
    starred = []  # active times of the networks with a star on the grid
    for active_time, vector in networks:
        end = min(m, active_time // interval)
        entries = [(i, count) for i, count in vector if i < end]
        number = sum(count for _, count in entries)
        for i, count in entries:
            total[i] += count
        if number > 0:
            starred.append(active_time)
            for i, count in entries:
                norm_sum[i] += count / number
    # a network is active at t while t <= its active time
    starred.sort()
    grid = range(interval, m * interval + 1, interval)
    active = [len(spans) - bisect.bisect_left(spans, t) for t in grid]
    norm_n = [len(starred) - bisect.bisect_left(starred, t) for t in grid]
    avg = [total[i] / active[i] if active[i] else 0.0 for i in range(m)]
    norm_avg = [norm_sum[i] / norm_n[i] if norm_n[i] else 0.0 for i in range(m)]
    return total, avg, norm_avg
