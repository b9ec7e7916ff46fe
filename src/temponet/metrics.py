"""Per-snapshot topological features and the top-k star machinery.

Clustering and shortest paths run on the snapshot's undirected
projection even for directed graphs; density treats each undirected
edge as two directed links. Undefined values are returned as ``None``
and serialize to JSON null.

Both run on the snapshot adjacency, a pair ``(indptr, indices)`` of
numpy arrays in compressed-row form: the neighbours of vertex ``v`` are
``indices[indptr[v]:indptr[v + 1]]``, in no particular order. It is cut
from the graph's first-link events up to the horizon, which hold each
undirected pair once per endpoint, so both directions are present.

Triangles are counted by the degree-ordered forward algorithm; the giant
component comes from min-label propagation, each component labelled by
its smallest id; the mean shortest path is a bit-packed multi-source
BFS over the giant, 64 sources per ``uint64`` word (numpy 2.0 or later
for ``np.bitwise_count``). Triangle counts and the path-length sum are
exact integers.

Star vectors read the first-link events once, in time order, and keep
the top-k set from one horizon to the next. A horizon whose events
number at most an eighth of the present vertices, with the set full,
takes the Python step: only the vertices those events touch can enter,
so each is tested against the weakest member. Any other horizon takes
the numpy step, which ranks every present vertex.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, asdict
from typing import Iterable, Sequence

import numpy as np

from .temporal_graph import Snapshot, TemporalGraph

_SP_BLOCK = 512
_GAMMA_MIN_TAIL = 50


@dataclass
class FeatureVector:
    """Flat feature record for one snapshot."""

    vertices: int
    edges: int
    density: float | None
    avg_clustering: float | None
    avg_shortest_path: float | None
    max_degree: int
    gamma: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _undirected_simple_csr(s: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` adjacency of the snapshot's undirected
    projection with self-loops dropped and parallel edges collapsed: the
    first-link events up to the horizon, one per ordered pair, minus the
    loops, grouped by source. An edge never precedes its endpoints'
    join, so every id is below ``s.n_vertices``."""
    _, v, w = s.parent.first_links(s.horizon)
    link = v != w
    v, w = v[link], w[link]
    indptr = np.zeros(s.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(v, minlength=s.n_vertices), out=indptr[1:])
    return indptr, w[np.argsort(v, kind="stable")]


def density(s: Snapshot) -> float | None:
    """Edges over ordered vertex pairs; undirected edges count twice
    (each is treated as two directed links). ``None`` below 2 vertices."""
    n = s.n_vertices
    if n < 2:
        return None
    if s.directed:
        count = s.n_edges
    else:
        p = s.parent
        loops = int(np.count_nonzero((p.u == p.v) & (p.t <= s.horizon)))
        count = 2 * (s.n_edges - loops) + loops
    return count / (n * (n - 1))


def avg_clustering(s: Snapshot) -> float | None:
    """Mean local clustering coefficient over all vertices; vertices of
    degree below 2 contribute 0. Runs on the undirected projection."""
    n = s.n_vertices
    if n == 0:
        return None
    indptr, indices = _undirected_simple_csr(s)
    deg = np.diff(indptr)
    closed = 2 * _triangles_per_vertex(indptr, indices)  # ordered neighbour pairs
    possible = np.maximum(deg * (deg - 1), 1)
    return float((closed / possible).mean())


def _triangles_per_vertex(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    # Degree-ordered forward algorithm (Schank & Wagner, WEA 2005): each
    # edge points from the lower to the higher (degree, id) rank, so a
    # triangle is found once, as a pair of out-neighbours of its lowest
    # vertex that are linked; out-degrees stay below sqrt(2 * edges).
    n = len(indptr) - 1
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n), deg)
    rank = deg * n + np.arange(n)  # unique, ordered by (degree, id)
    forward = rank[rows] < rank[indices]
    src, dst = rows[forward], indices[forward].astype(np.int64)  # grouped by src
    out_end = np.cumsum(np.bincount(src, minlength=n))[src]
    # every out-edge pairs with the out-edges after it in its row
    pos = np.arange(len(src))
    later = out_end - pos - 1
    first = np.repeat(pos, later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    a, b = dst[first], dst[second]
    upper = rows < indices
    keys = np.sort(rows[upper] * n + indices[upper])  # each edge once, as lo * n + hi
    wedge = np.minimum(a, b) * n + np.maximum(a, b)
    # clipped so a key above every edge still indexes; no edge means no wedge
    hit = keys[np.minimum(np.searchsorted(keys, wedge), len(keys) - 1)] == wedge
    return (
        np.bincount(src[first[hit]], minlength=n)
        + np.bincount(a[hit], minlength=n)
        + np.bincount(b[hit], minlength=n)
    )


def avg_shortest_path(s: Snapshot) -> float | None:
    """Mean pairwise distance over the largest connected component of
    the undirected projection, the one holding the smallest id among
    equal largest; ``None`` when no component has 2+ vertices."""
    if s.n_vertices < 2:
        return None
    indptr, indices = _undirected_simple_csr(s)
    members = _giant_component(indptr, indices)
    size = int(np.count_nonzero(members))
    if size < 2:
        return None
    # the giant's rows, renumbered in id order; no edge leaves it
    deg = np.diff(indptr)
    sub_indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(deg[members], out=sub_indptr[1:])
    new_id = np.cumsum(members) - 1
    return _mean_bfs_distance(sub_indptr, new_id[indices[np.repeat(members, deg)]])


def _giant_component(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Mask of the largest connected component, the one holding the
    smallest id among equal largest.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 1982): ``label[v]`` always names a vertex of ``v``'s
    component no larger than ``v``. Each round hooks the root of every
    edge's one end under the other end's label where that is smaller,
    then jumps pointers until every label is a root; once no edge joins
    two labels, each component's label is its smallest id.
    """
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    label = np.arange(n)
    while True:
        np.minimum.at(label, label[rows], label[indices])
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
        if (label[rows] == label[indices]).all():
            # argmax takes the first of equal counts: the smaller label
            return label == np.bincount(label).argmax()


def _mean_bfs_distance(indptr: np.ndarray, indices: np.ndarray) -> float:
    # Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    # VLDB 2014): each block of up to _SP_BLOCK sources is a bit column
    # in (n, words) uint64 arrays, so one level ORs the frontier words of
    # every CSR row's neighbours with ``reduceat``; no row is empty, as
    # the graph is one component of 2+ vertices. The path-length sum is
    # an exact Python int over all n * (n - 1) ordered pairs.
    n = len(indptr) - 1
    row_starts = indptr[:-1]
    total = 0
    for start in range(0, n, _SP_BLOCK):
        b = min(_SP_BLOCK, n - start)
        bit = np.arange(b)
        visited = np.zeros((n, -(-b // 64)), dtype=np.uint64)
        visited[start + bit, bit >> 6] = np.uint64(1) << (bit & 63).astype(np.uint64)
        frontier = visited.copy()
        depth = 0
        while True:
            depth += 1
            frontier = np.bitwise_or.reduceat(frontier[indices], row_starts, axis=0)
            frontier &= ~visited
            reached = int(np.bitwise_count(frontier).sum())
            if not reached:
                break
            visited |= frontier
            total += depth * reached
    return total / (n * (n - 1))


def _top_k(degrees: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``min(k, len(degrees))`` highest-degree vertices, ties
    broken toward the smaller id.

    Ids follow join order, so ranking by ``(-degree, id)`` equals ranking
    by ``(-degree, join time, id)``. The score ``degree * nv + (nv - 1 -
    id)`` is unique per vertex and orders exactly that way, so a partial
    sort picks the set a full sort would.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    nv = len(degrees)
    if k >= nv:
        return np.arange(nv)
    score = degrees * nv + np.arange(nv - 1, -1, -1)
    return np.argpartition(score, nv - k)[nv - k :]


def k_stars_set(s: Snapshot, k: int) -> set[int]:
    """The ``min(k, |V|)`` vertices with the highest degree at the
    snapshot horizon. Ties break toward earlier join time, then smaller
    id, which keeps star vectors reproducible."""
    degrees = np.array(s.degrees(), dtype=np.int64)
    return set(_top_k(degrees, k).tolist())


def k_stars_vector(g: TemporalGraph, horizons: Sequence[int], k: int) -> list[int]:
    """Count newly emerging stars per horizon.

    Entry ``i`` is the number of vertices in the top-k at ``horizons[i]``
    that were not in the top-k at time 0 or at any earlier horizon. The
    time-0 star set is empty when no vertex has joined by time 0.

    One sweep over the first-link events in time order keeps the top-k
    set from one horizon to the next. Degrees only grow, and a vertex
    that joins later has a larger id, so once the set holds k vertices
    only those touched by the horizon's events can enter it. A horizon
    with few events (``8 * events <= nv``) and a full set takes the
    Python step: it adds the events to a degree list and admits each
    touched non-member that beats the weakest member, found on a heap of
    members that re-scores a member whose degree rose when it surfaces.
    Every other horizon takes the numpy step: the degree array catches
    up on the events since its last sync and ``_top_k`` ranks every
    present vertex. The degree list and heap are rebuilt from the array
    when a Python step follows a numpy one.
    """
    prev = None
    for t in horizons:
        if prev is not None and t <= prev:
            raise ValueError("horizons must be strictly increasing")
        prev = t
    # the degree of v at t counts v's events at or before t
    ev_t, ev_v, _ = g.first_links()
    n = g.n_vertices
    points = np.array([0, *horizons], dtype=np.int64)
    ends = np.searchsorted(ev_t, points, side="right").tolist()
    present = np.searchsorted(np.asarray(g.join, dtype=np.int64), points, side="right").tolist()

    degrees = np.zeros(n, dtype=np.int64)  # counts events[:synced]
    seen = np.zeros(n, dtype=bool)
    synced = done = 0
    full = False
    deg = None  # degree list, heap and member set of the Python step
    vector = []
    for i, (end, nv) in enumerate(zip(ends, present)):
        # horizons below 0 have nv = 0 and end = 0: the numpy step
        # empties the set there, and the next step catches up from synced
        if full and k <= nv and 8 * (end - done) <= nv:
            if deg is None:
                deg = degrees.tolist()
                members = set(stars.tolist())
                heap = [(deg[v] * n - v, v) for v in members]  # orders as (-degree, id)
                heapq.heapify(heap)
            touched = ev_v[done:end].tolist()
            for v in touched:
                deg[v] += 1
            entered = []
            for v in touched:
                score = deg[v] * n - v
                # stored scores only lag, so one below the top cannot enter
                if v in members or score < heap[0][0]:
                    continue
                while True:  # settle the weakest, re-scoring members that rose
                    low, w = heap[0]
                    now = deg[w] * n - w
                    if low == now:
                        break
                    heapq.heapreplace(heap, (now, w))
                if score > low:
                    heapq.heapreplace(heap, (score, v))
                    members.remove(w)
                    members.add(v)
                    entered.append(v)
            count = 0
            for v in entered:  # one may have been pushed out again
                if v in members and not seen[v]:
                    seen[v] = True
                    count += 1
        else:
            if end > synced:
                degrees += np.bincount(ev_v[synced:end], minlength=n)
                synced = end
            stars = _top_k(degrees[:nv], k)
            full = len(stars) == k
            deg = None
            count = int(np.count_nonzero(~seen[stars]))
            seen[stars] = True
        if i:
            vector.append(count)
        done = end
    return vector


def k_stars_number(vector: Sequence[int]) -> int:
    """Total distinct vertices that ever entered the top-k: the sum of
    the star-vector entries."""
    return int(sum(vector))


def power_law_gamma(degrees: Iterable[int], x_min: int) -> float | None:
    """Continuous maximum-likelihood exponent for the degree tail.

    Fits ``d ** -gamma`` to the degrees at or above ``x_min`` using the
    half-step-shifted estimator suited to integer data. Returns ``None``
    with fewer than 50 tail samples or a degenerate (constant) tail.
    """
    if x_min < 1:
        raise ValueError("x_min must be positive")
    tail = [d for d in degrees if d >= x_min]
    if len(tail) < _GAMMA_MIN_TAIL:
        return None
    if min(tail) == max(tail):
        return None
    shift = x_min - 0.5
    log_sum = sum(math.log(d / shift) for d in tail)
    if log_sum == 0:
        return None
    return 1.0 + len(tail) / log_sum


def compute_features(s: Snapshot, *, gamma_x_min: int = 2) -> FeatureVector:
    """Assemble the full per-snapshot feature battery."""
    degrees = s.degrees()
    return FeatureVector(
        vertices=s.n_vertices,
        edges=s.n_edges,
        density=density(s),
        avg_clustering=avg_clustering(s),
        avg_shortest_path=avg_shortest_path(s),
        max_degree=max(degrees, default=0),
        gamma=power_law_gamma(degrees, gamma_x_min),
    )
