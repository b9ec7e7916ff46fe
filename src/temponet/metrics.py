"""Per-snapshot topological features and the top-k star machinery.

Clustering and shortest paths run on the snapshot's undirected
projection even for directed graphs; density treats each undirected
edge as two directed links. Undefined values are returned as ``None``
and serialize to JSON null.

The mean shortest path comes from a bit-packed multi-source BFS over
the giant component, 64 sources per ``uint64`` word (numpy 2.0 or later
for ``np.bitwise_count``); its path-length sum is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

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


def _undirected_simple_csr(s: Snapshot) -> sp.csr_matrix:
    """Boolean adjacency of the snapshot's undirected projection with
    self-loops dropped and parallel edges collapsed."""
    n = s.n_vertices
    pairs = {(u, v) if u < v else (v, u) for u, v, _ in s.edges() if u != v}
    if not pairs or n == 0:
        return sp.csr_matrix((n, n), dtype=bool)
    arr = np.array(sorted(pairs), dtype=np.int64)
    rows = np.concatenate([arr[:, 0], arr[:, 1]])
    cols = np.concatenate([arr[:, 1], arr[:, 0]])
    data = np.ones(len(rows), dtype=bool)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def density(s: Snapshot) -> float | None:
    """Edges over ordered vertex pairs; undirected edges count twice
    (each is treated as two directed links). ``None`` below 2 vertices."""
    n = s.n_vertices
    if n < 2:
        return None
    if s.directed:
        count = s.n_edges
    else:
        loops = sum(1 for u, v, _ in s.edges() if u == v)
        count = 2 * (s.n_edges - loops) + loops
    return count / (n * (n - 1))


def avg_clustering(s: Snapshot) -> float | None:
    """Mean local clustering coefficient over all vertices; vertices of
    degree below 2 contribute 0. Runs on the undirected projection."""
    n = s.n_vertices
    if n == 0:
        return None
    adj = _undirected_simple_csr(s).astype(np.int32)  # counts, not booleans
    deg = np.asarray(adj.sum(axis=1)).ravel().astype(np.int64)
    # (A @ A) masked by A counts, per row, ordered neighbour pairs that
    # close a triangle; each triangle at v is counted twice.
    closed = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel()
    possible = np.maximum(deg * (deg - 1), 1)
    return float((closed / possible).mean())


def avg_shortest_path(s: Snapshot) -> float | None:
    """Mean pairwise distance over the largest connected component of
    the undirected projection; ``None`` when no component has 2+
    vertices."""
    if s.n_vertices < 2:
        return None
    adj = _undirected_simple_csr(s)
    if adj.nnz == 0:
        return None
    _, labels = connected_components(adj, directed=False)
    giant = np.argmax(np.bincount(labels))
    idx = np.where(labels == giant)[0]
    if len(idx) < 2:
        return None
    sub = sp.csr_matrix(adj[idx][:, idx])
    return _mean_bfs_distance(sub)


def _mean_bfs_distance(adj: sp.csr_matrix) -> float:
    # Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    # VLDB 2014): each block of up to _SP_BLOCK sources is a bit column
    # in (n, words) uint64 arrays, so one level ORs the frontier words of
    # every CSR row's neighbours with ``reduceat``; no row is empty, as
    # the graph is one component of 2+ vertices. The path-length sum is
    # an exact Python int over all n * (n - 1) ordered pairs.
    n = adj.shape[0]
    indices, row_starts = adj.indices, adj.indptr[:-1]
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
    """
    prev = None
    for t in horizons:
        if prev is not None and t <= prev:
            raise ValueError("horizons must be strictly increasing")
        prev = t
    # One sweep over first-link events in time order: the degree of v at
    # t counts v's events at or before t. Built per call, not kept on the
    # graph, so the arrays live only while the vector is computed.
    firsts = g._first_link_times
    n = len(firsts)
    sizes = np.fromiter(map(len, firsts), dtype=np.int64, count=n)
    ev_t = np.fromiter(chain.from_iterable(firsts), dtype=np.int64, count=int(sizes.sum()))
    order = np.argsort(ev_t, kind="stable")
    ev_t = ev_t[order]
    ev_v = np.repeat(np.arange(n), sizes)[order]
    points = np.array([0, *horizons], dtype=np.int64)
    ends = np.searchsorted(ev_t, points, side="right").tolist()
    present = np.searchsorted(np.array(g.join_times, dtype=np.int64), points, side="right").tolist()

    degrees = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    done = 0
    vector = []
    for i, (end, nv) in enumerate(zip(ends, present)):
        # end drops below done only at horizons below 0, where no vertex
        # has joined, so the time-0 degrees kept there are never read
        if end > done:
            degrees += np.bincount(ev_v[done:end], minlength=n)
            done = end
        stars = _top_k(degrees[:nv], k)
        if i:
            vector.append(int(np.count_nonzero(~seen[stars])))
        seen[stars] = True
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
