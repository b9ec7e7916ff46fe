"""Topological features of a graph, and the top-k star machinery.

Every graph is undirected and simple, so density is ``2 * edges / (n *
(n - 1))``. Undefined values are returned as ``None`` and serialize to
JSON null.

A feature is of the graph it is given; a snapshot is the graph that
:meth:`~temponet.temporal_graph.TemporalGraph.snapshot_at` returns, and
a whole graph is its own last snapshot. Clustering, shortest paths and
star sets read the graph's pairs ``(v, w)`` as stored: its first-link
events, which hold each edge once per endpoint, so both directions are
present. Every id is below ``n_vertices``, so ``np.bincount(v,
minlength=n_vertices)`` is exactly one degree per vertex. The only
compressed-row adjacency is the giant's, built for the BFS with its rows
numbered by falling degree.

Triangle counts and the shortest-path length sum are exact integers.
The giant component, the BFS behind the mean shortest path (numpy 2.0
or later, for ``np.bitwise_count``) and the star-vector sweep are
described where they are defined: :func:`_giant_component`,
:func:`_mean_bfs_distance` and :func:`k_stars_vectors`.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from .temporal_graph import TemporalGraph, _int_column, _positive

# sources per block of a giant above _SP_ONE_BLOCK vertices (1024 took
# about 6% less time on 6200-vertex giants, but doubles the dense step's
# gather buffer there, 2.4 to 4.8 MB)
_SP_BLOCK = 512
_SP_ONE_BLOCK = 1024
# a BFS level whose frontier rows hold fewer than this share of the nnz
# edge slots takes the sparse step (on the 700-vertex giants of compare,
# 0.1 to 0.5 measured within about 5% of each other; on 6200-vertex
# giants 0.2 took 12-16% less time than 0.4)
_SP_SPARSE = 0.4
# neighbour slots per row that the dense BFS step ORs as contiguous slabs
_SP_SLABS = 16
_GAMMA_MIN_TAIL = 50


def density(g: TemporalGraph) -> float | None:
    """Edges over vertex pairs, ``2 * edges / (n * (n - 1))``; ``None``
    below 2 vertices."""
    n = g.n_vertices
    if n < 2:
        return None
    return 2 * g.n_edges / (n * (n - 1))


def avg_clustering(g: TemporalGraph) -> float | None:
    """Mean local clustering coefficient over all vertices; vertices of
    degree below 2 contribute 0."""
    n = g.n_vertices
    if n == 0:
        return None
    _, v, w = g.first_links()
    deg = np.bincount(v, minlength=n)
    closed = 2 * _triangles_per_vertex(deg, v, w)  # ordered neighbour pairs
    possible = np.maximum(deg * (deg - 1), 1)
    return float((closed / possible).mean())


def _triangles_per_vertex(deg: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Degree-ordered forward algorithm (Schank & Wagner, WEA 2005): each
    # edge points from the lower to the higher (degree, id) rank, so a
    # triangle is found once, as a pair of out-neighbours of its lowest
    # vertex that are linked; out-degrees stay below sqrt(2 * edges).
    n = len(deg)
    rank = deg * n + np.arange(n)  # unique, ordered by (degree, id)
    forward = rank[v] < rank[w]
    src, dst = v[forward], w[forward]
    order = np.argsort(src)  # the out-edges grouped by source
    src, dst = src[order], dst[order]
    out_end = np.cumsum(np.bincount(src, minlength=n))[src]
    # every out-edge pairs with the out-edges after it in its row
    pos = np.arange(len(src))
    later = out_end - pos - 1
    first = np.repeat(pos, later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    a, b = dst[first], dst[second]
    upper = v < w
    keys = np.sort(v[upper] * n + w[upper])  # each edge once, as lo * n + hi
    wedge = np.minimum(a, b) * n + np.maximum(a, b)
    # clipped so a key above every edge still indexes; no edge means no wedge
    hit = keys[np.minimum(np.searchsorted(keys, wedge), len(keys) - 1)] == wedge
    return (
        np.bincount(src[first[hit]], minlength=n)
        + np.bincount(a[hit], minlength=n)
        + np.bincount(b[hit], minlength=n)
    )


def avg_shortest_path(g: TemporalGraph) -> float | None:
    """Mean pairwise distance over the largest connected component, the
    one holding the smallest id among equal largest; ``None`` when no
    component has 2+ vertices."""
    n = g.n_vertices
    if n < 2:
        return None
    _, v, w = g.first_links()
    members = _giant_component(n, v, w)
    giant = np.flatnonzero(members)
    if len(giant) < 2:
        return None
    # the giant renumbered by falling degree, ties by id; no edge leaves it
    deg = np.bincount(v, minlength=n)
    order = giant[np.argsort(-deg[giant], kind="stable")]
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(len(giant))
    inside = members[v]
    v, w = new_id[v[inside]], new_id[w[inside]]
    indptr = np.zeros(len(giant) + 1, dtype=np.int64)
    np.cumsum(deg[order], out=indptr[1:])
    return _mean_bfs_distance(indptr, w[np.argsort(v)], new_id[giant])


def _giant_component(n: int, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mask of the largest connected component of the ``n`` vertices
    linked by the pairs ``(v, w)``, the one holding the smallest id
    among equal largest.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 1982): ``label[v]`` always names a vertex of ``v``'s
    component no larger than ``v``. Each round hooks the root of every
    edge's one end under the other end's label where that is smaller,
    then jumps pointers until every label is a root; once no edge joins
    two labels, each component's label is its smallest id.
    """
    label = np.arange(n)
    while True:
        np.minimum.at(label, label[v], label[w])
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
        if (label[v] == label[w]).all():
            # argmax takes the first of equal counts: the smaller label
            return label == np.bincount(label).argmax()


def _mean_bfs_distance(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> float:
    # Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    # VLDB 2014): a block of sources is a bit column in (n, words) uint64
    # arrays; a giant of up to _SP_ONE_BLOCK vertices is one block of all
    # its sources, a larger one is cut into blocks of _SP_BLOCK. A level
    # ORs the frontier words of each vertex's neighbours into the next
    # frontier by one of two steps, chosen at every level from the edge
    # count of the frontier's rows, as in direction-optimizing BFS
    # (Beamer, Asanovic & Patterson, SC 2012). Below _SP_SPARSE * nnz,
    # the sparse push step gathers only those rows' CSR slices, sorts
    # their targets and ``reduceat``s per target. Otherwise the dense step
    # gathers all nnz neighbour words straight into a preallocated buffer,
    # with no temporary, and ORs them per row. The dense step keeps the
    # full frontier array in place; it is converted to rows and words only
    # at a switch. No row is empty, as the graph is one component of 2+
    # vertices. The path-length sum is an exact int over all n * (n - 1)
    # ordered pairs.
    #
    # ``reduceat`` costs per row it reads, so the dense step ORs most
    # words as contiguous slabs instead. The rows must come in falling
    # degree order, so the j-th neighbours of all rows of degree above j
    # form one slab that ORs into a prefix of the rows. The slots from
    # _SP_SLABS on, held by the few rows of higher degree, are
    # ``reduceat`` per row. Each block takes the next rows of
    # ``sources``, which lists every row once in original id order: a
    # block of consecutive ids keeps the frontier of a deep graph thin.
    n = len(indptr) - 1
    deg = np.diff(indptr)
    # the neighbours slab after slab, then the later slots row by row
    row = np.repeat(np.arange(n), deg)
    slot = np.arange(len(indices)) - indptr[row]
    layout = indices[np.argsort(np.where(slot < _SP_SLABS, slot * n, _SP_SLABS * n) + row)]
    # slab j holds slot j of the rows of degree above j, a prefix of the rows
    slab_rows = np.count_nonzero(deg[:, None] > np.arange(min(_SP_SLABS, deg[0])), axis=0)
    slab_at = np.cumsum(slab_rows) - slab_rows
    slabs = list(zip(slab_at[1:].tolist(), slab_rows[1:].tolist()))  # slab 0 is copied
    tail_rows = int(np.count_nonzero(deg > _SP_SLABS))
    tail_deg = deg[:tail_rows] - _SP_SLABS
    tail_starts = np.cumsum(tail_deg) - tail_deg
    tail_at = int(slab_rows.sum())
    sparse_below = _SP_SPARSE * len(indices)
    block = n if n <= _SP_ONE_BLOCK else _SP_BLOCK
    total = 0
    for start in range(0, n, block):
        b = min(block, n - start)
        bit = np.arange(b)
        width = -(-b // 64)
        # the frontier's non-empty rows and, while sparse steps run, their words
        rows = sources[start : start + b]
        words = np.zeros((b, width), dtype=np.uint64)
        words[bit, bit >> 6] = np.uint64(1) << (bit & 63).astype(np.uint64)
        unvisited = np.full((n, width), ~np.uint64(0))
        unvisited[rows] ^= words
        frontier = None  # the full frontier array while dense steps run
        dense = False
        depth = 0
        while True:
            depth += 1
            row_deg = deg[rows]
            if row_deg.sum() < sparse_below:
                if dense:
                    words, dense = np.take(frontier, rows, axis=0), False
                ends = np.cumsum(row_deg)
                slots = np.arange(ends[-1]) + np.repeat(indptr[rows] - ends + row_deg, row_deg)
                # one sort of target * r + source orders the pairs by target
                r = len(rows)
                pairs = np.sort(indices[slots] * r + np.repeat(np.arange(r), row_deg))
                targets = pairs // r
                heads = np.empty(len(pairs), dtype=bool)
                heads[0] = True
                np.not_equal(targets[1:], targets[:-1], out=heads[1:])
                heads = np.flatnonzero(heads)
                words = np.bitwise_or.reduceat(
                    np.take(words, pairs - targets * r, axis=0), heads, axis=0
                )
                rows = targets[heads]
                left = np.take(unvisited, rows, axis=0)
                words &= left
                unvisited[rows] = left ^ words
            else:
                if not dense:
                    if frontier is None:
                        frontier = np.empty((n, width), dtype=np.uint64)
                        following = np.empty_like(frontier)
                        gathered = np.empty((len(indices), width), dtype=np.uint64)
                        tail = np.empty((tail_rows, width), dtype=np.uint64)
                    frontier.fill(0)
                    frontier[rows] = words
                    dense = True
                # under the default mode="raise", np.take with out= writes
                # to a temporary and copies it; "clip" writes to gathered
                # directly, and never clamps, as layout holds rows below n
                np.take(frontier, layout, axis=0, out=gathered, mode="clip")
                np.copyto(following, gathered[:n])  # every row has a neighbour
                for at, count in slabs:
                    head = following[:count]
                    np.bitwise_or(head, gathered[at : at + count], out=head)
                if tail_rows:
                    np.bitwise_or.reduceat(gathered[tail_at:], tail_starts, axis=0, out=tail)
                    following[:tail_rows] |= tail
                following &= unvisited
                unvisited ^= following
                frontier, following = following, frontier
                words = frontier
            # bits per row, at most 64 * width: exact in uint16
            row_bits = np.einsum("ij->i", np.bitwise_count(words), dtype=np.uint16)
            reached = int(row_bits.sum())
            if not reached:
                break
            total += depth * reached
            live = np.flatnonzero(row_bits)
            if dense:
                rows = live
            else:
                rows, words = rows[live], np.take(words, live, axis=0)
    return total / (n * (n - 1))


def _top_k(degrees: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``min(k, len(degrees))`` highest-degree vertices, ties
    broken toward the smaller id.

    Ids follow join order, so ranking by ``(-degree, id)`` equals ranking
    by ``(-degree, join time, id)``. The score ``degree * nv + (nv - 1 -
    id)`` is unique per vertex and orders exactly that way, so a partial
    sort picks the set a full sort would.
    """
    nv = len(degrees)
    if k >= nv:
        return np.arange(nv)
    score = degrees * nv + np.arange(nv - 1, -1, -1)
    return np.argpartition(score, nv - k)[nv - k :]


def k_stars_set(g: TemporalGraph, k: int) -> set[int]:
    """The ``min(k, |V|)`` vertices of ``g`` with the highest degree;
    for the stars at a horizon, pass the graph's snapshot there. Ties
    break toward earlier join time, then smaller id, which keeps star
    vectors reproducible."""
    k = _positive("k", k)
    degrees = np.bincount(g.first_links()[1], minlength=g.n_vertices)
    return set(_top_k(degrees, k).tolist())


def k_stars_vector(g: TemporalGraph, horizons: Iterable[int], k: int) -> list[int]:
    """Count newly emerging stars per horizon.

    Entry ``i`` is the number of vertices in the top-k at the ``i``-th
    horizon that were not in the top-k at time 0 or at any earlier
    horizon. The time-0 star set is empty when no vertex has joined by
    time 0. The sweep is :func:`k_stars_vectors`'s, for the one size
    ``k``, and takes the horizons as it does.
    """
    return k_stars_vectors(g, horizons, [k])[0]


def k_stars_vectors(g: TemporalGraph, horizons: Iterable[int], ks: Sequence[int]) -> list[list[int]]:
    """The :func:`k_stars_vector` of each star size in ``ks``, from one
    sweep: entry ``j`` is the vector of ``ks[j]``. The sizes may come in
    any order and repeat. ``horizons`` may be any iterable of strictly
    increasing integers in the int64 range (an iterator included); any
    other value raises ``ValueError`` naming the horizons, and no float
    is truncated.

    The sweep reads the first-link events once, in time order, and keeps
    the top-K set from one horizon to the next, K = ``max(ks)``. Degrees
    only grow, and a vertex that joins later has a larger id, so once
    the set holds K vertices only those touched by the horizon's events
    can enter it. A horizon with few events (``events <= 64 + nv // 16``:
    the numpy step has a fixed cost besides its per-vertex one) and a
    full set takes the Python step: it adds the events to a degree list
    and admits each touched non-member that beats the weakest member,
    found on a heap of members that re-scores a member whose degree rose
    when it surfaces. Every other horizon takes the numpy step: the
    degree array catches up on the events since its last sync and
    ``_top_k`` ranks every present vertex. The degree list and heap are
    rebuilt from the array when a Python step follows a numpy one.

    A smaller size's top-k is the k highest-scoring of the K members,
    by ``degree * n - id``. The numpy step ranks the members it picked.
    The Python step ranks them again only where a touched vertex was a
    member or became one: anywhere else no member's score changed, and
    so no smaller top-k did.
    """
    ks = [_positive("k", k) for k in ks]
    if not ks:
        raise ValueError("k must be positive")
    horizons = _int_column(horizons, "horizons")
    if np.any(horizons[1:] <= horizons[:-1]):
        raise ValueError("horizons must be strictly increasing")
    # the degree of v at t counts v's events at or before t
    ev_t, ev_v, _ = g.first_links()
    n = g.n_vertices
    points = np.concatenate(([0], horizons))
    ends = np.searchsorted(ev_t, points, side="right").tolist()
    present = np.searchsorted(g.join, points, side="right").tolist()
    *smaller, k = sorted(set(ks))
    depth = smaller[-1] if smaller else 0  # members ranked for the smaller sizes
    tops = []  # per point, the first `depth` members by falling score; None if unchanged

    degrees = np.zeros(n, dtype=np.int64)  # counts events[:synced]
    seen = np.zeros(n, dtype=bool)
    synced = done = 0
    full = False
    deg = None  # degree list, heap and member set of the Python step
    vector = []
    for i, (end, nv) in enumerate(zip(ends, present)):
        # horizons below 0 have nv = 0 and end = 0: the numpy step
        # empties the set there, and the next step catches up from synced
        # the numpy step costs about what the Python step pays for 64
        # events, plus one event per 16 present vertices
        if full and k <= nv and end - done <= 64 + nv // 16:
            if deg is None:
                deg = degrees.tolist()
                members = set(stars.tolist())
                heap = [(deg[v] * n - v, v) for v in members]  # orders as (-degree, id)
                heapq.heapify(heap)
            touched = ev_v[done:end].tolist()
            for v in touched:
                deg[v] += 1
            entered = []
            moved = False
            for v in touched:
                if v in members:
                    moved = True
                    continue
                score = deg[v] * n - v
                # stored scores only lag, so one below the top cannot enter
                if score < heap[0][0]:
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
                    moved = True
            count = 0
            for v in entered:  # one may have been pushed out again
                if v in members and not seen[v]:
                    seen[v] = True
                    count += 1
            if depth:
                tops.append(sorted(members, key=lambda v: v - deg[v] * n)[:depth] if moved else None)
        else:
            if end > synced:
                degrees += np.bincount(ev_v[synced:end], minlength=n)
                synced = end
            stars = _top_k(degrees[:nv], k)
            full = len(stars) == k
            deg = None
            count = int(np.count_nonzero(~seen[stars]))
            seen[stars] = True
            if depth:
                tops.append(stars[np.argsort(stars - degrees[stars] * n)[:depth]].tolist())
        if i:
            vector.append(count)
        done = end

    vectors = {k: vector}
    for size in smaller:
        ever = set()
        counts = []
        for top in tops:
            new = set(top[:size]).difference(ever) if top else ()
            ever.update(new)
            counts.append(len(new))
        vectors[size] = counts[1:]
    return [list(vectors[size]) for size in ks]


def k_stars_number(vector: Sequence[int]) -> int:
    """Total distinct vertices that ever entered the top-k: the sum of
    the star-vector entries."""
    return int(sum(vector))


def _ordered_sum(values: Iterable):
    """The values added in order from int 0, as ``sum`` adds them before Python 3.12."""
    total = 0
    for x in values:
        total += x
    return total


def power_law_gamma(degrees: Iterable[int], x_min: int) -> float | None:
    """Continuous maximum-likelihood exponent for the degree tail.

    Fits ``d ** -gamma`` to the degrees at or above ``x_min`` (a positive
    integer) by the half-step-shifted estimator suited to integer data.
    Returns ``None`` with fewer than 50 tail samples or a constant tail.
    """
    x_min = _positive("x_min", x_min)
    tail = [d for d in degrees if d >= x_min]
    if len(tail) < _GAMMA_MIN_TAIL:
        return None
    if min(tail) == max(tail):
        return None
    shift = x_min - 0.5
    log_sum = _ordered_sum(math.log(d / shift) for d in tail)
    if log_sum == 0:
        return None
    return 1.0 + len(tail) / log_sum


def compute_features(g: TemporalGraph, *, gamma_x_min: int = 2) -> dict:
    """The full feature battery of ``g``, a whole graph or a snapshot,
    keyed in the order of the ``analyze`` columns: ``vertices``,
    ``edges``, ``density``, ``avg_clustering``, ``avg_shortest_path``,
    ``max_degree`` and ``gamma``; an undefined value is ``None``."""
    degrees = g.degrees_at(g.t_end)
    gamma = power_law_gamma(degrees, gamma_x_min)  # checks x_min before any other feature
    return {
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "density": density(g),
        "avg_clustering": avg_clustering(g),
        "avg_shortest_path": avg_shortest_path(g),
        "max_degree": max(degrees, default=0),
        "gamma": gamma,
    }
