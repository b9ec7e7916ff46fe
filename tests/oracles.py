"""Independent brute-force reference implementations.

Everything here is written for clarity over speed and stays deliberately
separate from the library code paths it checks: plain loops over edge
lists, Floyd-Warshall and queue-based BFS distances, full sorts, and
scipy's sparse matrices and graph routines where the library has its
own array code. Inputs are primitive lists so the oracles cannot
accidentally reuse library indexing.
"""

import itertools
import json
import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from temponet import EdgeStreamParseError


def in_int64(x):
    return -(2**63) <= x < 2**63


def validate_brute(join_times, edges):
    """The constructor's checks as one loop over the join times and one
    over the edges: raises ``ValueError`` for the first fault in input
    order, after a join time, then an edge field, outside the int64
    range."""
    joins = join_times
    if not all(in_int64(t) for t in joins):
        raise ValueError("join times must lie in the int64 range")
    if not all(in_int64(x) for edge in edges for x in edge):
        raise ValueError("edge fields must lie in the int64 range")
    n = len(joins)
    prev = 0
    for t in joins:
        if t < 0:
            raise ValueError("join times must be non-negative")
        if t < prev:
            raise ValueError("vertex ids must be assigned in join order")
        prev = t
    seen = set()
    for u, v, t in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references unknown vertex")
        if joins[u] > t or joins[v] > t:
            raise ValueError(
                f"edge ({u}, {v}) created at {t} before an endpoint joined"
            )
        if u == v:
            raise ValueError("self-loops are not allowed in this graph")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v}) in simple graph")
        seen.add(key)


def parse_records_brute(lines):
    """The edge-list grammar as one loop over the lines: raises
    ``EdgeStreamParseError`` at the first line with a wrong field count,
    a non-integer field, a field outside the int64 range or a negative
    timestamp, checked in that order."""
    records = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",") if "," in line else line.split()
        if len(fields) != 3:
            raise EdgeStreamParseError(line_no, line, "expected 3 fields")
        try:
            u, v, t = (int(x) for x in fields)
        except ValueError:
            raise EdgeStreamParseError(line_no, line, "fields must be integers") from None
        if not all(in_int64(x) for x in (u, v, t)):
            raise EdgeStreamParseError(line_no, line, "fields must lie in the int64 range")
        if t < 0:
            raise EdgeStreamParseError(line_no, line, "negative timestamp")
        records.append((u, v, t))
    return records


def first_seen_brute(records):
    """Earliest timestamp per vertex, keyed in order of first appearance
    (source before target)."""
    first = {}
    for u, v, t in records:
        first[u] = min(first.get(u, t), t)
        first[v] = min(first.get(v, t), t)
    return first


def read_edge_stream_brute(lines):
    """Raw-stream ingest with dicts and loops: returns ``(join_times,
    edges)`` lists after the loop drop, dedupe (first record's
    orientation and position, earliest timestamp) and the remap to ids
    in join order (ties by first appearance)."""
    records = parse_records_brute(lines)
    if not records:
        raise ValueError("empty edge stream")
    join = first_seen_brute(records)
    first = {}
    for u, v, t in records:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        u0, v0, t0 = first.setdefault(key, (u, v, t))
        if t < t0:
            first[key] = (u0, v0, t)
    edges = list(first.values())
    ranked = sorted(join, key=join.__getitem__)
    remap = {raw_id: new_id for new_id, raw_id in enumerate(ranked)}
    return [join[x] for x in ranked], [(remap[u], remap[v], t) for u, v, t in edges]


def read_edge_list_brute(lines, explicit):
    """A sidecar-backed file's ``(join_times, edges)``: ids as written,
    join times from the earliest record, overridden by ``explicit``
    (id -> join time); raises ``ValueError`` at the first id below the
    largest that has neither."""
    edges = parse_records_brute(lines)
    joins = first_seen_brute(edges)
    joins.update(explicit)
    for x in range(max(joins, default=-1) + 1):
        if x not in joins:
            raise ValueError(f"vertex {x} has no record and no explicit join time")
    return [joins[x] for x in range(max(joins, default=-1) + 1)], edges


def edge_list_text_brute(join_times, edges, time_unit=""):
    """The edge-list file and its JSON sidecar as text: one
    ``u,v,t`` line per edge in input order; a join time goes to
    ``explicit_join_times`` unless it equals the earliest record naming
    the vertex."""
    lines = ["# source,target,timestamp"] + [f"{u},{v},{t}" for u, v, t in edges]
    first = {}
    for u, v, t in edges:
        first[u] = min(first.get(u, t), t)
        first[v] = min(first.get(v, t), t)
    meta = {
        "directed": False,
        "allow_self_loops": False,
        "time_unit_label": time_unit,
    }
    explicit = {str(v): jt for v, jt in enumerate(join_times) if first.get(v) != jt}
    if explicit:
        meta["explicit_join_times"] = explicit
    sidecar = json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n"
    return "\n".join(lines) + "\n", sidecar


def distinct_pairs(edges):
    """``edges`` without each self-loop and each record whose unordered
    pair an earlier record holds: the edges a graph can hold."""
    seen = set()
    kept = []
    for u, v, t in edges:
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            kept.append((u, v, t))
    return kept


def degree_brute(edges, v, t):
    """Distinct vertices linked to v by time t."""
    neighbours = set()
    for a, b, created in edges:
        if created > t:
            continue
        if a == v:
            neighbours.add(b)
        if b == v:
            neighbours.add(a)
    return len(neighbours)


def degrees_brute(n, edges, t):
    """``degree_brute`` of every vertex below ``n``, in one pass."""
    neighbours = [set() for _ in range(n)]
    for a, b, created in edges:
        if created <= t:
            neighbours[a].add(b)
            neighbours[b].add(a)
    return [len(s) for s in neighbours]


def first_links_brute(edges, t):
    """Sorted ``(time, v, w)``: v first touched its distinct neighbour w
    at time, by an edge in either direction created by t."""
    first = {}
    for a, b, created in edges:
        if created > t:
            continue
        for key in ((a, b), (b, a)):
            first[key] = min(first.get(key, created), created)
    return sorted((created, v, w) for (v, w), created in first.items())


def first_links_ordered_brute(edges):
    """``(times, v, w)`` lists in the order ``first_links`` gives them:
    the edges by time, equal times in input order (Python's sort is
    stable); each edge gives one event per endpoint, source first."""
    times, vs, ws = [], [], []
    for a, b, created in sorted(edges, key=lambda e: e[2]):
        for x, y in ((a, b), (b, a)):
            times.append(created)
            vs.append(x)
            ws.append(y)
    return times, vs, ws


def density_brute(n, edges):
    if n < 2:
        return None
    return 2 * len(edges) / (n * (n - 1))


def undirected_simple(edges):
    return {(min(a, b), max(a, b)) for a, b, _ in edges}


def clustering_brute(n, edges):
    if n == 0:
        return None
    pairs = undirected_simple(edges)
    neighbours = {v: set() for v in range(n)}
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    total = 0.0
    for v in range(n):
        ns = sorted(neighbours[v])
        d = len(ns)
        if d < 2:
            continue
        links = sum(
            1 for x, y in itertools.combinations(ns, 2) if (min(x, y), max(x, y)) in pairs
        )
        total += 2.0 * links / (d * (d - 1))
    return total / n


def _sparse_adjacency(n, edges):
    pairs = sorted(undirected_simple(edges))
    rows = [a for a, _ in pairs] + [b for _, b in pairs]
    cols = [b for _, b in pairs] + [a for a, _ in pairs]
    return sp.csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, cols)), shape=(n, n))


def clustering_sparse(n, edges):
    """Mean local clustering from the sparse product ``A @ A`` masked by
    ``A``, whose row sums count each triangle at a vertex twice."""
    if n == 0:
        return None
    adj = _sparse_adjacency(n, edges)
    deg = np.asarray(adj.sum(axis=1)).ravel().astype(np.int64)
    closed = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel()
    possible = np.maximum(deg * (deg - 1), 1)
    return float((closed / possible).mean())


def giant_sparse(n, edges):
    """Sorted ids of the largest component by scipy's
    ``connected_components``, the one with the smaller smallest id on a
    tie."""
    _, labels = connected_components(_sparse_adjacency(n, edges), directed=False)
    comps = {}
    for v, c in enumerate(labels.tolist()):
        comps.setdefault(c, []).append(v)
    return max(comps.values(), key=lambda c: (len(c), -c[0]))


def avg_sp_brute(n, edges):
    """Mean Floyd-Warshall distance over the largest component."""
    if n < 2:
        return None
    pairs = undirected_simple(edges)
    inf = math.inf
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for a, b in pairs:
        dist[a][b] = dist[b][a] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    # largest component by reachability sets
    comps = []
    unseen = set(range(n))
    while unseen:
        v = unseen.pop()
        comp = {j for j in range(n) if dist[v][j] < inf}
        unseen -= comp
        comps.append(comp)
    comp = max(comps, key=lambda c: (len(c), -min(c)))
    if len(comp) < 2:
        return None
    members = sorted(comp)
    values = [dist[i][j] for i, j in itertools.combinations(members, 2)]
    return sum(values) / len(values)


def avg_sp_bfs(n, edges):
    """Mean BFS distance over the largest component, the one holding
    the smallest id on a tie; one queue BFS per source, so it reaches
    sizes where Floyd-Warshall is too slow."""
    if n < 2:
        return None
    neighbours = [[] for _ in range(n)]
    for a, b in undirected_simple(edges):
        neighbours[a].append(b)
        neighbours[b].append(a)

    def distances(source):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in neighbours[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    best, seen = {}, set()
    for v in range(n):
        if v in seen:
            continue
        comp = distances(v)
        seen.update(comp)
        if len(comp) > len(best):  # strict: an equal later one loses
            best = comp
    if len(best) < 2:
        return None
    total = sum(sum(distances(s).values()) for s in best)
    return total / (len(best) * (len(best) - 1))


def k_stars_brute(joins, edges, t, k):
    present = [v for v in range(len(joins)) if joins[v] <= t]
    degrees = degrees_brute(len(joins), edges, t)
    ranked = sorted(present, key=lambda v: (-degrees[v], joins[v], v))
    return set(ranked[:k])


def k_stars_vector_brute(joins, edges, horizons, k):
    seen = k_stars_brute(joins, edges, 0, k)
    out = []
    for t in horizons:
        stars = k_stars_brute(joins, edges, t, k)
        out.append(len(stars - seen))
        seen |= stars
    return out


def spearman_brute(xs, ys):
    def mean_ranks(values):
        ranks = []
        for v in values:
            below = sum(1 for w in values if w < v)
            equal = sum(1 for w in values if w == v)
            ranks.append(below + (equal + 1) / 2)
        return ranks

    rx, ry = mean_ranks(list(xs)), mean_ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return None
    return cov / math.sqrt(vx * vy)


def w_max_brute(spans, w):
    """Largest t such that at least w spans reach t, scanning candidates."""
    candidates = sorted(spans)
    best = None
    for t in candidates:
        if sum(1 for s in spans if s >= t) >= w:
            best = t if best is None else max(best, t)
    return best


def pair_prob_brute(joins, edges, bin_width):
    """Connection probability per join-difference bin by full enumeration."""
    n = len(joins)
    connected = undirected_simple(edges)
    num, den = {}, {}
    for u, v in itertools.combinations(range(n), 2):
        b = abs(joins[u] - joins[v]) // bin_width
        den[b] = den.get(b, 0) + 1
        if (u, v) in connected:
            num[b] = num.get(b, 0) + 1
    return [
        (b * bin_width, num.get(b, 0) / den[b]) for b in sorted(den) if den[b] > 0
    ]


def jrc_brute(joins, interval):
    """The join-rate samples ``(t, c / n)`` as Python ints and floats:
    ``c`` counts the joins strictly before ``joins[0] + t``, on the grid
    ``0, interval, ...`` one step past the span."""
    t0, n = joins[0], len(joins)
    span = joins[-1] - t0
    if span == 0:
        return [(0, 0.0), (0, 1.0)]
    grid = range(0, (span // interval + 2) * interval, interval)
    return [(t, sum(1 for j in joins if j < t0 + t) / n) for t in grid]


def vibrancy_brute(joins, interval):
    """One minus the trapezoid area under :func:`jrc_brute`'s samples,
    over their span, with the times and values turned into float
    arrays."""
    samples = jrc_brute(joins, interval)
    xs = np.array([t for t, _ in samples], dtype=float)
    ys = np.array([v for _, v in samples], dtype=float)
    if xs[-1] == 0:
        return 0.0
    return float(1.0 - np.trapezoid(ys, xs) / (xs[-1] - xs[0]))


def stars_aggregate_brute(networks, k, horizons):
    """Spreadsheet-style aggregation over (joins, edges, span) triples."""
    m = len(horizons)
    total = [0] * m
    active = [0] * m
    norm_sum = [0.0] * m
    norm_n = [0] * m
    for joins, edges, span in networks:
        local = [t for t in horizons if t <= span]
        vec = k_stars_vector_brute(joins, edges, local, k)
        number = sum(vec)
        for i in range(len(local)):
            total[i] += vec[i]
            active[i] += 1
            if number > 0:
                norm_sum[i] += vec[i] / number
                norm_n[i] += 1
    avg = [total[i] / active[i] if active[i] else 0.0 for i in range(m)]
    norm = [norm_sum[i] / norm_n[i] if norm_n[i] else 0.0 for i in range(m)]
    return total, avg, norm
