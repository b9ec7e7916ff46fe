"""Independent brute-force reference implementations.

Everything here is written for clarity over speed and stays deliberately
separate from the library code paths it checks: plain loops over edge
lists, Floyd-Warshall and queue-based BFS distances, full sorts. Inputs
are primitive lists so the oracles cannot accidentally reuse library
indexing.
"""

import itertools
import math
from collections import deque


def degree_brute(edges, v, t):
    """Distinct vertices linked to v by time t; a self-loop counts v itself."""
    neighbours = set()
    for a, b, created in edges:
        if created > t:
            continue
        if a == v:
            neighbours.add(b)
        if b == v:
            neighbours.add(a)
    return len(neighbours)


def first_links_brute(edges, t):
    """Sorted ``(time, v, w)``: v first touched its distinct neighbour w
    at time, by an edge in either direction created by t; a self-loop
    gives one event."""
    first = {}
    for a, b, created in edges:
        if created > t:
            continue
        for key in {(a, b), (b, a)}:
            first[key] = min(first.get(key, created), created)
    return sorted((created, v, w) for (v, w), created in first.items())


def density_brute(n, edges, directed):
    if n < 2:
        return None
    count = 0
    for a, b, _ in edges:
        count += 1 if (directed or a == b) else 2
    return count / (n * (n - 1))


def undirected_simple(edges):
    return {(min(a, b), max(a, b)) for a, b, _ in edges if a != b}


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
    ranked = sorted(
        present, key=lambda v: (-degree_brute(edges, v, t), joins[v], v)
    )
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
