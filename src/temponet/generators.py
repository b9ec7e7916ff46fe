"""Random network generation.

The central generator grows an undirected graph in iterations: every
iteration adds a cohort of vertices (a time group), and each new vertex
creates ``m`` edges by first sampling a time group with probability
proportional to a decreasing weight function of the group-index
difference, then sampling a target inside that group with probability
proportional to degree. Five classic baseline models are provided for
comparison batteries; four of them are ports of networkx generators that
replay the same ``random.Random`` draws, so a seed gives networkx's
graph, edge order included. ``hk``, ``ws`` and ``nw`` read that order
off insertion-ordered neighbour dicts, as ``nx.Graph`` keeps them;
``ba`` keeps no neighbours and gets it from one sort of its edges.

The hot loops of ``tpa`` and of the ``ba``/``hk`` target draw make each
``randrange(n)`` or ``choice(seq)`` draw themselves, with
``getrandbits``: ``k = n.bit_length()`` bits, redrawn until below
``n``. That is the rule ``random.Random`` itself follows, so every draw
is the one the stdlib call would make.
"""

from __future__ import annotations

import math
import numbers
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .temporal_graph import TemporalGraph, _integer, _positive


def _real(name: str, x) -> float:
    """``x`` when it is a real number other than a bool or NaN."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or math.isnan(x):
        raise ValueError(f"{name} must be a real number, not {x!r}")
    return x


class TimeDiffFn:
    """Monotonically non-increasing weight over group-index differences.

    Values lie in [0, 1] and the weight at difference 0 must be
    positive. Three forms are supported:

    * ``exp_base(b)``: ``b ** (-1 - t)`` for a base ``b >= 1``
    * ``geometric(a, r)``: ``a * r ** t``
    * ``tabulated(values)``: explicit table, 0 beyond its end
    """

    def __init__(self, form: str, fn: Callable[[int], float], params: dict):
        self.form = form
        self.params = params
        self._fn = fn

    @classmethod
    def exp_base(cls, b: float) -> "TimeDiffFn":
        if not _real("exp_base b", b) >= 1:
            raise ValueError("exp_base requires b >= 1 to be non-increasing")
        return cls("exp_base", lambda t: b ** (-1 - t), {"b": b})

    @classmethod
    def geometric(cls, a: float, r: float) -> "TimeDiffFn":
        if not (0 < _real("geometric a", a) <= 1):
            raise ValueError("geometric weight a must be in (0, 1]")
        if not (0 <= _real("geometric r", r) <= 1):
            raise ValueError("geometric ratio r must be in [0, 1]")
        return cls("geometric", lambda t: a * r**t, {"a": a, "r": r})

    @classmethod
    def tabulated(cls, values: Sequence[float]) -> "TimeDiffFn":
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"tabulated weights must be a list of numbers, not {values!r}")
        values = [float(_real("a tabulated weight", x)) for x in values]
        if not values or values[0] <= 0:
            raise ValueError("tabulated weights need a positive first entry")
        for i, x in enumerate(values):
            if not (0 <= x <= 1):
                raise ValueError("tabulated weights must lie in [0, 1]")
            if i and x > values[i - 1]:
                raise ValueError("tabulated weights must be non-increasing")
        fn = lambda t: values[t] if 0 <= t < len(values) else 0.0
        return cls("tabulated", fn, {"values": values})

    @classmethod
    def from_config(cls, cfg: dict | str) -> "TimeDiffFn":
        """Build from a JSON-style object or a CLI shorthand.

        Shorthands: ``exp2`` means ``exp_base(2)``; ``geom:0.8:0.2``
        means ``geometric(0.8, 0.2)``.
        """
        if isinstance(cfg, str):
            s = cfg.strip()
            if s.startswith("exp"):
                build, arity, fields = cls.exp_base, 1, [s[3:]]
                shape = "exp<b>, as in exp2"
            elif s.startswith(("geom:", "geometric:")):
                build, arity, fields = cls.geometric, 2, s.split(":")[1:]
                shape = "geom:<a>:<r>, as in geom:0.8:0.2"
            else:
                raise ValueError(f"unrecognized time-difference function: {cfg!r}")
            try:
                values = [float(x) for x in fields]
            except ValueError:
                values = []
            if len(values) != arity:
                raise ValueError(f"expected {shape}")
            return build(*values)
        if not isinstance(cfg, dict):
            raise ValueError(f"a time-difference function is a string or an object, not {cfg!r}")
        try:
            form = cfg["form"]
            if form == "exp_base":
                return cls.exp_base(cfg["b"])
            if form == "geometric":
                return cls.geometric(cfg["a"], cfg["r"])
            if form == "tabulated":
                return cls.tabulated(cfg["values"])
        except KeyError as exc:
            raise ValueError(f"time-difference function {cfg!r} is missing parameter {exc}") from None
        raise ValueError(f"unrecognized time-difference form: {form!r}")

    def to_config(self) -> dict:
        return {"form": self.form, **self.params}

    def __call__(self, t: int) -> float:
        return self._fn(t)


def make_schedule(kind: str, *args: int) -> list[int]:
    """Build a growth schedule (vertices added per iteration).

    * ``linear(step, iterations)``: ``step`` repeated ``iterations`` times
    * ``polynomial(coef, max_x_exclusive)``: ``coef * x**2`` for
      ``x = 1 .. max_x_exclusive - 1``
    * ``sigmoidal(coef, max_x_exclusive)``: the polynomial list reversed

    Both values must be integers, and all but ``max_x_exclusive``
    positive: numpy's are taken as ``int``, and a bool, a float or a
    value below 1 raises ``ValueError`` naming the value.
    """
    if kind not in ("linear", "polynomial", "sigmoidal"):
        raise ValueError(f"unknown schedule kind: {kind!r}")
    if len(args) != 2:
        raise ValueError(f"a {kind} schedule takes 2 values, got {len(args)}")
    if kind == "linear":
        return [_positive("step", args[0])] * _positive("iterations", args[1])
    coef, max_x = _positive("coef", args[0]), _integer("max_x_exclusive", args[1])
    if max_x <= 1:
        raise ValueError("max_x_exclusive must exceed 1")
    sizes = [coef * x * x for x in range(1, max_x)]
    return sizes if kind == "polynomial" else sizes[::-1]


@dataclass
class TpaParams:
    """Inputs for :func:`tpa_generate`.

    ``retry_limit`` bounds the rejection loop used while sampling an
    edge target inside a time group; an exhausted edge is skipped and
    counted rather than aborting the run. ``seed`` is an integer, and
    ``m``, ``retry_limit`` and the schedule entries positive integers
    (see :func:`make_schedule`); the schedule is kept as a list of ints.
    """

    m: int
    schedule: Sequence[int]
    f: TimeDiffFn
    seed: int = 0
    retry_limit: int = 1000

    def __post_init__(self):
        self.m = _positive("m", self.m)
        self.seed = _integer("seed", self.seed)
        self.retry_limit = _positive("retry_limit", self.retry_limit)
        self.schedule = [_positive("a schedule entry", s) for s in self.schedule]
        if not self.schedule:
            raise ValueError("schedule must be non-empty")


def _cumulative_weights(weights: Sequence[float]) -> list[float]:
    """Running sums of group weights, added left to right; the last
    entry is the total, which must be positive."""
    cum_weights = list(accumulate(weights))
    if cum_weights[-1] <= 0:
        raise ValueError("degenerate distribution: all group weights are zero")
    return cum_weights


def _edge_array(flat: list[int]) -> np.ndarray:
    """The source, target and created int64 columns, as the rows of a
    ``(3, E)`` array, of a flat ``source, target, created`` list, which
    numpy converts several times faster than a list of tuples."""
    return np.array(flat, dtype=np.int64).reshape(-1, 3).T


def tpa_generate(params: TpaParams) -> TemporalGraph:
    """Grow a random scale-free network iteration by iteration.

    All vertices of an iteration enter the graph before any of them is
    wired, then each wires in turn with degrees updating immediately,
    so a vertex may link to any member of its own cohort but never to
    itself. Within a group, targets are drawn with weight degree + 1;
    the +1 bootstraps the all-zero-degree start while preserving the
    rich-get-richer ordering. The number of edge attempts that
    exhausted the retry limit is reported in ``info["skipped_edges"]``.
    """
    rng = random.Random(params.seed)
    random_, getrandbits = rng.random, rng.getrandbits  # bound once: hot loop
    retries = range(params.retry_limit - 1)  # the draws after a rejected first one
    m = params.m
    join_times: list[int] = []
    adjacency: list[set[int]] = []
    targets: list[int] = []  # the target of each edge in turn
    ends: list[int] = []  # per vertex, len(targets) once it has wired
    # One bag per group holding each member once plus once per incident
    # edge end, so a uniform draw selects with weight degree + 1.
    bags: list[list[int]] = []
    skipped = 0
    next_id = 0
    w = [params.f(d) for d in range(len(params.schedule))]  # f(i - j) weighs group j from i

    for i, size in enumerate(params.schedule):
        ids = range(next_id, next_id + size)
        next_id += size
        join_times += [i] * size
        adjacency += [set() for _ in ids]
        own_bag = list(ids)
        bags.append(own_bag)
        own_append = own_bag.append
        alone = size == 1  # the own group holds nobody but v itself

        cum_weights = _cumulative_weights(w[i::-1])
        total = cum_weights[-1]

        for v in ids:
            linked = adjacency[v]
            for _ in range(m):
                r = bisect(cum_weights, random_() * total)
                if alone and r == i:
                    skipped += 1
                    continue
                # bag[randrange(n)], drawn as randrange draws it: k-bit
                # getrandbits until below n
                bag = bags[r]
                n = len(bag)
                k = n.bit_length()
                j = getrandbits(k)
                while j >= n:
                    j = getrandbits(k)
                u = bag[j]
                if u == v or u in linked:
                    for _attempt in retries:
                        j = getrandbits(k)
                        while j >= n:
                            j = getrandbits(k)
                        u = bag[j]
                        if u != v and u not in linked:
                            break
                    else:
                        skipped += 1
                        continue
                linked.add(u)
                if u > v:  # only a vertex yet to wire reads its set again
                    adjacency[u].add(v)
                targets.append(u)
                bag.append(u)
                own_append(v)
            ends.append(len(targets))

    # vertices wire in id order, so the sources run in blocks of their placed
    # edges; unchecked, as targets are from earlier or the same groups, are
    # never the source and never already linked
    placed = np.diff(ends, prepend=0)
    join = np.array(join_times, dtype=np.int64)
    sources = np.repeat(np.arange(next_id, dtype=np.int64), placed)
    return TemporalGraph.__new__(TemporalGraph)._build(
        join, sources, np.array(targets, dtype=np.int64), np.repeat(join, placed),
        time_unit="iteration", info={"skipped_edges": skipped, "model": "tpa"})


def baseline_generate(model: str, n: int, seed: int = 0, **model_params) -> TemporalGraph:
    """Generate one of the five comparison baselines as a TemporalGraph.

    ``ba(m)`` and ``hk(m, p_triangle)`` grow one vertex per step, so
    join time equals insertion index and an edge appears when its later
    endpoint joins; ``ff(p_forward)`` likewise. ``ws(k, p)`` and
    ``nw(k, p)`` are static small-world models whose vertices all carry
    join time 0. ``n``, ``seed``, ``m`` (positive) and ``k`` are integers
    (see :func:`make_schedule`) and the probabilities real numbers.
    """
    model = model.lower()
    n = _integer("n", n)
    rng = random.Random(_integer("seed", seed))
    try:
        if model in ("ba", "hk"):
            m = _positive("m", model_params["m"])
            if n <= m:
                raise ValueError(f"{model} model needs n > m")
            if model == "ba":
                columns = _barabasi_albert(n, m, rng)
            else:
                p_t = _real("p_triangle", model_params["p_triangle"])
                if not (0 <= p_t <= 1):
                    raise ValueError("hk triangle probability must be in [0, 1]")
                adj = _holme_kim(n, m, p_t, rng)
                # v > u joins later
                columns = _edge_array([x for u, v in _graph_edges(adj) for x in (u, v, v)])
        elif model in ("ws", "nw"):
            k = _integer("k", model_params["k"])
            p = _real("p", model_params["p"])
            if k < 0 or not (0 <= p <= 1):
                raise ValueError(f"{model} model needs k >= 0 and p in [0, 1]")
            if n <= k:
                raise ValueError(f"{model} model needs n > k")
            sampler = _watts_strogatz if model == "ws" else _newman_watts_strogatz
            columns = _edge_array([x for u, v in _graph_edges(sampler(n, k, p, rng)) for x in (u, v, 0)])
        elif model == "ff":
            p_f = _real("p_forward", model_params["p_forward"])
            if not (0 <= p_f < 1):
                raise ValueError("ff forward probability must be in [0, 1)")
            if n < 1:
                raise ValueError("ff model needs n >= 1")
            columns = _forest_fire(n, p_f, rng)
        else:
            raise ValueError(f"unknown baseline model: {model!r}")
    except KeyError as exc:
        raise ValueError(f"model {model!r} is missing parameter {exc}") from exc
    # unchecked: each pair comes once and never as a loop, and an edge is
    # created when its later end joins (in ws and nw all join at 0)
    join = np.zeros(n, dtype=np.int64) if model in ("ws", "nw") else np.arange(n, dtype=np.int64)
    return TemporalGraph.__new__(TemporalGraph)._build(join, *columns, info={"model": model})


# The four ports below follow networkx 3's generators draw for draw.
# Apart from ba's, a graph is a list of insertion-ordered neighbour dicts,
# as in nx.Graph, so neighbour scans and the final edge order match
# networkx's.

Adjacency = list[dict[int, None]]


def _link(adj: Adjacency, u: int, v: int) -> None:
    # an existing edge keeps its place, as in nx.Graph.add_edge
    adj[u][v] = adj[v][u] = None


def _graph_edges(adj: Adjacency) -> list[tuple[int, int]]:
    """Edges in ``nx.Graph.edges()`` order: vertices ascending, each with
    its later neighbours in insertion order."""
    return [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if v > u]


def _random_subset(seq: list[int], m: int, rng: random.Random) -> set[int]:
    # the set's iteration order feeds later draws, so it is kept a set
    getrandbits = rng.getrandbits
    n = len(seq)  # never 0: ba and hk seed it with m or more entries
    k = n.bit_length()
    targets: set[int] = set()
    while len(targets) < m:
        j = getrandbits(k)  # seq[j] is rng.choice(seq)
        while j >= n:
            j = getrandbits(k)
        targets.add(seq[j])
    return targets


def _barabasi_albert(n: int, m: int, rng: random.Random) -> tuple[np.ndarray, ...]:
    """``nx.barabasi_albert_graph``: a star on ``0 .. m`` centred at 0,
    then each new vertex links to ``m`` distinct targets drawn with
    weight equal to their degree. Returns the int64 source, target and
    created columns in ``nx.Graph.edges()`` order; an edge is created
    when its later end, the target, joins, so the last two are one."""
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = _random_subset(repeated, m, rng)
        repeated.extend(targets)
        repeated.extend([source] * m)
    # repeated holds m lower ends, then their m later ends, per joining
    # vertex: the seed star (0, 1 .. m) first, then each source's targets
    # and the source itself. A vertex's later neighbours are the vertices
    # that drew it, in join order, so sorting by (lower, later) end gives
    # the nx.Graph.edges() order.
    ends = np.array(repeated, dtype=np.int64).reshape(-1, 2, m)
    lower, later = ends[:, 0].ravel(), ends[:, 1].ravel()
    order = np.lexsort((later, lower))
    later = later[order]
    return lower[order], later, later


def _holme_kim(n: int, m: int, p: float, rng: random.Random) -> Adjacency:
    """``nx.powerlaw_cluster_graph`` (Holme & Kim, PRE 2002): growth from
    ``m`` isolated vertices where, after a first preferential link, each
    of the other ``m - 1`` links closes a triangle with probability ``p``
    through a neighbour of the last preferential target, if one is free."""
    adj: Adjacency = [{} for _ in range(n)]
    repeated = list(range(m))
    for source in range(m, n):
        targets = _random_subset(repeated, m, rng)
        target = targets.pop()
        _link(adj, source, target)
        repeated.append(target)
        count = 1
        while count < m:
            if rng.random() < p:
                mine = adj[source]
                free = [w for w in adj[target] if w not in mine and w != source]
                if free:
                    w = rng.choice(free)
                    _link(adj, source, w)
                    repeated.append(w)
                    count += 1
                    continue
            # an earlier triangle step may have linked this target already
            target = targets.pop()
            _link(adj, source, target)
            repeated.append(target)
            count += 1
        repeated.extend([source] * m)
    return adj


def _ring_lattice(n: int, k: int) -> Adjacency:
    # each vertex linked to its k // 2 successors, one distance at a time
    adj: Adjacency = [{} for _ in range(n)]
    for j in range(1, k // 2 + 1):
        for u in range(n):
            _link(adj, u, (u + j) % n)
    return adj


def _fresh_neighbour(adj: Adjacency, u: int, nodes: list[int], rng: random.Random) -> int | None:
    """A uniform vertex that is neither ``u`` nor linked to it, redrawn
    until found; ``None`` once ``u`` is linked to every other vertex."""
    w = rng.choice(nodes)
    while w == u or w in adj[u]:
        w = rng.choice(nodes)
        if len(adj[u]) >= len(nodes) - 1:
            return None
    return w


def _watts_strogatz(n: int, k: int, p: float, rng: random.Random) -> Adjacency:
    """``nx.watts_strogatz_graph``: a ring lattice whose edges, by
    distance then by vertex, move their far end to a fresh neighbour
    with probability ``p``."""
    adj = _ring_lattice(n, k)
    nodes = list(range(n))
    for j in range(1, k // 2 + 1):
        for u in nodes:
            if rng.random() < p:
                w = _fresh_neighbour(adj, u, nodes, rng)
                if w is not None:
                    v = (u + j) % n
                    del adj[u][v], adj[v][u]
                    _link(adj, u, w)
    return adj


def _newman_watts_strogatz(n: int, k: int, p: float, rng: random.Random) -> Adjacency:
    """``nx.newman_watts_strogatz_graph``: a ring lattice where each
    lattice edge ``(u, v)`` adds a shortcut from ``u`` to a fresh
    neighbour with probability ``p``."""
    adj = _ring_lattice(n, k)
    nodes = list(range(n))
    for u, _ in _graph_edges(adj):
        if rng.random() < p:
            w = _fresh_neighbour(adj, u, nodes, rng)
            if w is not None:
                _link(adj, u, w)
    return adj


def _forest_fire(n: int, p_forward: float, rng: random.Random) -> np.ndarray:
    """Undirected forest-fire growth: each new vertex links to a random
    ambassador, then burns outward through its neighbourhood, spreading
    to a geometric number of unvisited neighbours (mean p/(1-p)) and
    linking to every burned vertex. Returns :func:`_edge_array` columns."""
    adjacency: list[set[int]] = [set()]
    edges: list[int] = []  # source, target, created of each edge in turn
    for v in range(1, n):
        adjacency.append(set())
        ambassador = rng.randrange(v)
        visited = {v, ambassador}
        frontier = [ambassador]
        burned = [ambassador]
        while frontier:
            x = frontier.pop(0)
            spread = 0
            while rng.random() < p_forward:
                spread += 1
            if not spread:
                continue
            candidates = [y for y in sorted(adjacency[x]) if y not in visited]
            rng.shuffle(candidates)
            for y in candidates[:spread]:
                visited.add(y)
                frontier.append(y)
                burned.append(y)
        for u in burned:
            adjacency[v].add(u)
            adjacency[u].add(v)
            edges += (v, u, v)
    return _edge_array(edges)
