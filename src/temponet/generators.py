"""Random network generation.

The central generator grows an undirected graph in iterations: every
iteration adds a cohort of vertices (a time group), and each new vertex
creates ``m`` edges by first sampling a time group with probability
proportional to a decreasing weight function of the group-index
difference, then sampling a target inside that group with probability
proportional to degree. Five classic baseline models are provided for
comparison batteries.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from typing import Callable, Sequence

import networkx as nx

from .temporal_graph import TemporalGraph


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
        if b < 1:
            raise ValueError("exp_base requires b >= 1 to be non-increasing")
        return cls("exp_base", lambda t: b ** (-1 - t), {"b": b})

    @classmethod
    def geometric(cls, a: float, r: float) -> "TimeDiffFn":
        if not (0 < a <= 1):
            raise ValueError("geometric weight a must be in (0, 1]")
        if not (0 <= r <= 1):
            raise ValueError("geometric ratio r must be in [0, 1]")
        return cls("geometric", lambda t: a * r**t, {"a": a, "r": r})

    @classmethod
    def tabulated(cls, values: Sequence[float]) -> "TimeDiffFn":
        values = [float(x) for x in values]
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
                return cls.exp_base(float(s[3:]))
            if s.startswith(("geom:", "geometric:")):
                _, a, r = s.split(":")
                return cls.geometric(float(a), float(r))
            raise ValueError(f"unrecognized time-difference function: {cfg!r}")
        form = cfg["form"]
        if form == "exp_base":
            return cls.exp_base(cfg["b"])
        if form == "geometric":
            return cls.geometric(cfg["a"], cfg["r"])
        if form == "tabulated":
            return cls.tabulated(cfg["values"])
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
    """
    if kind == "linear":
        step, iterations = args
        if step <= 0 or iterations <= 0:
            raise ValueError("linear schedule needs positive step and iterations")
        return [int(step)] * int(iterations)
    if kind in ("polynomial", "sigmoidal"):
        coef, max_x = args
        if coef <= 0:
            raise ValueError("schedule coefficient must be positive")
        if max_x <= 1:
            raise ValueError("max_x_exclusive must exceed 1")
        sizes = [int(coef) * x * x for x in range(1, int(max_x))]
        return sizes if kind == "polynomial" else sizes[::-1]
    raise ValueError(f"unknown schedule kind: {kind!r}")


@dataclass
class TpaParams:
    """Inputs for :func:`tpa_generate`.

    ``retry_limit`` bounds the rejection loop used while sampling an
    edge target inside a time group; an exhausted edge is skipped and
    counted rather than aborting the run.
    """

    m: int
    schedule: Sequence[int]
    f: TimeDiffFn
    seed: int = 0
    retry_limit: int = 1000

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be at least 1")
        if not self.schedule:
            raise ValueError("schedule must be non-empty")
        if any(s < 1 for s in self.schedule):
            raise ValueError("every schedule entry must be at least 1")


def group_probabilities(f: TimeDiffFn, current_group: int) -> list[float]:
    """Probability of targeting each group ``0 .. current_group`` from a
    vertex in ``current_group``: the weight of group ``j`` is
    ``f(current_group - j)``, normalized over all existing groups."""
    if current_group < 0:
        raise ValueError("current_group must be non-negative")
    weights = [f(current_group - j) for j in range(current_group + 1)]
    total = sum(weights)
    if total <= 0:
        raise ValueError("degenerate distribution: all group weights are zero")
    return [w / total for w in weights]


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
    random_, randrange = rng.random, rng.randrange  # bound once: hot loop
    m = params.m
    join_times: list[int] = []
    adjacency: list[set[int]] = []
    edges: list[tuple[int, int, int]] = []
    # One bag per group holding each member once plus once per incident
    # edge end, so a uniform draw selects with weight degree + 1.
    bags: list[list[int]] = []
    group_sizes: list[int] = []
    skipped = 0
    next_id = 0

    for i, size in enumerate(params.schedule):
        ids = range(next_id, next_id + size)
        next_id += size
        for v in ids:
            join_times.append(i)
            adjacency.append(set())
        bags.append(list(ids))
        group_sizes.append(size)

        cum_weights: list[float] = []
        total = 0.0
        for j in range(i + 1):
            total += params.f(i - j)
            cum_weights.append(total)
        if total <= 0:
            raise ValueError("degenerate distribution: all group weights are zero")

        own_bag = bags[i]
        for v in ids:
            linked = adjacency[v]
            for _ in range(m):
                r = bisect(cum_weights, random_() * total)
                bag = bags[r]
                if group_sizes[r] == 1 and r == i:
                    # own group holds nobody but v itself
                    skipped += 1
                    continue
                for _attempt in range(params.retry_limit):
                    u = bag[randrange(len(bag))]
                    if u == v or u in linked:
                        continue
                    linked.add(u)
                    adjacency[u].add(v)
                    edges.append((v, u, i))
                    bag.append(u)
                    own_bag.append(v)
                    break
                else:
                    skipped += 1

    return TemporalGraph(
        join_times,
        edges,
        directed=False,
        time_unit="iteration",
        info={"skipped_edges": skipped, "model": "tpa"},
    )


def baseline_generate(model: str, n: int, seed: int = 0, **model_params) -> TemporalGraph:
    """Generate one of the five comparison baselines as a TemporalGraph.

    ``ba(m)`` and ``hk(m, p_triangle)`` grow one vertex per step, so
    join time equals insertion index; ``ff(p_forward)`` likewise.
    ``ws(k, p)`` and ``nw(k, p)`` are static small-world models whose
    vertices all carry join time 0.
    """
    model = model.lower()
    try:
        if model == "ba":
            m = int(model_params["m"])
            if n <= m:
                raise ValueError("ba model needs n > m")
            g = nx.barabasi_albert_graph(n, m, seed=seed)
            return _growing_to_temporal(g, n, "ba")
        if model == "hk":
            m = int(model_params["m"])
            p_t = float(model_params["p_triangle"])
            if n <= m:
                raise ValueError("hk model needs n > m")
            g = nx.powerlaw_cluster_graph(n, m, p_t, seed=seed)
            return _growing_to_temporal(g, n, "hk")
        if model in ("ws", "nw"):
            k = int(model_params["k"])
            p = float(model_params["p"])
            if n <= k:
                raise ValueError(f"{model} model needs n > k")
            if model == "ws":
                g = nx.watts_strogatz_graph(n, k, p, seed=seed)
            else:
                g = nx.newman_watts_strogatz_graph(n, k, p, seed=seed)
            edges = [(u, v, 0) for u, v in g.edges()]
            return TemporalGraph(
                [0] * n, edges, directed=False, info={"model": model}
            )
        if model == "ff":
            p_f = float(model_params["p_forward"])
            if not (0 <= p_f < 1):
                raise ValueError("ff forward probability must be in [0, 1)")
            if n < 1:
                raise ValueError("ff model needs n >= 1")
            return _forest_fire(n, p_f, random.Random(seed))
    except KeyError as exc:
        raise ValueError(f"model {model!r} is missing parameter {exc}") from exc
    raise ValueError(f"unknown baseline model: {model!r}")


def _growing_to_temporal(g: nx.Graph, n: int, model: str) -> TemporalGraph:
    # Nodes 0..n-1 are inserted in id order, so an edge appears when its
    # later endpoint joins.
    edges = [(u, v, max(u, v)) for u, v in g.edges()]
    return TemporalGraph(list(range(n)), edges, directed=False, info={"model": model})


def _forest_fire(n: int, p_forward: float, rng: random.Random) -> TemporalGraph:
    """Undirected forest-fire growth: each new vertex links to a random
    ambassador, then burns outward through its neighbourhood, spreading
    to a geometric number of unvisited neighbours (mean p/(1-p)) and
    linking to every burned vertex."""
    adjacency: list[set[int]] = [set()]
    edges: list[tuple[int, int, int]] = []
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
            edges.append((v, u, v))
    return TemporalGraph(
        list(range(n)), edges, directed=False, info={"model": "ff"}
    )
