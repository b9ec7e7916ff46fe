"""Build temporal graphs from raw timestamped edge streams.

Accepts whitespace- or comma-delimited text with three integer columns
``source target timestamp``; ``#``-prefixed lines are comments. Records
need not be time-ordered. A vertex's join time is the earliest
timestamp of any record mentioning it. The grammar and the join rule are
the ones :func:`temponet.temporal_graph.read_edge_list` applies to a
sidecar-backed file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .temporal_graph import EdgeStreamParseError, TemporalGraph, _first_seen, _parse_records


class StreamRejected(RuntimeError):
    """The stream parsed but the resulting graph failed a threshold."""


@dataclass
class IngestConfig:
    directed: bool = False
    allow_self_loops: bool = False
    min_edges: int = 0
    dedupe: bool = True
    time_column_unit: str = ""
    max_degree: int | None = None  # drop vertices above this degree (bot cap analogue)

    def __post_init__(self):
        if self.min_edges < 0:
            raise ValueError("min_edges must be non-negative")
        if self.max_degree is not None and self.max_degree < 0:
            raise ValueError("max_degree must be non-negative")


def read_edge_stream(source: Iterable[str], config: IngestConfig | None = None) -> TemporalGraph:
    """Parse a line-oriented edge stream into a TemporalGraph.

    Duplicate edges (same endpoints, unordered when undirected) collapse
    to their earliest timestamp when ``config.dedupe`` is set. Self-loop
    records keep their endpoint as a vertex even when loops themselves
    are disallowed. Raw vertex ids are remapped to dense ids in join
    order (ties broken by first appearance), which leaves conforming
    streams unchanged. Raises :class:`EdgeStreamParseError` naming the
    first malformed line, and :class:`StreamRejected` when fewer than
    ``config.min_edges`` edges survive.
    """
    config = config or IngestConfig()
    records = _parse_records(source)
    if not records:
        raise ValueError("empty edge stream")
    join = _first_seen(records)

    edges: list[tuple[int, int, int]] = []
    stamp: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for u, v, t in records:
        if u == v and not config.allow_self_loops:
            continue  # the vertex stays; only the loop edge is dropped
        if config.dedupe:
            key = (u, v) if config.directed or u <= v else (v, u)
            if key in stamp:
                stamp[key] = min(stamp[key], t)
            else:
                stamp[key] = t
                order.append((u, v))
        else:
            edges.append((u, v, t))
    if config.dedupe:
        edges = [
            (u, v, stamp[(u, v) if config.directed or u <= v else (v, u)])
            for u, v in order
        ]

    if config.max_degree is not None:
        neighbours: dict[int, set[int]] = {x: set() for x in join}
        for u, v, _ in edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
        dropped = {x for x, ns in neighbours.items() if len(ns) > config.max_degree}
        edges = [(u, v, t) for u, v, t in edges if u not in dropped and v not in dropped]
        for x in dropped:
            del join[x]
        if not join:
            raise StreamRejected("max-degree filter removed every vertex")

    if len(edges) < config.min_edges:
        raise StreamRejected(
            f"{len(edges)} edges after filtering, below the {config.min_edges} threshold"
        )

    # stable sort over first-appearance order breaks join-time ties
    ranked = sorted(join, key=join.__getitem__)
    remap = {raw_id: new_id for new_id, raw_id in enumerate(ranked)}
    join_times = [join[raw_id] for raw_id in ranked]
    edges = [(remap[u], remap[v], t) for u, v, t in edges]
    return TemporalGraph(
        join_times,
        edges,
        directed=config.directed,
        allow_self_loops=config.allow_self_loops,
        simple=config.dedupe,
        time_unit=config.time_column_unit,
    )


def normalize_times(g: TemporalGraph) -> TemporalGraph:
    """Shift all timestamps so the first arrival sits at 0; pairwise
    differences are preserved. Already-normalized graphs come back
    equal."""
    if g.n_vertices == 0:
        raise ValueError("cannot normalize an empty graph")
    shift = g.t_min
    if shift == 0:
        return g
    return TemporalGraph(
        [t - shift for t in g.join_times],
        [(u, v, t - shift) for u, v, t in g.edges],
        directed=g.directed,
        allow_self_loops=g.allow_self_loops,
        simple=False,  # validated at first construction
        time_unit=g.time_unit,
        info=g.info,
    )
