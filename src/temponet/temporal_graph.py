"""Core data model: networks whose vertices and edges carry arrival times.

A :class:`TemporalGraph` stores one join time per vertex and a list of
timestamped edges. It is immutable after construction, so any number of
readers may take :class:`Snapshot` views concurrently. Timestamps are
opaque non-negative integers in caller-defined units (weeks, years,
iteration indices); the toolkit never converts calendar units.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, int, int]  # (source, target, created)

_META_SUFFIX = ".meta.json"


class TemporalGraph:
    """An append-only network frozen at construction time.

    Vertex ids are dense integers in ``[0, n)`` assigned in join order,
    so ``join_times`` must be non-decreasing. Every edge endpoint must
    have joined no later than the edge was created. In simple mode
    (default) duplicate edges are rejected; self-loops are rejected
    unless ``allow_self_loops`` is set.
    """

    __slots__ = (
        "directed",
        "allow_self_loops",
        "time_unit",
        "join_times",
        "edges",
        "info",
        "_edges_by_time",
        "_edge_times_sorted",
        "_first_links",
    )

    def __init__(
        self,
        join_times: Sequence[int],
        edges: Iterable[Edge],
        *,
        directed: bool = False,
        allow_self_loops: bool = False,
        simple: bool = True,
        time_unit: str = "",
        info: dict | None = None,
    ):
        self.directed = bool(directed)
        self.allow_self_loops = bool(allow_self_loops)
        self.time_unit = time_unit
        self.join_times = tuple(map(int, join_times))
        self.edges = tuple([(int(u), int(v), int(t)) for u, v, t in edges])
        self.info = dict(info) if info else {}
        self._validate(simple)
        # Edges sorted by creation time; a snapshot's edge set is a prefix.
        self._edges_by_time = tuple(sorted(self.edges, key=lambda e: e[2]))
        self._edge_times_sorted = tuple([e[2] for e in self._edges_by_time])
        self._first_links = None  # filled by first_links; a rebuild gives equal arrays

    def _validate(self, simple: bool) -> None:
        # The first fault in input order is reported; attributes are
        # bound once, as this loop runs for every edge of every graph.
        joins, directed, loops_ok = self.join_times, self.directed, self.allow_self_loops
        n = len(joins)
        prev = 0
        for t in joins:
            if t < 0:
                raise ValueError("join times must be non-negative")
            if t < prev:
                raise ValueError("vertex ids must be assigned in join order")
            prev = t
        seen: set[tuple[int, int]] = set()
        for u, v, t in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            if joins[u] > t or joins[v] > t:
                raise ValueError(
                    f"edge ({u}, {v}) created at {t} before an endpoint joined"
                )
            if u == v and not loops_ok:
                raise ValueError("self-loops are not allowed in this graph")
            if simple:
                key = (u, v) if directed or u <= v else (v, u)
                if key in seen:
                    raise ValueError(f"duplicate edge ({u}, {v}) in simple graph")
                seen.add(key)

    # -- basic facts ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.join_times)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def t_min(self) -> int:
        """Join time of the first vertex (0 for an empty graph)."""
        return self.join_times[0] if self.join_times else 0

    @property
    def t_max(self) -> int:
        """Join time of the last vertex (0 for an empty graph)."""
        return self.join_times[-1] if self.join_times else 0

    @property
    def active_time(self) -> int:
        """Time between the first and the last vertex arrival."""
        return self.t_max - self.t_min

    @property
    def t_end(self) -> int:
        """Latest event in the graph, vertex join or edge creation."""
        last_edge = self._edge_times_sorted[-1] if self.edges else 0
        return max(self.t_max, last_edge)

    # -- snapshots -----------------------------------------------------

    def snapshot_at(self, t: int) -> "Snapshot":
        """Restrict the graph to activity up to time ``t`` (inclusive)."""
        nv = bisect_right(self.join_times, t)
        ne = bisect_right(self._edge_times_sorted, t)
        return Snapshot(self, t, nv, ne)

    def horizons(self, interval: int) -> list[int]:
        """Snapshot times ``t_min + interval, t_min + 2*interval, ...``,
        ending at ``t_end`` with a final shorter interval when the span
        does not divide evenly; empty for an empty graph."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if self.n_vertices == 0:
            return []
        return [*range(self.t_min + interval, self.t_end, interval), self.t_end]

    def snapshot_series(self, interval: int) -> list["Snapshot"]:
        """Snapshots at every time of :meth:`horizons`."""
        return [self.snapshot_at(h) for h in self.horizons(interval)]

    def first_links(self, t: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First-link events up to time ``t`` (all of them when ``None``)
        as arrays ``(times, v, w)``, sorted by time: vertex ``v[i]`` first
        touched its distinct neighbour ``w[i]`` at ``times[i]``, by an edge
        in either direction. A pair of distinct vertices gives two events
        at the same time, one per endpoint; a self-loop gives one. Every
        snapshot's undirected simple projection is thus a prefix.

        ``times`` is int64 and ``v``, ``w`` are int32. The index is built
        on first use, so a graph whose raw timestamps do not fit in 64
        bits can still be normalized; indexing it raises ``OverflowError``.
        """
        if self._first_links is None:
            e = np.array(self._edges_by_time, dtype=np.int64).reshape(-1, 3)
            lo, hi = e[:, :2].min(axis=1), e[:, :2].max(axis=1)
            # the earliest record of each unordered pair, in time order
            first = np.sort(np.unique(lo * self.n_vertices + hi, return_index=True)[1])
            u, v, times = e[first].T
            keep = np.repeat(u != v, 2)
            keep[::2] = True  # a self-loop is one event
            self._first_links = (
                np.repeat(times, 2)[keep],
                np.column_stack([u, v]).ravel()[keep].astype(np.int32),
                np.column_stack([v, u]).ravel()[keep].astype(np.int32),
            )
        times, v, w = self._first_links
        end = len(times) if t is None else int(np.searchsorted(times, t, side="right"))
        return times[:end], v[:end], w[:end]

    def degree_at(self, v: int, t: int) -> int:
        """Number of distinct vertices linked to ``v`` by time ``t``,
        counting both edge directions; a self-loop contributes 1."""
        if not (0 <= v < self.n_vertices):
            raise KeyError(f"unknown vertex {v}")
        return int(np.count_nonzero(self.first_links(t)[1] == v))

    def degrees_at(self, t: int) -> list[int]:
        """Degree of every vertex at time ``t`` (0 for not-yet-joined)."""
        return np.bincount(self.first_links(t)[1], minlength=self.n_vertices).tolist()

    def __repr__(self) -> str:  # pragma: no cover
        kind = "directed" if self.directed else "undirected"
        return f"<TemporalGraph {kind} |V|={self.n_vertices} |E|={self.n_edges}>"


class Snapshot:
    """The parent graph restricted to vertices and edges that arrived by
    ``horizon``. A lightweight read-only view; vertices form the id
    prefix ``range(n_vertices)`` because ids follow join order."""

    __slots__ = ("parent", "horizon", "n_vertices", "n_edges")

    def __init__(self, parent: TemporalGraph, horizon: int, n_vertices: int, n_edges: int):
        self.parent = parent
        self.horizon = horizon
        self.n_vertices = n_vertices
        self.n_edges = n_edges

    @property
    def directed(self) -> bool:
        return self.parent.directed

    def edges(self) -> Iterator[Edge]:
        return iter(self.parent._edges_by_time[: self.n_edges])

    def degrees(self) -> list[int]:
        return self.parent.degrees_at(self.horizon)[: self.n_vertices]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Snapshot t<={self.horizon} |V|={self.n_vertices} |E|={self.n_edges}>"


# -- serialization -----------------------------------------------------


class EdgeStreamParseError(ValueError):
    """A line failed to parse; carries the 1-based line number."""

    def __init__(self, line_no: int, line: str, reason: str):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no


def _parse_records(lines: Iterable[str]) -> list[Edge]:
    """The ``source target timestamp`` records of an edge list: three
    integer fields split by commas or whitespace, timestamps
    non-negative; blank and ``#``-prefixed lines are skipped."""
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
        if t < 0:
            raise EdgeStreamParseError(line_no, line, "negative timestamp")
        records.append((u, v, t))
    return records


def _first_seen(records: Iterable[Edge]) -> dict[int, int]:
    """A vertex joins at the earliest timestamp of any record naming it.
    Keys are in order of first appearance, source before target."""
    first: dict[int, int] = {}
    for u, v, t in records:
        first[u] = min(first.get(u, t), t)
        first[v] = min(first.get(v, t), t)
    return first


def write_edge_list(graph: TemporalGraph, path) -> None:
    """Write ``source,target,timestamp`` lines plus a JSON metadata
    sidecar at ``<path>.meta.json``.

    Join times that cannot be recovered from the edge records (isolated
    vertices, or vertices that joined before their first edge) are kept
    in the sidecar so that reading the files back reproduces identical
    snapshots at every horizon. A graph with a repeated pair is marked
    ``"simple": false`` so that it reads back as a multigraph.
    """
    path = str(path)
    # the pair set is dropped before the lines are built
    repeats = len(
        {(u, v) if graph.directed or u <= v else (v, u) for u, v, _ in graph.edges}
    ) < graph.n_edges
    lines = ["# source,target,timestamp"]
    lines.extend(f"{u},{v},{t}" for u, v, t in graph.edges)
    first_seen = _first_seen(graph.edges)
    explicit = {
        str(v): jt
        for v, jt in enumerate(graph.join_times)
        if first_seen.get(v) != jt
    }
    meta = {
        "directed": graph.directed,
        "allow_self_loops": graph.allow_self_loops,
        "time_unit_label": graph.time_unit,
    }
    if explicit:
        meta["explicit_join_times"] = explicit
    if repeats:
        meta["simple"] = False
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + _META_SUFFIX, "w") as fh:
        json.dump(meta, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_edge_list(path) -> TemporalGraph:
    """Read a graph written by :func:`write_edge_list`.

    Records follow the edge-stream grammar and keep their ids as
    written. Raises :class:`EdgeStreamParseError` on a malformed line
    and ``ValueError`` when the sidecar lacks a required key, holds a
    value of the wrong type, or an id below the largest has neither a
    record nor an explicit join time.
    """
    path = str(path)
    sidecar = path + _META_SUFFIX
    with open(sidecar) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar} is not a JSON object")
    for key in ("directed", "allow_self_loops"):
        if key not in meta:
            raise ValueError(f"{sidecar} lacks {key!r}")
    for key in ("directed", "allow_self_loops", "simple"):
        if not isinstance(meta.get(key, True), bool):
            raise ValueError(f"{sidecar}: {key!r} must be true or false")
    explicit = meta.get("explicit_join_times", {})
    if not isinstance(explicit, dict):
        raise ValueError(f"{sidecar}: 'explicit_join_times' must be an object")
    for key, jt in explicit.items():
        if not (key.isascii() and key.isdigit()) or type(jt) is not int or jt < 0:
            raise ValueError(
                f"{sidecar}: explicit_join_times entry {key!r}: {jt!r} is not"
                " a vertex id with a non-negative integer join time"
            )
    with open(path) as fh:
        edges = _parse_records(fh)
    joins = _first_seen(edges)
    for key, jt in explicit.items():
        joins[int(key)] = jt
    try:
        join_times = [joins[v] for v in range(max(joins, default=-1) + 1)]
    except KeyError as exc:
        raise ValueError(f"vertex {exc.args[0]} has no record and no explicit join time") from None
    return TemporalGraph(
        join_times,
        edges,
        directed=meta["directed"],
        allow_self_loops=meta["allow_self_loops"],
        simple=meta.get("simple", True),
        time_unit=meta.get("time_unit_label", ""),
    )
