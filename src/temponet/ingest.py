"""Build temporal graphs from raw timestamped edge streams.

Accepts whitespace- or comma-delimited text with three integer columns
``source target timestamp``, each in the int64 range; ``#``-prefixed
lines are comments. Records need not be time-ordered, and the graph is
undirected: records that join one pair in either order are one edge. A
vertex's join time is the earliest timestamp of any record mentioning
it. The grammar and the join rule are
the ones :func:`temponet.temporal_graph.read_edge_list` applies to a
sidecar-backed file.

The path is columnar. The parser turns the records into one ``(E, 3)``
int64 array, by one ``np.loadtxt`` call on clean text and a
line-by-line reader otherwise (see
:func:`~temponet.temporal_graph._parse_records`). The loop drop,
dedupe, ranking and remap are numpy operations over dense vertex
indices: the endpoint ids are counted or sorted by
:func:`~temponet.temporal_graph._distinct`, and the pair keys and join
times are each sorted once, stably, by
:func:`~temponet.temporal_graph._stable_order`.

The dedupe reads the runs of equal pair keys in their one stable
order: the head of each run is its pair's first record, and
``np.minimum.reduceat`` over the run gives the pair's earliest time;
two scatters mark the kept records and stamp them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .temporal_graph import EdgeStreamParseError, TemporalGraph
from .temporal_graph import _first_seen, _pair_keys, _parse_records, _runs, _stable_order


def read_edge_stream(source: Iterable[str]) -> TemporalGraph:
    """Parse a line-oriented edge stream into a TemporalGraph.

    ``source`` is a file object, read once, or an iterable of lines. A
    record is ``source target timestamp``: three integers in the int64
    range, split by commas or whitespace, the timestamp non-negative;
    blank and ``#``-prefixed lines are skipped. A stream without a
    record raises ``ValueError``.

    The graph is undirected. Records of the same unordered pair of
    endpoints collapse to one edge: the first record's orientation and
    position, stamped with the earliest timestamp of any of them. A
    self-loop record is dropped, but its endpoint is kept as a vertex.
    Raw vertex ids are remapped to dense ids in join order (ties broken
    by first appearance), which leaves conforming streams unchanged.

    A malformed stream raises :class:`EdgeStreamParseError` naming its
    first faulty line, with the reason checked first: an undecodable
    byte, a wrong field count, a non-integer field, a field outside the
    int64 range, a negative timestamp. That holds for a file opened with
    ``errors="surrogateescape"``, as the CLI and
    :func:`~temponet.temporal_graph.read_edge_list` open theirs: such a
    file passes an undecodable byte on to its line. A file opened with the
    default ``errors="strict"`` is read as given, so it raises
    ``UnicodeDecodeError`` at its first undecodable byte, before any
    line is checked.
    """
    records = _parse_records(source)
    e = len(records)
    if not e:
        raise ValueError("empty edge stream")
    # each array is dropped after its last use, which bounds the peak
    ids, join, first, index = _first_seen(records)
    n = len(ids)
    # join order, ties broken by first appearance: the vertices in
    # first-appearance order (marked at their first endpoint positions),
    # then stably sorted by join time
    appears = np.zeros(2 * e, dtype=bool)
    appears[first] = True
    seen = index[np.flatnonzero(appears)]
    del ids, first, appears

    edge = index[0::2] != index[1::2]  # the vertex stays; only the loop edge is dropped
    u, v, t = index[0::2][edge], index[1::2][edge], records[edge, 2]
    del records, index, edge
    # a run of equal pair keys is one pair's records: its head is the
    # first record, and its minimum the earliest time
    order, keys, head = _runs(_pair_keys(u, v, n))
    heads = np.flatnonzero(head)
    del keys, head
    firsts = order[heads]
    stamp = np.empty_like(t)
    stamp[firsts] = np.minimum.reduceat(t[order], heads)
    del order, heads
    kept = np.zeros(len(t), dtype=bool)
    kept[firsts] = True
    del firsts
    u, v, t = u[kept], v[kept], stamp[kept]
    del stamp, kept

    ranked = seen[_stable_order(join[seen])]
    remap = np.empty(n, dtype=np.int64)
    remap[ranked] = np.arange(n)
    u, v = remap[u], remap[v]
    # unchecked: joins are >= 0 (the parser refuses negative times), ids
    # in join order (the stable sort), join[x] <= t (a pair's stamp is the
    # minimum over records naming both ends), loops dropped, and one edge
    # kept per run of pair keys
    return TemporalGraph.__new__(TemporalGraph)._build(join[ranked], u, v, t)


def normalize_times(g: TemporalGraph) -> TemporalGraph:
    """Shift all timestamps so the first arrival sits at 0; pairwise
    differences are preserved. Already-normalized graphs come back
    equal. The shifted graph shares the edge endpoint columns of ``g``
    and, like the readers' and generators' graphs, is not validated."""
    if g.n_vertices == 0:
        raise ValueError("cannot normalize an empty graph")
    shift = g.t_min
    if shift == 0:
        return g
    # a shift by the first join time keeps join order, join <= t and times >= 0
    return TemporalGraph.__new__(TemporalGraph)._build(
        g.join - shift, g.u, g.v, g.t - shift, g.time_unit, g.info)
