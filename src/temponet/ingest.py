"""Build temporal graphs from raw timestamped edge streams.

Accepts whitespace- or comma-delimited text with three integer columns
``source target timestamp``, each in the int64 range; ``#``-prefixed
lines are comments. Records need not be time-ordered, and the graph is
undirected: records that join one pair in either order are one edge. A
vertex's join time is the earliest timestamp of any record mentioning
it. The grammar and the join rule are
the ones :func:`temponet.temporal_graph.read_edge_list` applies to a
sidecar-backed file.

The path is columnar: the parser reads a file once and turns the
records into one ``(E, 3)`` int64 array, and the loop drop, dedupe,
ranking and remap are numpy operations over dense vertex indices. A
clean ASCII stream in one delimiter style is parsed by a single
``np.loadtxt`` call; any other stream is read line by line, and a
malformed one raises for its first faulty line, with the reason that
reader gives it first.

The endpoint ids give the vertices, their first appearance and join
times. Ids that span no more values than the stream has endpoints
(``max - min + 1 <= 2 * E``, as in a stream of dense or near-dense ids)
are counted, not sorted (see :func:`~temponet.temporal_graph._distinct`):
a table indexed by ``id - min`` holds each id's first position. Wider
ids, the pair keys, which give the dedupe, and the join times, which
rank the vertices, are each sorted once, stably (see
:func:`~temponet.temporal_graph._stable_order`). Where a key spans
fewer than ``2**16`` values (``max - min < 2**16``, as a stream's join
times often do) that is numpy's radix sort of ``uint16`` offsets; else,
where ``(max - min + 1) * len`` fits in int64, one plain sort of a
packed value-and-position key; otherwise (ids or times spread wider)
the default argsort, then one plain sort of a run-and-position key.

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

    The graph is undirected. Duplicate edges (the same unordered pair of
    endpoints) collapse to one edge: the first record's orientation and
    position, stamped with the earliest timestamp of any of them. A
    self-loop record is dropped, but its endpoint is kept as a vertex.
    Raw vertex ids are remapped to dense ids in join order (ties broken
    by first appearance), which leaves conforming streams unchanged.

    The records are parsed into int64 columns, by one ``np.loadtxt``
    call when the stream is ASCII, uses the delimiter of its first
    record throughout and has no fault, and otherwise by a line-by-line
    reader, which gives the same columns; a file object is read once.
    Every later step (loop drop, dedupe, ranking, remap) is a numpy
    operation over dense vertex indices. Endpoint ids that span no more
    values than the stream has endpoints are counted, not sorted (see
    :func:`~temponet.temporal_graph._distinct`); wider ids, the pair keys
    and the join times keep one stable sort each, by the radix, packed or
    run route of :func:`~temponet.temporal_graph._stable_order`. Repeated
    pairs merge by the runs of the pair keys in that order. Raises
    :class:`EdgeStreamParseError` naming the first malformed line, with
    the reason checked first (an undecodable byte, which a file opened
    with ``errors="surrogateescape"`` passes on, then a wrong field
    count, a non-integer field, a field outside the int64 range, a
    negative timestamp).

    The first-fault rule holds for a file opened with
    ``errors="surrogateescape"``, as the CLI and
    :func:`~temponet.temporal_graph.read_edge_list` open theirs. A file
    opened with the default ``errors="strict"`` is read as given, so it
    raises ``UnicodeDecodeError`` at its first undecodable byte, before
    any line is checked.
    """
    records = _parse_records(source)
    if not len(records):
        raise ValueError("empty edge stream")
    ids, join, first, index = _first_seen(records)
    n = len(ids)
    u, v, t = index[0::2], index[1::2], records[:, 2]

    edge = u != v  # the vertex stays; only the loop edge is dropped
    u, v, t = u[edge], v[edge], t[edge]
    # a run of equal pair keys is one pair's records: its head is the
    # first record, and its minimum the earliest time
    order, _, head = _runs(_pair_keys(u, v, n))
    heads = np.flatnonzero(head)
    firsts = order[heads]
    kept = np.zeros(len(order), dtype=bool)
    kept[firsts] = True
    stamp = np.empty_like(t)
    stamp[firsts] = np.minimum.reduceat(t[order], heads)
    u, v, t = u[kept], v[kept], stamp[kept]

    # join order, ties broken by first appearance: the vertices in
    # first-appearance order (marked at their first endpoint positions),
    # then stably sorted by join time
    appears = np.zeros(2 * len(records), dtype=bool)
    appears[first] = True
    seen = index[np.flatnonzero(appears)]
    ranked = seen[_stable_order(join[seen])]
    remap = np.empty(n, dtype=np.int64)
    remap[ranked] = np.arange(n)
    # unchecked: joins are >= 0 (the parser refuses negative times), ids
    # in join order (the stable sort), join[x] <= t (a pair's stamp is the
    # minimum over records naming both ends), loops dropped, and one edge
    # kept per run of pair keys
    return TemporalGraph.__new__(TemporalGraph)._build(join[ranked], remap[u], remap[v], t)


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
