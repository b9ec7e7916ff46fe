"""Core data model: networks whose vertices and edges carry arrival times.

A :class:`TemporalGraph` is undirected and simple: a pair of vertices is
unordered and joined by at most one edge, and no edge is a loop. It is
four int64 numpy columns and a first-link index built on first use; its
``join_times`` and ``edges`` tuples are built on each read. It is
immutable, so a snapshot is a ``TemporalGraph`` too, built from views of
its parent's arrays, and any number of readers may share them.
The public constructor validates input from outside the program; the
library's own producers build unchecked, and the tests check them.
Timestamps are opaque non-negative integers in caller-defined units
(weeks, years, iteration indices, epoch nanoseconds), below 2**63; the
toolkit never converts calendar units. Every module checks its counts
by :func:`_integer` (an int or numpy integer, not a bool) and
:func:`_positive` (such an integer, at least 1).
"""

from __future__ import annotations

import errno
import io
import json
import numbers
import os
import re
import stat
import warnings
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, int, int]  # (source, target, created)

_META_SUFFIX = ".meta.json"
_NOT_A_TRIPLE = "an edge is a (source, target, created) triple"
# a horizon list holds an int object per entry (~36 bytes), and every
# caller does at least that much work per horizon: ~0.4 GB at the cap
_MAX_HORIZONS = 10**7
# what ``errors="surrogateescape"`` decodes an undecodable byte to
_UNDECODABLE = re.compile("[\udc80-\udcff]")
# a line of blanks or an indented comment, which loadtxt reads in a
# comma file as a record of one empty field
_INDENTED_SKIP = re.compile(r"^[^\S\n]+(?:#|$)", re.MULTILINE)
# a line whose first non-blank character is not ``#``: a record
_RECORD_LINE = re.compile(r"^[^\S\n]*[^\s#].*", re.MULTILINE)
# the names whose files numpy's opener decompresses
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# the characters a text must exceed to be loaded from its file's path:
# below, numpy's opener and the file checks cost more than the lines
_PATH_FLOOR = 20_000
# the edge records write_edge_list formats and writes at a time
_WRITE_ROWS = 65536


def _check_grid(count: int, interval: int) -> None:
    """Refuse a time grid of ``count`` points at ``interval`` when it
    holds more than ``_MAX_HORIZONS``, before anything is built on it."""
    if count > _MAX_HORIZONS:
        raise ValueError(
            f"interval {interval} gives {count} horizons over the time span;"
            f" at most {_MAX_HORIZONS} are supported"
        )


def _int_column(values, what: str, ragged: str = "") -> np.ndarray:
    """``values`` as a new int64 array. Anything else raises
    ``ValueError`` naming ``what``: an array whose kind is not integer,
    or a value that is not an integer (no float is truncated and no
    string parsed), then a value outside the int64 range (no uint64
    value is wrapped). Rows of unequal lengths, of which numpy builds no
    array, raise ``ragged`` (by default the not-integers message)."""
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integers")
        rows = values if values.dtype == np.int64 else values.tolist()  # a cast would wrap uint64
    else:
        rows = list(values)
        try:
            column = np.array(rows)
        except ValueError:  # an inhomogeneous shape
            raise ValueError(ragged or f"{what} must be integers") from None
        if column.dtype == np.int64:
            return column
        # the values as given, which that array may have turned into floats
        cells = (x for row in rows for x in (row if isinstance(row, (list, tuple, np.ndarray)) else (row,)))
        if not all(isinstance(x, (int, np.integer)) for x in cells):
            raise ValueError(f"{what} must be integers")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what} must lie in the int64 range") from None


def _integer(name: str, x) -> int:
    """``x`` as an ``int`` when it is an integer (numpy's included)
    other than a bool; anything else raises ``ValueError`` naming
    ``name``."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {x!r}")
    return int(x)


def _positive(name: str, x) -> int:
    """:func:`_integer` of ``x``; below 1 raises ``ValueError`` too."""
    x = _integer(name, x)
    if x < 1:
        raise ValueError(f"{name} must be positive")
    return x


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """One integer per edge of an ``n``-vertex graph, equal for the edges
    that join the same unordered pair."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _repeated(keys: np.ndarray) -> np.ndarray:
    """True at each position whose key occurs at an earlier position."""
    order, _, head = _runs(keys)
    repeated = np.ones(len(keys), dtype=bool)
    repeated[order[head]] = False  # a run's head is its key's first position
    return repeated


class TemporalGraph:
    """An append-only network frozen at construction time.

    Vertex ids are dense integers in ``[0, n)`` assigned in join order,
    so ``join_times`` must be non-decreasing. Every edge endpoint must
    have joined no later than the edge was created. A pair is
    unordered, so ``(u, v)`` and ``(v, u)`` name one pair; a repeated
    pair is rejected, and so is a self-loop.
    ``edges`` is an iterable of ``(source,
    target, created)`` triples or an ``(E, 3)`` integer array. A value
    that is not an integer, or lies outside the int64 range, is refused
    before any of these checks. Every graph is built by :meth:`_build`;
    this constructor then checks it, while the library's producers,
    which hold every rule by construction, are checked by the tests.

    The graph is held in four read-only int64 numpy columns: ``join``,
    the join time of each vertex id, and ``u``, ``v``, ``t``, the
    source, target and creation time of each edge in input order.
    Besides them the graph keeps only
    its first-link index, built on first use (:meth:`first_links`); the
    tuples ``join_times`` and ``edges`` are built on each read.
    """

    __slots__ = (
        "time_unit",
        "info",
        "join",
        "u",
        "v",
        "t",
        "_first_links",
    )

    def __init__(
        self,
        join_times: Sequence[int] | np.ndarray,
        edges: Iterable[Edge] | np.ndarray,
        *,
        time_unit: str = "",
        info: dict | None = None,
    ):
        join = _int_column(join_times, "join times")
        e = _int_column(edges, "edge fields", _NOT_A_TRIPLE)
        if e.size and e.shape[1:] != (3,):
            raise ValueError(_NOT_A_TRIPLE)
        self._build(join, *e.reshape(-1, 3).T, time_unit, info)
        self._validate()

    def _build(self, join, u, v, t, time_unit="", info=None) -> "TemporalGraph":
        """Set the slots to the int64 columns ``join``, ``u``, ``v``,
        ``t``, frozen but neither copied nor checked; returns ``self``,
        which a producer takes from ``TemporalGraph.__new__``."""
        for column in (join, u, v, t):
            column.flags.writeable = False
        self.join, self.u, self.v, self.t = join, u, v, t
        self.time_unit = time_unit
        self.info = dict(info) if info else {}
        self._first_links = None  # built on first use
        return self

    def _validate(self) -> None:
        # One fault mask per check finds the first faulty position in
        # input order; the checks then run on that position alone, in the
        # order an edge-by-edge loop would run them, so the message is
        # the one that loop would raise first.
        join, u, v, t = self.join, self.u, self.v, self.t
        n = len(join)
        bad = join < 0
        bad[1:] |= join[1:] < join[:-1]
        if bad.any():
            if join[int(bad.argmax())] < 0:
                raise ValueError("join times must be non-negative")
            raise ValueError("vertex ids must be assigned in join order")
        known = (0 <= u) & (u < n) & (0 <= v) & (v < n)
        # the masks below look only at edges before the first unknown id
        end = len(known) if known.all() else int(known.argmin())
        a, b, c = u[:end], v[:end], t[:end]
        bad = (join[a] > c) | (join[b] > c) | (a == b)
        bad |= _repeated(_pair_keys(a, b, n))
        i = int(bad.argmax()) if bad.any() else end
        if i == len(known):
            return
        x, y, z = int(u[i]), int(v[i]), int(t[i])
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"edge ({x}, {y}) references unknown vertex")
        if join[x] > z or join[y] > z:
            raise ValueError(f"edge ({x}, {y}) created at {z} before an endpoint joined")
        if x == y:
            raise ValueError("self-loops are not allowed in this graph")
        raise ValueError(f"duplicate edge ({x}, {y}) in simple graph")

    @property
    def join_times(self) -> tuple[int, ...]:
        """The join time of each vertex id, built from ``join`` on each
        read."""
        return tuple(self.join.tolist())

    @property
    def edges(self) -> tuple[Edge, ...]:
        """``(source, target, created)`` per edge in input order, built
        from ``u``, ``v`` and ``t`` on each read."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.t.tolist()))

    # -- basic facts ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.join)

    @property
    def n_edges(self) -> int:
        return len(self.t)

    @property
    def t_min(self) -> int:
        """Join time of the first vertex (0 for an empty graph)."""
        return int(self.join[0]) if len(self.join) else 0

    @property
    def t_max(self) -> int:
        """Join time of the last vertex (0 for an empty graph)."""
        return int(self.join[-1]) if len(self.join) else 0

    @property
    def active_time(self) -> int:
        """Time between the first and the last vertex arrival."""
        return self.t_max - self.t_min

    @property
    def t_end(self) -> int:
        """Latest event in the graph, vertex join or edge creation."""
        return max(self.t_max, int(self.t.max())) if len(self.t) else self.t_max

    # -- snapshots -----------------------------------------------------

    def snapshot_at(self, t: int) -> "TemporalGraph":
        """The graph of the activity up to time ``t`` (inclusive): the
        vertices that joined by ``t``, an id prefix since ids follow join
        order, and the edges created by ``t``, in time order with equal
        times in input order, with this graph's ``time_unit`` and no
        ``info``. Its columns are views of ``join`` and of the first-link
        index, whose prefix up to ``t`` is its own: nothing is copied."""
        times, v, w = self.first_links(t)
        nv = int(np.searchsorted(self.join, t, side="right"))
        # the first of each edge's two events is (source, target)
        s = TemporalGraph.__new__(TemporalGraph)._build(
            self.join[:nv], v[0::2], w[0::2], times[0::2], self.time_unit
        )
        s._first_links = times, v, w
        return s

    def horizons(self, interval: int) -> list[int]:
        """The snapshot times ``t_min + interval, t_min + 2*interval, ...``,
        ending at ``t_end`` with a final shorter interval when the span
        does not divide evenly; empty for an empty graph. A grid of more
        than ``_MAX_HORIZONS`` times raises ``ValueError``, and so does
        an ``interval`` that is not a positive integer."""
        interval = _positive("interval", interval)
        if self.n_vertices == 0:
            return []
        end = self.t_end
        _check_grid(max(1, -(-(end - self.t_min) // interval)), interval)
        return [*range(self.t_min + interval, end, interval), end]

    def snapshot_series(self, interval: int) -> list["TemporalGraph"]:
        """The :meth:`snapshot_at` graphs at the times of
        :meth:`horizons`, in that order."""
        return [self.snapshot_at(h) for h in self.horizons(interval)]

    def first_links(self, t: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First-link events up to time ``t`` (all of them when ``None``)
        as arrays ``(times, v, w)``, sorted by time with equal times in
        edge input order: vertex ``v[i]`` first touched its distinct
        neighbour ``w[i]`` at ``times[i]``. Each edge gives two events at
        its time, one per endpoint, and every snapshot's simple graph is
        thus a prefix.

        All three are int64 and read-only, like the graph's columns. The
        index is built on first use: the events fill one ``(3, 2E)``
        array by strided writes, ``times``, ``v`` and ``w`` its rows.
        """
        if self._first_links is None:
            u, v, times = self.u, self.v, self.t
            if (times[1:] < times[:-1]).any():  # generated graphs never sort
                order = _stable_order(times)  # equal times stay in input order
                u, v, times = u[order], v[order], times[order]
            # per edge the events (t, u, v) then (t, v, u), by strided assignment
            events = np.empty((3, 2 * len(u)), dtype=np.int64)
            events[0, 0::2] = events[0, 1::2] = times
            events[1, 0::2] = events[2, 1::2] = u
            events[1, 1::2] = events[2, 0::2] = v
            events.flags.writeable = False
            self._first_links = events[0], events[1], events[2]
        times, v, w = self._first_links
        end = len(times) if t is None else int(np.searchsorted(times, t, side="right"))
        return times[:end], v[:end], w[:end]

    def degree_at(self, v: int, t: int) -> int:
        """Number of distinct vertices linked to ``v`` by time ``t``."""
        if not (0 <= v < self.n_vertices):
            raise KeyError(f"unknown vertex {v}")
        return int(np.count_nonzero(self.first_links(t)[1] == v))

    def degrees_at(self, t: int) -> list[int]:
        """Degree of every vertex at time ``t`` (0 for not-yet-joined)."""
        return np.bincount(self.first_links(t)[1], minlength=self.n_vertices).tolist()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TemporalGraph |V|={self.n_vertices} |E|={self.n_edges}>"


# -- serialization -----------------------------------------------------


class EdgeStreamParseError(ValueError):
    """A line failed to parse; carries the 1-based line number."""

    def __init__(self, line_no: int, line: str, reason: str):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no


def _parse_records(source: Iterable[str]) -> np.ndarray:
    """The ``source target timestamp`` records of an edge list as an
    ``(E, 3)`` int64 array: three integer fields in the int64 range,
    split by commas or whitespace, timestamps non-negative; blank and
    ``#``-prefixed lines are skipped.

    A file object is read once, with ``read()``, and split into the
    lines, and line numbers, that iterating it gives when it was opened
    with the default universal newlines, ``newline=""`` or
    ``newline="\\n"``: at ``"\\n"``, and in a ``newline=""`` file also
    at ``"\\r"``. Any other iterable is taken as its lines.

    Clean input (see :func:`_first_record`) is parsed by one
    ``np.loadtxt`` call (a comma file that loadtxt refuses and that
    holds a line of blanks or an indented comment, by a second call
    without its blank and comment lines); anything else goes to
    :func:`_read_records`, a plain line-by-line reader that raises at
    the first faulty line. That first-fault rule holds for files opened
    with ``errors="surrogateescape"``, as :func:`read_edge_list` and the
    CLI open them: an undecodable byte then reaches the reader as a
    fault of its line. Under the default ``errors="strict"`` the file
    object itself raises ``UnicodeDecodeError`` while it is read,
    before any line is checked.

    A text file opened with ``open()`` on a regular file, read from its
    start, and whose text is clean, holds no ``"\\r"`` and is longer than
    ``_PATH_FLOOR`` characters is loaded from its path, which numpy
    reads in chunks, so the text is never split into lines. The array
    is kept only if the path still names the file that was read,
    unchanged (:func:`_file_key`), before and after the load. A shorter
    text, a name that numpy's opener would decompress (``.gz``,
    ``.bz2``, ``.xz``, ``.lzma``), a FIFO or other non-regular file, a
    file object of another kind, an iterable and any refusal from
    loadtxt take the lines of the text already read instead.
    """
    path = lines = None
    if hasattr(source, "read"):
        path = _disk_path(source)  # before the read moves the position
        text = source.read()
        if "\r" in text:
            path = None
            if getattr(source, "newlines", None) is not None:  # opened with newline=""
                lines = list(io.StringIO(text, newline=""))
                text = "\n".join(lines)
    else:
        lines = list(source)
        text = "\n".join(lines)  # a line that is not a str raises TypeError
    first = _first_record(text)
    delimiter = "," if first and "," in first else None
    if first is not None and path is not None and len(text) > _PATH_FLOOR:
        key = _file_key(path, source)
        if key is not None:
            records = _loadtxt(path, delimiter, source.encoding)
            if records is not None and _file_key(path, source) == key:
                return records
    if lines is None:
        lines = text.split("\n")
    records = None if first is None else _loadtxt(lines, delimiter)
    if records is None and delimiter and _INDENTED_SKIP.search(text):
        # without the blank and comment lines, which the reader skips too
        records = _loadtxt([x for x in lines if x.strip()[:1] not in ("", "#")], delimiter)
    return _read_records(lines) if records is None else records


def _disk_path(source) -> str | None:
    """The absolute path of the regular file that ``source``, a text
    file from ``open()``, reads from its start, or ``None``: for another
    kind of file object, a FIFO or other non-regular file, a file read
    part way, a name that is not a ``str`` or a name that numpy's
    opener would decompress."""
    name = getattr(source, "name", None)
    if not (isinstance(source, io.TextIOWrapper) and isinstance(name, str)) or name.endswith(_COMPRESSED):
        return None
    try:
        if stat.S_ISREG(os.fstat(source.fileno()).st_mode) and source.tell() == 0:
            return os.path.abspath(name)
    except (OSError, ValueError):  # not seekable, iterated with next(), closed
        pass
    return None


def _file_key(path: str, source) -> tuple | None:
    """``st_dev``, ``st_ino``, ``st_size`` and ``st_mtime_ns`` of the
    file at ``path`` if they are those of the file ``source`` has open
    and ``source``, read to its end, has read ``st_size`` bytes; else
    ``None``. Equal keys before and after a load show that the load
    read the bytes that ``source`` read."""
    try:
        named, opened = os.stat(path), os.fstat(source.fileno())
    except OSError:
        return None
    key = (named.st_dev, named.st_ino, named.st_size, named.st_mtime_ns)
    if key != (opened.st_dev, opened.st_ino, opened.st_size, opened.st_mtime_ns):
        return None
    return key if source.tell() == named.st_size else None


def _first_record(text: str) -> str | None:
    """The first record line of ``text`` if ``np.loadtxt`` reads the
    records of ``text`` as :func:`_read_records` would, or may refuse,
    with the delimiter of that line (commas if it holds one, else
    whitespace); ``None`` if it cannot vouch for that: ``text`` is not
    ASCII, holds no record (loadtxt would warn "no data"), holds ``#``
    after a line's first non-blank character (where loadtxt would cut a
    comment off mid-line, the reader counts fields), or is a comma file
    holding U+001C-U+001F. loadtxt itself rejects the rest of what
    ``int()`` reads differently or not at all: a line with another
    delimiter, ``_`` digit groups, values past int64, line breaks or
    NULs inside a line.

    Outside ASCII, numpy 2.4 reads some letters and digits as numbers
    (``3`` then U+0968, a Devanagari two, as 2390 where ``int()`` reads
    32), and around a comma-split field it strips the separators
    U+001C-U+001F, which ``int()`` refuses; both go to the reader."""
    if not text.isascii():
        return None
    first = _RECORD_LINE.search(text)
    if first is None:
        return None
    mark = text.find("#")
    while mark >= 0:
        if text[text.rfind("\n", 0, mark) + 1 : mark].strip():
            return None
        end = text.find("\n", mark)
        mark = text.find("#", end) if end >= 0 else -1
    if "," in first[0] and any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    return first[0]


def _loadtxt(source: list[str] | str, delimiter: str | None, encoding: str | None = None) -> np.ndarray | None:
    """The records ``np.loadtxt`` reads with ``delimiter`` from
    ``source``, lines or the path of a file in ``encoding``; ``None``
    where it raises or warns (a path that cannot be opened included),
    or unless they are three int64 columns with no negative timestamp."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = np.loadtxt(source, dtype=np.int64, comments="#",
                                 delimiter=delimiter, ndmin=2, encoding=encoding)
    except (OSError, ValueError, Warning):
        return None
    if records.shape[1] != 3 or (records[:, 2] < 0).any():
        return None
    return records


def _read_records(lines: Iterable[str]) -> np.ndarray:
    """The records of ``lines`` read one line at a time: raises
    :class:`EdgeStreamParseError` at the first line holding an
    undecodable byte (U+DC80-U+DCFF, as ``surrogateescape`` decodes it;
    comments and blank lines included), a wrong field count, a
    non-integer field, a field outside the int64 range or a negative
    timestamp, checked in that order."""
    fields: list[int] = []  # three per record
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if _UNDECODABLE.search(line):
            raise EdgeStreamParseError(line_no, line, "undecodable byte")
        if not line or line[0] == "#":
            continue
        parts = line.split(",") if "," in line else line.split()
        if len(parts) != 3:
            raise EdgeStreamParseError(line_no, line, "expected 3 fields")
        try:
            fields += map(int, parts)
        except ValueError:
            raise EdgeStreamParseError(line_no, line, "fields must be integers") from None
        if min(fields[-3:]) < -(2**63) or max(fields[-3:]) >= 2**63:
            raise EdgeStreamParseError(line_no, line, "fields must lie in the int64 range")
        if fields[-1] < 0:
            raise EdgeStreamParseError(line_no, line, "negative timestamp")
    return np.array(fields, dtype=np.int64).reshape(-1, 3)


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, by the first of three
    routes that fits. Values that span fewer than ``2**16`` (``max - min
    < 2**16``, as a stream's few distinct times do) are moved to
    ``uint16`` as ``value - min``, whose stable argsort is numpy's radix
    sort. Otherwise one plain sort of ``(value - min) * len + position``
    where that key fits in int64, and otherwise (a wider range) the
    default argsort, then one plain sort of ``run * len + position``,
    which puts each run of equal values back in input order. Each is
    cheaper than numpy's stable sort of the int64 values."""
    e = len(values)
    if e:
        low = int(values.min())
        high = int(values.max())  # unbounded ints: no wrap
        if high - low < 2**16:
            return np.argsort((values - low).astype(np.uint16), kind="stable")
        if (high - low + 1) * e < 2**63:
            key = values - low
            key *= e
            key += np.arange(e)
            key.sort()
            return np.remainder(key, e, out=key)
    order = np.argsort(values)
    key = np.zeros(e, dtype=np.int64)  # run of equal values, then position
    ranked = values[order]
    key[1:] = ranked[1:] != ranked[:-1]
    np.cumsum(key, out=key)
    key *= e
    key += order
    key.sort()
    return np.remainder(key, e, out=key)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`_stable_order` of ``values``, the values in that
    order, and a mask that is True at the head of each run of equal
    values in it, which is the first position of that value."""
    order = _stable_order(values)
    ranked = values[order]
    head = np.ones(len(values), dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    return order, ranked, head


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``np.unique(values, return_index=True, return_inverse=True)``
    returns: the sorted distinct values, the first position of each, and
    each position's index into them.

    Values that span no more than their count (``max - min + 1 <=
    len``, as vertex ids do) are counted, not sorted: ``np.minimum.at``
    takes each value's first position into a table indexed by ``value -
    min``, whose filled slots are the distinct values in order and whose
    running count of filled slots ranks each value for the inverse.
    Values of a wider span, such as pair keys, take one
    :func:`_stable_order`, in whose order the head of each run of equal
    values is its first position."""
    e = len(values)
    if e:
        low = int(values.min())
        span = int(values.max()) - low + 1  # unbounded ints: no wrap
        if span <= e:
            slot = values - low
            first = np.full(span, e, dtype=np.int64)  # e: no value there
            np.minimum.at(first, slot, np.arange(e))
            present = first < e
            rank = np.cumsum(present)
            rank -= 1
            return np.flatnonzero(present) + low, first[present], rank[slot]
    order, ranked, head = _runs(values)
    run = head.astype(np.int64)  # an int64 cumsum is several times a bool one
    np.cumsum(run, out=run)
    run -= 1
    index = np.empty_like(run)
    index[order] = run
    heads = np.flatnonzero(head)  # cheaper than two boolean-mask reads
    return ranked[heads], order[heads], index


def _first_seen(records: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The vertices an ``(E, 3)`` record array names, as sorted ``ids``
    with ``join``, the earliest timestamp of any record naming each, and
    ``first``, its first position in the endpoint sequence ``u0, v0, u1,
    v1, ...`` (source before target); ``index`` maps that sequence to
    positions in ``ids``. Ids that span no more values than the sequence
    holds are counted, not sorted (see :func:`_distinct`).

    The sequence is an ``(E, 2)`` array filled by two column writes,
    read flat. No repeated time column is built: a vertex starts from
    the time of the record at its first position, and ``np.minimum.at``
    over the sources and over the targets folds in the record times."""
    ends = np.empty((len(records), 2), dtype=np.int64)
    ends[:, 0] = records[:, 0]
    ends[:, 1] = records[:, 1]
    ids, first, index = _distinct(ends.reshape(-1))
    times = records[:, 2]
    join = times[first >> 1]  # endpoint position p is record p // 2
    np.minimum.at(join, index[0::2], times)
    np.minimum.at(join, index[1::2], times)
    return ids, join, first, index


@contextmanager
def _replacing(path: str, newline: str | None = None) -> Iterator:
    """Open a text file that takes the place of ``path`` only once it is
    fully written: the text goes to a temporary file in the same
    directory, which ``os.replace`` moves over ``path`` on success and
    which is removed on any error, so ``path`` is never half written."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", newline=newline)
    except OSError as exc:  # name the file the caller asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.remove(tmp)
        raise


def write_edge_list(graph: TemporalGraph, path) -> None:
    """Write ``source,target,timestamp`` lines plus a JSON metadata
    sidecar at ``<path>.meta.json``. The lines are formatted and written
    ``_WRITE_ROWS`` at a time, so the text of the whole file is never
    held at once.

    Join times that cannot be recovered from the edge records (isolated
    vertices, or vertices that joined before their first edge) are kept
    in the sidecar so that reading the files back reproduces identical
    snapshots at every horizon. A target that is a directory raises
    ``IsADirectoryError`` before either file is written.
    """
    path = str(path)
    for target in (path, path + _META_SUFFIX):
        if os.path.isdir(target):  # no file can replace it: refuse before writing either
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    join, u, v, t = graph.join, graph.u, graph.v, graph.t
    # No record precedes its endpoints' join, so a vertex's earliest
    # record carries its join time exactly when some record does.
    implied = np.zeros(len(join), dtype=bool)
    implied[u[join[u] == t]] = True
    implied[v[join[v] == t]] = True
    explicit = {
        str(x): jt
        for x, jt in zip(np.flatnonzero(~implied).tolist(), join[~implied].tolist())
    }
    meta = {
        # both kept so older readers accept the file
        "directed": False,
        "allow_self_loops": False,
        "time_unit_label": graph.time_unit,
    }
    if explicit:
        meta["explicit_join_times"] = explicit
    # both files are written out before either replaces its target, so
    # a failure leaves the old pair whole
    with _replacing(path) as fh, _replacing(path + _META_SUFFIX) as meta_fh:
        fh.write("# source,target,timestamp\n")
        for start in range(0, len(t), _WRITE_ROWS):  # the text of one chunk at a time
            rows = np.column_stack([column[start : start + _WRITE_ROWS] for column in (u, v, t)])
            fh.write("%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist()))
        fh.flush()
        json.dump(meta, meta_fh, sort_keys=True, separators=(",", ":"))
        meta_fh.write("\n")


def read_edge_list(path) -> TemporalGraph:
    """Read a graph written by :func:`write_edge_list`.

    Records follow the edge-stream grammar and keep their ids as
    written. Raises :class:`EdgeStreamParseError` on a malformed line
    and ``ValueError`` when the sidecar holds ``"directed": true`` (every
    graph is undirected) or a value of the wrong type, or an id below
    the largest has neither a record nor an explicit join time, an
    explicit join time lies past the int64 range, or the file repeats a
    pair, in either order, or holds a self-loop. ``"directed"`` may be
    absent or false; the sidecar's self-loop key and an old sidecar's
    ``"simple"`` may be absent, or true or false, and are ignored.
    """
    path = str(path)
    sidecar = path + _META_SUFFIX
    with open(sidecar) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar} is not a JSON object")
    for key in ("directed", "allow_self_loops", "simple"):
        if not isinstance(meta.get(key, True), bool):
            raise ValueError(f"{sidecar}: {key!r} must be true or false")
    if meta.get("directed", False):
        raise ValueError(f"{sidecar}: directed graphs are not supported")
    if not isinstance(meta.get("time_unit_label", ""), str):
        raise ValueError(f"{sidecar}: 'time_unit_label' must be a string")
    explicit = meta.get("explicit_join_times", {})
    if not isinstance(explicit, dict):
        raise ValueError(f"{sidecar}: 'explicit_join_times' must be an object")
    for key, jt in explicit.items():
        if not (key.isascii() and key.isdigit()) or type(jt) is not int or jt < 0:
            raise ValueError(
                f"{sidecar}: explicit_join_times entry {key!r}: {jt!r} is not"
                " a vertex id with a non-negative integer join time"
            )
    with open(path, errors="surrogateescape") as fh:
        records = _parse_records(fh)
    ids, join, _, _ = _first_seen(records)
    joins = dict(zip(ids.tolist(), join.tolist()))
    for key, jt in explicit.items():
        joins[int(key)] = jt
    try:
        join_times = [joins[v] for v in range(max(joins, default=-1) + 1)]
    except KeyError as exc:
        raise ValueError(f"vertex {exc.args[0]} has no record and no explicit join time") from None
    return TemporalGraph(join_times, records, time_unit=meta.get("time_unit_label", ""))
