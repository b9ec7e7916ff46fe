import io
import json
import os
import random
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import read_edge_list_brute, read_edge_stream_brute, validate_brute
from temponet import (
    EdgeStreamParseError,
    TemporalGraph,
    TimeDiffFn,
    TpaParams,
    baseline_generate,
    normalize_times,
    read_edge_list,
    read_edge_stream,
    tpa_generate,
    write_edge_list,
)
from temponet import temporal_graph
from temponet.cli import main


def stream(text):
    return io.StringIO(text)


class TestReadEdgeStream:
    def test_three_line_example_with_dedupe(self):
        g = read_edge_stream(stream("0 1 5\n1 2 6\n0 1 9\n"))
        assert g.n_vertices == 3
        assert g.n_edges == 2
        assert g.edges[0] == (0, 1, 5)
        assert list(g.join_times) == [5, 5, 6]

    def test_self_loop_dropped_but_vertex_kept(self):
        g = read_edge_stream(stream("0 1 5\n3 3 7\n"))
        assert g.n_vertices == 3
        assert g.n_edges == 1

    def test_duplicate_keeps_earliest_stamp_at_first_position(self):
        g = read_edge_stream(stream("0 1 9\n1 2 6\n1 0 5\n"))
        # undirected collapse: (0,1) first seen at position 0, stamped 5
        assert g.edges[0][2] == 5
        assert g.n_edges == 2

    def test_duplicate_keeps_first_records_orientation(self):
        g = read_edge_stream(stream("1 0 9\n2 1 3\n0 1 5\n"))
        # joins 1 -> 3, 2 -> 3, 0 -> 5 remap raw ids 1, 2, 0 to 0, 1, 2;
        # the pair keeps raw "1 0" from its first record, at position 0,
        # stamped 5 from the later "0 1" record
        assert g.edges == ((0, 2, 5), (1, 0, 3))

    def test_comma_delimited_and_comments(self):
        g = read_edge_stream(stream("# header\n0,1,5\n\n1,2,6\n"))
        assert g.n_edges == 2

    def test_parse_error_carries_line_number(self):
        with pytest.raises(EdgeStreamParseError) as err:
            read_edge_stream(stream("0 1 5\nnot a line\n"))
        assert err.value.line_no == 2
        with pytest.raises(EdgeStreamParseError):
            read_edge_stream(stream("0 1\n"))
        with pytest.raises(EdgeStreamParseError):
            read_edge_stream(stream("0 1 -4\n"))

    @pytest.mark.parametrize("text, line_no, reason", [
        ("0 1 5\n0 2 -1\n# c\n1 2 x\n", 2, "negative timestamp"),
        ("0 1 5\n0 2 x\n\n1 2 -1\n", 2, "fields must be integers"),
        ("0 1 5\n0 2\n1 2 x\n1 2 -1\n", 2, "expected 3 fields"),
        ("0 1 x\n0 2\n1 2 -1\n", 1, "fields must be integers"),
        ("0 1 -1\n\n0 2 3 4\n", 1, "negative timestamp"),
    ])
    def test_first_faulty_line_wins(self, text, line_no, reason):
        with pytest.raises(EdgeStreamParseError, match=reason) as err:
            read_edge_stream(stream(text))
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("data, line_no, reason", [
        (b"0 1 5\n0 1 x\n\xff\n", 2, "fields must be integers: '0 1 x'"),
        (b"0 1 5\n1 2 3\n\xff\n", 3, "undecodable byte: '\\udcff'"),
        (b"# caf\xe9\n0 1 5\n", 1, "undecodable byte: '# caf\\udce9'"),
    ], ids=["faulty_line_first", "bad_byte_first", "latin1_comment"])
    def test_first_faulty_line_of_a_file_with_an_undecodable_byte(
        self, tmp_path, capsys, data, line_no, reason
    ):
        # the faulty line may share a decode chunk with the bad byte
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        assert main(["analyze", "--in", str(path), "--interval", "1", "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == f"error: cannot read {path}: line {line_no}: {reason}\n"
        (tmp_path / "g.txt.meta.json").write_text(json.dumps(TestReadEdgeList.META))
        with pytest.raises(EdgeStreamParseError) as err:
            read_edge_list(path)
        assert str(err.value) == f"line {line_no}: {reason}"

    def test_first_faulty_line_of_a_file_opened_with_surrogateescape(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1 5\n0 1 x\n\xff\n")
        with open(path, errors="surrogateescape") as fh:
            with pytest.raises(EdgeStreamParseError) as err:
                read_edge_stream(fh)
        assert str(err.value) == "line 2: fields must be integers: '0 1 x'"
        # a strict file object raises at the byte, as it is given
        with open(path) as fh:
            with pytest.raises(UnicodeDecodeError):
                read_edge_stream(fh)

    @pytest.mark.parametrize("newline", [None, "", "\n"])
    @pytest.mark.parametrize("data", [
        b"0 1 5\r1 2 6\r\n2,3,7\n\r# c\r3 4 8\r",
        b"0 1 5\r1 2 6\r2 3 x\r3 4 8\n",
        b"0,1,5\r\n1,2,6\r\n\r\n2,3,7\r\n",
        b"0 1 5\n1 2 6\r7\n",
    ], ids=["mixed_ends", "fault_after_cr", "crlf", "cr_inside_a_line"])
    def test_a_file_object_reads_as_its_lines(self, tmp_path, newline, data):
        # read once and split, a file gives the lines and line numbers
        # that iterating it gives, in each of these newline modes
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        with open(path, newline=newline) as fh:
            lines = list(fh)
        with open(path, newline=newline) as fh:
            assert outcome(lambda: read_edge_stream(fh).edges) == outcome(lambda: read_edge_stream(lines).edges)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            read_edge_stream(stream("# nothing\n"))

    def test_sparse_ids_are_remapped_in_join_order(self):
        g = read_edge_stream(stream("17 99 10\n5 17 4\n"))
        # joins: 5 -> 4, 17 -> 4, 99 -> 10; dense ids follow join order,
        # and 17 precedes 5 because it appears first
        assert list(g.join_times) == [4, 4, 10]
        assert g.edges == ((0, 2, 10), (1, 0, 4))

    def test_opposite_records_are_one_pair(self):
        # the first record keeps its orientation, stamped with the earlier time
        g = read_edge_stream(stream("0 1 6\n1 0 5\n"))
        assert g.edges == ((0, 1, 5),)

    def test_unsorted_timestamps(self):
        g = read_edge_stream(stream("1 2 9\n0 1 2\n"))
        assert list(g.join_times) == [2, 2, 9]

    def test_time_unit_label_carried_through(self):
        g = TemporalGraph([5, 5], [(0, 1, 5)], time_unit="weeks")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.csv")
            write_edge_list(g, path)
            assert read_edge_list(path).time_unit == "weeks"


class TestReadEdgeList:
    META = {"directed": False, "allow_self_loops": False, "time_unit_label": ""}

    def write(self, tmp_path, records, meta=META):
        path = tmp_path / "g.csv"
        path.write_text("# source,target,timestamp\n" + records)
        (tmp_path / "g.csv.meta.json").write_text(json.dumps(meta))
        return str(path)

    @pytest.mark.parametrize("bad", ["0,1,1.5", "0,1", "0,1,-4"])
    def test_parse_error_carries_line_number(self, tmp_path, bad):
        path = self.write(tmp_path, f"0,1,1\n\n{bad}\n")
        with pytest.raises(EdgeStreamParseError) as err:
            read_edge_list(path)
        assert err.value.line_no == 4

    def test_id_gap_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="vertex 1 has no record"):
            read_edge_list(self.write(tmp_path, "0,5,1\n"))

    @pytest.mark.parametrize("loops", [False, True])
    def test_self_loop_is_rejected_whatever_the_sidecar_says(self, tmp_path, loops):
        path = self.write(tmp_path, "0,1,5\n1,1,6\n", {**self.META, "allow_self_loops": loops})
        with pytest.raises(ValueError, match="^self-loops are not allowed in this graph$"):
            read_edge_list(path)


    def test_directed_sidecar_is_refused(self, tmp_path):
        path = self.write(tmp_path, "0,1,1\n", {**self.META, "directed": True})
        with pytest.raises(ValueError, match=r"^.*/g\.csv\.meta\.json: directed graphs are not supported$"):
            read_edge_list(path)

    def test_sidecar_without_directed_reads_the_undirected_graph(self, tmp_path):
        g = read_edge_list(self.write(tmp_path, "0,1,1\n2,1,3\n", {"allow_self_loops": False}))
        assert (g.join_times, g.edges) == ((1, 1, 3), ((0, 1, 1), (2, 1, 3)))


class TestNormalizeTimes:
    def test_shift(self):
        g = TemporalGraph([100, 104, 112], [(0, 1, 104), (1, 2, 112)])
        n = normalize_times(g)
        assert list(n.join_times) == [0, 4, 12]
        assert n.edges == ((0, 1, 4), (1, 2, 12))

    def test_idempotent(self):
        g = TemporalGraph([0, 4, 12], [(0, 1, 4)])
        assert normalize_times(g) is g

    def test_empty_graph_is_refused(self):
        with pytest.raises(ValueError, match="cannot normalize an empty graph"):
            normalize_times(TemporalGraph([], []))

    def test_differences_preserved(self):
        rng = random.Random(8)
        for _ in range(30):
            base = rng.randint(1, 1000)
            joins = sorted(base + rng.randint(0, 50) for _ in range(5))
            g = TemporalGraph(joins, [])
            n = normalize_times(g)
            for i in range(5):
                for j in range(5):
                    assert n.join_times[i] - n.join_times[j] == g.join_times[i] - g.join_times[j]


def raw_stream_records(seed):
    """A shuffled raw stream of a tpa network, as ``[u, v, t]`` lists: its
    edges, a later reversed duplicate of each tenth, and three self-loops."""
    rng = random.Random(seed)
    g = tpa_generate(TpaParams(m=3, schedule=[20, 40, 80, 40], f=TimeDiffFn.exp_base(2), seed=seed))
    records = [list(e) for e in g.edges]
    records += [[b, a, t + rng.randint(1, 3)] for a, b, t in records[::10]]
    records += [[x, x, g.t_end] for x in rng.sample(range(g.n_vertices), 3)]
    rng.shuffle(records)
    return records


class TestWideIdsAndOffsets:
    """Ids mapped through a random injective 62-bit map, and times moved by
    10**15, change nothing after zero-basing; the endpoint sort then takes
    its wider route (the default argsort and a run key)."""

    @staticmethod
    def copies(seed):
        records = raw_stream_records(seed)
        n = 1 + max(max(u, v) for u, v, _ in records)
        wide = dict(enumerate(random.Random(seed).sample(range(2**62), n)))
        return ["".join(f"{u} {v} {t}\n" for u, v, t in records),
                "".join(f"{wide[u]} {wide[v]} {t + 10**15}\n" for u, v, t in records)]

    def test_read_and_normalize_give_the_same_columns(self, monkeypatch):
        calls = []  # the argsorts' argument dtypes: uint16 on the radix route, int64 on the run route
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, *r, **k: calls.append(a.dtype.name) or argsort(a, *r, **k))
        for seed in range(4):
            graphs = []
            for text in self.copies(seed):
                calls.clear()
                g = normalize_times(read_edge_stream(stream(text)))
                graphs.append((g, set(calls)))
            (plain, plain_calls), (wide, wide_calls) = graphs
            # radix and packed sorts only, then the run route as well
            assert (plain_calls, "int64" in wide_calls) == ({"uint16"}, True)
            for column in ("join", "u", "v", "t"):
                a, b = getattr(plain, column), getattr(wide, column)
                assert a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist(), column
            assert plain.first_links()[0].tolist() == wide.first_links()[0].tolist()

    def test_stars_writes_the_same_table(self, tmp_path):
        for name in ("plain", "wide"):
            os.mkdir(tmp_path / name)
        for seed in range(3):
            for name, text in zip(("plain", "wide"), self.copies(seed)):
                (tmp_path / name / f"s{seed}.txt").write_text(text)
        tables = []
        for name in ("plain", "wide"):
            out = str(tmp_path / f"{name}.csv")
            assert main(["stars", "--dir", str(tmp_path / name), "--k", "5", "--w", "1",
                         "--interval", "1", "--out", out]) == 0
            with open(out, "rb") as fh:
                tables.append(fh.read())
        assert tables[0] == tables[1] and tables[0].count(b"\n") > 1


class TestCountedIds:
    """Endpoint ids spanning no more values than the stream has endpoints
    are counted, not sorted; one value wider, they take the sort. Both
    routes read the same graph as the loop reader."""

    @staticmethod
    def spread(seed, extra):
        """``raw_stream_records(seed)`` with its ids moved injectively onto
        values from ``10**12 + seed`` whose span is the endpoint count
        plus ``extra``, both ends taken; and the endpoint count."""
        records = raw_stream_records(seed)
        rng = random.Random(seed)
        ids = sorted({x for u, v, _ in records for x in (u, v)})
        low, span = 10**12 + seed, 2 * len(records) + extra
        inner = rng.sample(range(low + 1, low + span - 1), len(ids) - 2)
        values = [low, low + span - 1, *inner]
        rng.shuffle(values)
        moved = dict(zip(ids, values))
        return [f"{moved[u]} {moved[v]} {t}\n" for u, v, t in records], 2 * len(records)

    @pytest.mark.parametrize("extra, sorted_ids", [(0, False), (1, True)])
    def test_reader_matches_oracle_and_round_trips(self, tmp_path, monkeypatch, extra, sorted_ids):
        lengths = []
        stable_order = temporal_graph._stable_order
        monkeypatch.setattr(temporal_graph, "_stable_order",
                            lambda values: lengths.append(len(values)) or stable_order(values))
        for seed in range(3):
            lines, endpoints = self.spread(seed, extra)
            lengths.clear()
            g = read_edge_stream(lines)
            assert (endpoints in lengths) == sorted_ids  # only the endpoint sequence is that long
            assert (list(g.join_times), list(g.edges)) == read_edge_stream_brute(lines)
            path = str(tmp_path / f"g{seed}.csv")
            write_edge_list(g, path)
            back = read_edge_list(path)
            for column in ("join", "u", "v", "t"):
                assert getattr(back, column).tolist() == getattr(g, column).tolist(), column


class TestDedupe:
    """Repeated pairs merge by the runs of their sorted pair keys: the
    first record of a run keeps its orientation and position, stamped
    with the run's earliest time, as the loop reader does."""

    def test_repeated_pairs_at_tied_and_untied_times(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 30)
            records = []
            for _ in range(rng.randint(1, 40)):
                u, v, t = rng.randrange(n), rng.randrange(n), rng.randrange(50)
                # each pair again in either orientation, at the same time,
                # earlier or later
                for _ in range(rng.choice([0, 1, 1, 3])):
                    a, b = (u, v) if rng.random() < 0.5 else (v, u)
                    records.append((a, b, rng.choice([t, t, max(0, t - rng.randint(1, 9)), t + rng.randint(1, 9)])))
                records.append((u, v, t))
            rng.shuffle(records)
            lines = [f"{u} {v} {t}" for u, v, t in records]
            g = read_edge_stream(lines)
            want = read_edge_stream_brute(lines)
            assert (list(g.join_times), list(g.edges)) == want

    def test_a_stream_of_self_loops_alone_keeps_its_vertices(self):
        g = read_edge_stream(["3 3 5", "4 4 2", "3 3 1"])
        assert (g.join_times, g.edges) == ((1, 2), ())


class TestFixedPoint:
    def test_ingest_serialize_ingest_is_identity(self):
        rng = random.Random(21)
        with tempfile.TemporaryDirectory() as tmp:
            for case in range(25):
                lines = []
                n = rng.randint(2, 10)
                for _ in range(rng.randint(1, 25)):
                    u = rng.randrange(n)
                    v = rng.randrange(n)
                    lines.append(f"{u} {v} {rng.randint(0, 30)}")
                text = "\n".join(lines) + "\n"
                g1 = read_edge_stream(stream(text))
                p1 = os.path.join(tmp, f"a{case}.csv")
                p2 = os.path.join(tmp, f"b{case}.csv")
                write_edge_list(g1, p1)
                g2 = read_edge_list(p1)
                write_edge_list(g2, p2)
                with open(p1, "rb") as fa, open(p2, "rb") as fb:
                    assert fa.read() == fb.read()
                with open(p1 + ".meta.json", "rb") as fa, open(p2 + ".meta.json", "rb") as fb:
                    assert fa.read() == fb.read()

    def test_snapshot_counts_match_replay_oracle(self):
        rng = random.Random(33)
        lines = []
        for _ in range(1000):
            u = rng.randrange(60)
            v = rng.randrange(60)
            if u == v:
                v = (v + 1) % 60
            lines.append((u, v, rng.randint(0, 199)))
        text = "\n".join(f"{u} {v} {t}" for u, v, t in lines) + "\n"
        g = read_edge_stream(stream(text))

        # replay oracle: cumulative distinct ids and deduped pairs per horizon
        for horizon in range(0, 220, 20):
            pairs = {}
            first_seen = {}
            for u, v, t in lines:
                key = (min(u, v), max(u, v))
                pairs[key] = min(pairs.get(key, t), t)
                for x in (u, v):
                    first_seen[x] = min(first_seen.get(x, t), t)
            expected_v = sum(1 for t in first_seen.values() if t <= horizon)
            expected_e = sum(1 for t in pairs.values() if t <= horizon)
            s = g.snapshot_at(horizon)
            assert s.n_vertices == expected_v
            assert s.n_edges == expected_e


@st.composite
def raw_streams(draw):
    """Unsorted records over sparse raw ids, with self-loops and pairs
    repeated at other times (reversed half the time)."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    records = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.integers(0, 9)),
        min_size=1, max_size=15,
    ))
    for u, v, _ in draw(st.lists(st.sampled_from(records), max_size=4)):
        t = draw(st.integers(0, 9))
        records.append((v, u, t) if draw(st.booleans()) else (u, v, t))
    return "".join(f"{u} {v} {t}\n" for u, v, t in draw(st.permutations(records)))


class TestRoundTripProperty:
    @given(raw_streams())
    @settings(max_examples=150, deadline=None)
    def test_ingest_write_read_keeps_every_horizon(self, text):
        g = read_edge_stream(stream(text))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.csv")
            write_edge_list(g, path)
            back = read_edge_list(path)
        assert back.join_times == g.join_times
        for t in range(-1, g.t_end + 2):
            a, b = g.snapshot_at(t), back.snapshot_at(t)
            assert (a.n_vertices, a.n_edges) == (b.n_vertices, b.n_edges)
            assert back.degrees_at(t) == g.degrees_at(t)
            for x, y in zip(g.first_links(t), back.first_links(t)):
                assert np.array_equal(x, y)


def _field(rng, x):
    """``x`` as text int() reads back: plain, signed, zero-padded or with
    digit-group underscores."""
    form = rng.random()
    if x >= 0 and form < 0.1:
        return f"+{x}"
    if x >= 0 and form < 0.15:
        return f"00{x}"
    if form < 0.25:
        return f"{x:_}"
    return str(x)


BAD_LINES = ["1 2", "1,2", "1 2 3 4", "1,2,3,4", "a b c", "1 2 x", "1.5 2 3",
             "1,,3", "1 2 -3", "1,2,-1", f"1 2 -{2**64}", "1 2 3_"]


def random_stream(rng):
    """Records over a few raw ids (negative ones and ones near the int64
    limit among them, and in some streams one past 2**64) and times (in
    some streams past 2**63 and 2**64), each written with commas or
    whitespace, amid blank and comment lines; half the streams carry one
    to three faulty lines."""
    ids = [rng.choice([rng.randint(0, 30), -rng.randint(1, 9), 2**63 - 1 - rng.randint(0, 9)])
           for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.15:
        ids[rng.randrange(len(ids))] = 2**64 + rng.randint(0, 9)
    big = rng.random() < 0.15
    lines = []
    for _ in range(rng.randint(0, 18)):
        u, v = rng.choice(ids), rng.choice(ids)
        t = rng.randint(0, 12) + (rng.choice([2**63, 2**64]) if big and rng.random() < 0.5 else 0)
        f = [_field(rng, x) for x in (u, v, t)]
        style = rng.random()
        if style < 0.4:
            line = ",".join(f)
        elif style < 0.5:
            line = " , ".join(f)
        else:
            line = rng.choice([" ", "\t", "  "]).join(f)
        lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\r"]))
    for _ in range(rng.randint(0, 4)):
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(["", "   ", "# source,target,timestamp", "  # note", "#1 2 3"]))
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(BAD_LINES))
    return "".join(line + "\n" for line in lines)


def outcome(read):
    """What ``read()`` returns or raises, as comparable values."""
    try:
        return read()
    except ValueError as exc:
        return type(exc), str(exc)


class TestIngestOracle:
    def test_graphs_and_errors_match_the_loop_reader(self, tmp_path):
        rng = random.Random(909)
        seen = set()
        for case in range(2500):
            text = random_stream(rng)

            def brute():
                joins, edges = read_edge_stream_brute(text.splitlines(True))
                validate_brute(joins, edges)
                return tuple(joins), tuple(edges)

            def columnar():
                g = read_edge_stream(stream(text))
                return g.join_times, g.edges

            expected = outcome(brute)
            assert outcome(columnar) == expected, text
            kind = expected[0] if isinstance(expected[0], type) else "graph"
            seen.add(kind)
            if kind is EdgeStreamParseError:
                seen.add(expected[1].split(": ")[1])

            # the same lines as a sidecar-backed file, ids kept as written
            explicit = {rng.randint(0, 6): rng.randint(0, 12) for _ in range(rng.randint(0, 2))}
            # the sidecar's self-loop key is ignored, whatever it holds
            meta = {"allow_self_loops": rng.random() < 0.5,
                    "explicit_join_times": {str(x): jt for x, jt in explicit.items()}}
            if rng.random() < 0.5:  # else the sidecar leaves "directed" out
                meta["directed"] = False
            path = tmp_path / f"g{case}.csv"
            path.write_text(text)
            (tmp_path / f"g{case}.csv.meta.json").write_text(json.dumps(meta))

            def list_brute():
                joins, edges = read_edge_list_brute(text.splitlines(True), explicit)
                validate_brute(joins, edges)
                return tuple(joins), tuple(edges)

            def list_columnar():
                g = read_edge_list(str(path))
                return g.join_times, g.edges

            assert outcome(list_columnar) == outcome(list_brute), (text, meta)
        # every outcome occurs: graphs, each parse fault, other refusals
        assert {"graph", EdgeStreamParseError, ValueError} <= seen
        assert {"expected 3 fields", "fields must be integers", "fields must lie in the int64 range",
                "negative timestamp"} <= seen


def _clean_field(rng, x):
    """``x`` as text that both ``int()`` and ``np.loadtxt`` read: plain,
    signed or zero-padded."""
    form = rng.random()
    if x >= 0 and form < 0.1:
        return f"+{x}"
    if x >= 0 and form < 0.2:
        return f"00{x}"
    return str(x)


def single_style_stream(rng):
    """A stream without faults whose records all use one delimiter style
    (commas, `` , `` or whitespace), amid ``#`` headers and blank lines,
    with ids and times anywhere in the int64 range."""
    style = rng.choice([",", " , ", "whitespace"])
    ids = [rng.choice([rng.randint(0, 30), -rng.randint(1, 9), 2**63 - 1 - rng.randint(0, 3),
                       -(2**63) + rng.randint(0, 3)])
           for _ in range(rng.randint(1, 7))]
    lines = []
    for _ in range(rng.randint(1, 18)):
        t = rng.choice([rng.randint(0, 12), 2**63 - 1 - rng.randint(0, 12)])
        f = [_clean_field(rng, x) for x in (rng.choice(ids), rng.choice(ids), t)]
        if style == "whitespace":
            line = rng.choice([" ", "\t", "  "]).join(f)
            lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\r"]))
        else:
            lines.append(rng.choice(["", " "]) + style.join(f) + rng.choice(["", " ", "\r"]))
    extra = ["", "# source,target,timestamp", "#1 2 3", "   ", "  # note", "\t"]
    for _ in range(rng.randint(0, 4)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(extra))
    return "".join(line + "\n" for line in lines), style


@pytest.fixture
def reader_calls(monkeypatch):
    """The calls of the line-by-line reader, which still runs."""
    calls = []
    read = temporal_graph._read_records

    def counted(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(temporal_graph, "_read_records", counted)
    return calls


def refuse(*args):
    raise AssertionError("the line-by-line reader ran")


class TestParserPaths:
    def test_single_style_streams_take_the_bulk_path(self, monkeypatch):
        monkeypatch.setattr(temporal_graph, "_read_records", refuse)
        rng = random.Random(1212)
        seen = set()
        for _ in range(600):
            text, style = single_style_stream(rng)

            def brute():
                joins, edges = read_edge_stream_brute(text.splitlines(True))
                return tuple(joins), tuple(edges)

            def bulk():
                g = read_edge_stream(stream(text))
                return g.join_times, g.edges

            expected = outcome(brute)
            assert outcome(bulk) == expected, text
            seen.add((style, "graph" if isinstance(expected[0], tuple) else expected[0]))
        assert {(style, "graph") for style in (",", " , ", "whitespace")} <= seen

    @pytest.mark.parametrize("text, message", [
        ("0 1 5\n1 2 3 # c\n", "line 2: expected 3 fields: '1 2 3 # c'"),
        ("0 1 5\n1 2 3.0\n", "line 2: fields must be integers: '1 2 3.0'"),
        ("0 1 5\n1 2 -3\n", "line 2: negative timestamp: '1 2 -3'"),
        ("0 1 5 6\n1 2 3 4\n", "line 1: expected 3 fields: '0 1 5 6'"),
        ("0,1,5\n1,2\x1c,3\n", "line 2: fields must be integers: '1,2\\x1c,3'"),
        ("0,1,5\n  \n  # c\n1,2\n", "line 4: expected 3 fields: '1,2'"),
        # a field past int64, as a line's fault among the others
        (f"0 1 5\n1 2 {2**63}\n1 2 x\n", f"line 2: fields must lie in the int64 range: '1 2 {2**63}'"),
        (f"0 1 5\n1 2 x\n1 2 {2**63}\n", "line 2: fields must be integers: '1 2 x'"),
        (f"0,1,5\n{2**64},2,6\n1,2\n", f"line 2: fields must lie in the int64 range: '{2**64},2,6'"),
        (f"0 1 5\n1 2\n{-(2**63) - 1} 2 6\n", "line 2: expected 3 fields: '1 2'"),
        # the range is checked before the sign of the timestamp
        (f"0 1 5\n1 2 -{2**63 + 1}\n", f"line 2: fields must lie in the int64 range: '1 2 -{2**63 + 1}'"),
    ])
    def test_faulty_streams_fall_back_to_the_loops_message(self, reader_calls, text, message):
        with pytest.raises(EdgeStreamParseError) as err:
            read_edge_stream(stream(text))
        assert str(err.value) == message
        assert reader_calls
        with pytest.raises(EdgeStreamParseError) as err:
            read_edge_stream_brute(stream(text))
        assert str(err.value) == message

    @pytest.mark.parametrize("text", [
        "0,1,5\n   \n1,2,6\n",
        "# source,target,timestamp\n0,1,5\n  # indented\n1,2,6\n\t\n",
        "0,1,5\r\n \r\n2,1,3\r\n",
        " 0 , 1 , 5\n\t# note\n1 , 2 , 6 \n\x0b\n",
    ])
    def test_comma_streams_with_indented_blank_or_comment_lines_take_the_bulk_path(
        self, monkeypatch, text
    ):
        # loadtxt reads such a line as one empty field; a second call
        # without the blank and comment lines reads the records
        monkeypatch.setattr(temporal_graph, "_read_records", refuse)
        g = read_edge_stream(stream(text))
        joins, edges = read_edge_stream_brute(stream(text))
        assert (g.join_times, g.edges) == (tuple(joins), tuple(edges))

    @pytest.mark.parametrize("text", [
        "# a comma file with one whitespace line\n0,1,5\n1 2 6\n2,3,7\n",
        "0 1 5\n1 2 1_0\n",
        "0 1 5\n1 2 3\u0968\n",  # int() reads 32, numpy 2390
    ])
    def test_clean_streams_the_bulk_call_refuses_read_line_by_line(self, reader_calls, text):
        g = read_edge_stream(stream(text))
        joins, edges = read_edge_stream_brute(stream(text))
        assert (g.join_times, g.edges) == (tuple(joins), tuple(edges))
        assert reader_calls

    def test_lines_that_are_not_str_are_refused(self):
        with pytest.raises(TypeError):
            read_edge_stream([b"0 1 2\n"])

    def test_comment_only_stream_is_empty_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^empty edge stream$"):
                read_edge_stream(stream("# source,target,timestamp\n\n  # nothing\n"))


def stream_texts():
    """The streams drawn above: per seed the shuffled raw tpa stream of
    :func:`raw_stream_records` (loops, later reversed repeats), with wide
    ids, and with times offset by 1000 and to near 2**63; then random
    streams of :func:`random_stream` that parse, with negative ids and
    ids near the int64 limit among them."""
    texts = []
    for seed in range(3):
        records = raw_stream_records(seed)
        texts += TestWideIdsAndOffsets.copies(seed)
        texts += ["".join(f"{u} {v} {t + offset}\n" for u, v, t in records) for offset in (1000, 2**63 - 1000)]
    rng = random.Random(31)
    while len(texts) < 52:
        text = random_stream(rng)
        try:
            read_edge_stream(stream(text))
        except ValueError:  # a faulty line
            continue
        texts.append(text)
    return texts


def streamed():
    for text in stream_texts():
        yield read_edge_stream(stream(text)), {"time_unit": "", "info": {}}


def normalized():
    for g, _ in streamed():
        g.info["source"], g.time_unit = "raw", "wk"
        got = normalize_times(g)
        assert got.t_min == 0
        assert got.u is g.u and got.v is g.v  # shared, not copied
        assert got is g or got.info is not g.info
        yield got, {"time_unit": "wk", "info": {"source": "raw"}}


TPA_GRID = [  # m, schedule, weights, retry limit
    (3, [20, 40, 80, 40], TimeDiffFn.exp_base(2), 1000),
    (3, [1], TimeDiffFn.exp_base(2), 1000),  # a lone vertex: every edge skipped
    (2, [1, 4, 1, 1, 6], TimeDiffFn.geometric(0.9, 0.5), 1000),  # singleton groups
    (5, [2] * 30, TimeDiffFn.geometric(1, 0), 50),  # saturated groups, exhausted retries
    (4, [3, 5], TimeDiffFn.exp_base(2), 1),  # one draw per edge
]


def tpa_graphs():
    for m, schedule, f, limit in TPA_GRID:
        for seed in range(3):
            g = tpa_generate(TpaParams(m=m, schedule=schedule, f=f, seed=seed, retry_limit=limit))
            info = {"skipped_edges": g.info["skipped_edges"], "model": "tpa"}
            yield g, {"time_unit": "iteration", "info": info}


BASELINE_GRID = {  # model: (n, parameters) settings
    "ba": [(n, {"m": m}) for m, n in ((1, 2), (3, 4), (2, 40), (3, 120))],
    "hk": [(n, {"m": m, "p_triangle": p}) for m, n in ((1, 2), (2, 40), (3, 120)) for p in (0.0, 0.5, 1.0)],
    "ws": [(n, {"k": k, "p": p}) for k, n in ((0, 1), (2, 3), (4, 30)) for p in (0.0, 0.3, 1.0)],
    "nw": [(n, {"k": k, "p": p}) for k, n in ((0, 1), (2, 3), (4, 30)) for p in (0.0, 0.3, 1.0)],
    "ff": [(n, {"p_forward": p}) for n in (1, 2, 60) for p in (0.0, 0.5, 0.9)],
}


def baseline_graphs(model):
    for n, params in BASELINE_GRID[model]:
        for seed in range(3):
            g = baseline_generate(model, n, seed=seed, **params)
            yield g, {"time_unit": "", "info": {"model": model}}


PRODUCERS = {
    "read_edge_stream": streamed,
    "normalize_times": normalized,
    "tpa_generate": tpa_graphs,
    **{model: lambda model=model: baseline_graphs(model) for model in BASELINE_GRID},
}


class TestTrustedProducers:
    """The graphs the library builds without the constructor's checks
    (ingest, normalize_times and the generators) pass those checks, and
    equal the graph the public constructor builds from their columns."""

    @pytest.mark.parametrize("producer", list(PRODUCERS))
    def test_graphs_equal_a_validated_construction(self, producer):
        count = 0
        for g, attrs in PRODUCERS[producer]():
            validate_brute(g.join_times, g.edges)
            want = TemporalGraph(g.join, np.column_stack([g.u, g.v, g.t]), time_unit=g.time_unit, info=g.info)
            for column in ("join", "u", "v", "t"):
                a = getattr(g, column)
                assert (a.ndim, a.dtype, a.flags.writeable) == (1, np.int64, False), column
                assert a.tolist() == getattr(want, column).tolist(), column
            for a, b in zip(g.first_links(), want.first_links()):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
            assert {attr: getattr(g, attr) for attr in attrs} == attrs
            count += 1
        assert count >= 9
