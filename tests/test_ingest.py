import io
import json
import os
import random
import tempfile

import pytest

from temponet import (
    EdgeStreamParseError,
    IngestConfig,
    StreamRejected,
    TemporalGraph,
    normalize_times,
    read_edge_list,
    read_edge_stream,
    write_edge_list,
)


def stream(text):
    return io.StringIO(text)


class TestReadEdgeStream:
    def test_three_line_example_with_dedupe(self):
        g = read_edge_stream(stream("0 1 5\n1 2 6\n0 1 9\n"))
        assert g.n_vertices == 3
        assert g.n_edges == 2
        assert g.edges[0] == (0, 1, 5)
        assert list(g.join_times) == [5, 5, 6]

    def test_self_loop_kept_when_allowed(self):
        cfg = IngestConfig(allow_self_loops=True)
        g = read_edge_stream(stream("3 3 7\n"), cfg)
        assert g.n_vertices == 1
        assert g.n_edges == 1
        assert g.edges[0][0] == g.edges[0][1]

    def test_self_loop_dropped_but_vertex_kept(self):
        g = read_edge_stream(stream("0 1 5\n3 3 7\n"))
        assert g.n_vertices == 3
        assert g.n_edges == 1

    def test_duplicate_keeps_earliest_stamp_at_first_position(self):
        g = read_edge_stream(stream("0 1 9\n1 2 6\n1 0 5\n"))
        # undirected collapse: (0,1) first seen at position 0, stamped 5
        assert g.edges[0][2] == 5
        assert g.n_edges == 2

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

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            read_edge_stream(stream("# nothing\n"))

    def test_min_edges_rejection(self):
        cfg = IngestConfig(min_edges=5)
        with pytest.raises(StreamRejected):
            read_edge_stream(stream("0 1 5\n"), cfg)

    def test_max_degree_filter_drops_hub(self):
        lines = "\n".join(f"0 {i} {i}" for i in range(1, 6)) + "\n5 6 9\n"
        cfg = IngestConfig(max_degree=3)
        g = read_edge_stream(stream(lines), cfg)
        # vertex 0 (degree 5) is dropped along with its edges
        assert g.n_vertices == 6
        assert g.n_edges == 1

    def test_sparse_ids_are_remapped_in_join_order(self):
        g = read_edge_stream(stream("17 99 10\n5 17 4\n"))
        # joins: 5 -> 4, 17 -> 4, 99 -> 10; dense ids follow join order,
        # and 17 precedes 5 because it appears first
        assert list(g.join_times) == [4, 4, 10]
        assert g.edges == ((0, 2, 10), (1, 0, 4))

    def test_directed_keeps_opposite_arcs(self):
        cfg = IngestConfig(directed=True)
        g = read_edge_stream(stream("0 1 5\n1 0 6\n"), cfg)
        assert g.n_edges == 2

    def test_unsorted_timestamps(self):
        g = read_edge_stream(stream("1 2 9\n0 1 2\n"))
        assert list(g.join_times) == [2, 2, 9]

    def test_time_unit_label_carried_through(self):
        cfg = IngestConfig(time_column_unit="weeks")
        g = read_edge_stream(stream("0 1 5\n"), cfg)
        assert g.time_unit == "weeks"
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

    def test_sidecar_without_directed_is_rejected(self, tmp_path):
        meta = {"allow_self_loops": False}
        with pytest.raises(ValueError, match="'directed'"):
            read_edge_list(self.write(tmp_path, "0,1,1\n", meta))


class TestNormalizeTimes:
    def test_shift(self):
        g = TemporalGraph([100, 104, 112], [(0, 1, 104), (1, 2, 112)])
        n = normalize_times(g)
        assert list(n.join_times) == [0, 4, 12]
        assert n.edges == ((0, 1, 4), (1, 2, 12))

    def test_idempotent(self):
        g = TemporalGraph([0, 4, 12], [(0, 1, 4)])
        assert normalize_times(g) is g

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
                for dedupe in (True, False):
                    cfg = IngestConfig(allow_self_loops=True, dedupe=dedupe)
                    try:
                        g1 = read_edge_stream(stream(text), cfg)
                    except ValueError:
                        continue
                    p1 = os.path.join(tmp, f"a{case}{dedupe}.csv")
                    p2 = os.path.join(tmp, f"b{case}{dedupe}.csv")
                    write_edge_list(g1, p1)
                    g2 = read_edge_list(p1)
                    write_edge_list(g2, p2)
                    with open(p1, "rb") as fa, open(p2, "rb") as fb:
                        assert fa.read() == fb.read()
                    with open(p1 + ".meta.json", "rb") as fa, open(p2 + ".meta.json", "rb") as fb:
                        meta = fa.read()
                        assert meta == fb.read()
                    # only a graph with a repeated pair is marked, so the
                    # sidecars of simple graphs stay as they were
                    pairs = {(min(u, v), max(u, v)) for u, v, _ in g1.edges}
                    assert (b'"simple":false' in meta) == (len(pairs) < g1.n_edges)

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
