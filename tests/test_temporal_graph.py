import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from temponet import TemporalGraph, read_edge_list, write_edge_list, tpa_generate, TpaParams, TimeDiffFn
from temponet.metrics import _undirected_simple_csr

from oracles import degree_brute, first_links_brute, undirected_simple


def star_graph():
    # hub 0 with 5 leaves, all at time 1
    joins = [1, 1, 1, 1, 1, 1]
    edges = [(0, i, 1) for i in range(1, 6)]
    return TemporalGraph(joins, edges)


class TestConstruction:
    def test_rejects_edge_before_join(self):
        with pytest.raises(ValueError, match="before an endpoint joined"):
            TemporalGraph([2, 3], [(0, 1, 2)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            TemporalGraph([0], [(0, 1, 0)])

    def test_rejects_duplicate_in_simple_mode(self):
        with pytest.raises(ValueError, match="duplicate"):
            TemporalGraph([0, 0], [(0, 1, 0), (1, 0, 1)])
        # directed graphs treat opposite arcs as distinct
        g = TemporalGraph([0, 0], [(0, 1, 0), (1, 0, 1)], directed=True)
        assert g.n_edges == 2

    def test_rejects_self_loop_unless_allowed(self):
        with pytest.raises(ValueError, match="self-loop"):
            TemporalGraph([0], [(0, 0, 0)])
        g = TemporalGraph([0], [(0, 0, 0)], allow_self_loops=True)
        assert g.n_edges == 1

    def test_rejects_ids_out_of_join_order(self):
        with pytest.raises(ValueError, match="join order"):
            TemporalGraph([3, 1], [])

    def test_first_fault_in_input_order_wins(self):
        # joins are checked position by position, edges one at a time
        with pytest.raises(ValueError, match="join order"):
            TemporalGraph([5, 3, -1], [])
        with pytest.raises(ValueError, match="duplicate"):
            TemporalGraph([0, 0], [(0, 1, 0), (0, 1, 0), (0, 5, 0)])


class TestSnapshots:
    def test_empty_graph(self):
        g = TemporalGraph([], [])
        s = g.snapshot_at(0)
        assert (s.n_vertices, s.n_edges) == (0, 0)

    def test_direct_filter(self):
        g = TemporalGraph([1, 2, 3], [(0, 1, 2), (1, 2, 3)])
        s = g.snapshot_at(2)
        assert (s.n_vertices, s.n_edges) == (2, 1)

    def test_worked_example_first_iteration(self):
        params = TpaParams(m=3, schedule=(100, 200, 400), f=TimeDiffFn.exp_base(2), seed=11)
        g = tpa_generate(params)
        s = g.snapshot_at(0)
        assert s.n_vertices == 100
        assert s.n_edges == 300

    def test_horizon_beyond_t_max_is_full_graph(self):
        g = TemporalGraph([0, 1], [(0, 1, 1)])
        s = g.snapshot_at(99)
        assert (s.n_vertices, s.n_edges) == (2, 1)

    def test_series_even_division(self):
        g = TemporalGraph([0, 12], [])
        assert [s.horizon for s in g.snapshot_series(4)] == [4, 8, 12]
        assert g.horizons(4) == [4, 8, 12]

    def test_series_final_partial_interval(self):
        g = TemporalGraph([0, 10], [])
        assert [s.horizon for s in g.snapshot_series(4)] == [4, 8, 10]
        assert g.horizons(4) == [4, 8, 10]

    def test_series_single_short_interval(self):
        g = TemporalGraph([0, 3], [])
        assert [s.horizon for s in g.snapshot_series(4)] == [3]
        assert g.horizons(4) == [3]

    def test_series_rejects_zero_interval(self):
        g = TemporalGraph([0, 3], [])
        with pytest.raises(ValueError):
            g.snapshot_series(0)
        with pytest.raises(ValueError):
            g.horizons(0)

    def test_series_covers_late_edges(self):
        # edge created after the last vertex joined still lands in the series
        g = TemporalGraph([0, 2], [(0, 1, 9)])
        assert [s.horizon for s in g.snapshot_series(4)] == [4, 8, 9]
        assert g.horizons(4) == [4, 8, 9]


class TestDegree:
    def test_star_hub(self):
        assert star_graph().degree_at(0, 1) == 5

    def test_directed_pair_counts_one_neighbour(self):
        g = TemporalGraph([0, 0], [(0, 1, 0), (1, 0, 1)], directed=True)
        assert g.degree_at(0, 1) == 1
        assert g.degree_at(1, 1) == 1

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            star_graph().degree_at(42, 1)

    def test_self_loop_contributes_one(self):
        g = TemporalGraph([0], [(0, 0, 0)], allow_self_loops=True)
        assert g.degree_at(0, 0) == 1

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            joins = sorted(rng.randint(0, 4) for _ in range(n))
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        edges.append((u, v, max(joins[u], joins[v]) + rng.randint(0, 3)))
            g = TemporalGraph(joins, edges)
            for v in range(n):
                for t in range(0, 9):
                    assert g.degree_at(v, t) == degree_brute(edges, v, t)

    def test_degree_sum_is_twice_edge_count(self):
        params = TpaParams(m=2, schedule=(30, 30), f=TimeDiffFn.exp_base(2), seed=3)
        g = tpa_generate(params)
        assert sum(g.degrees_at(g.t_max)) == 2 * g.n_edges


@st.composite
def temporal_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    joins = sorted(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    directed = draw(st.booleans())
    loops = draw(st.booleans())
    # a vertex with a lag, or with no edge, joins before its first record
    # shows it, so the writer must keep its join time in the sidecar
    lags = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    edges = []
    for u in range(n):
        for v in range(n) if directed else range(u, n):
            if u == v and not loops:
                continue
            if draw(st.booleans()):
                offset = draw(st.integers(0, 4))
                edges.append((u, v, max(joins[u] + lags[u], joins[v] + lags[v]) + offset))
    # a multigraph repeats some pairs later, undirected ones reversed
    simple = draw(st.booleans()) or not edges
    if not simple:
        for u, v, t in draw(st.lists(st.sampled_from(edges), max_size=3)):
            edges.append((u, v, t + 1) if directed else (v, u, t + 1))
    return TemporalGraph(joins, edges, directed=directed, allow_self_loops=loops, simple=simple)


class TestProperties:
    @given(temporal_graphs(), st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_snapshots_nested_and_degrees_monotone(self, g, t1, t2):
        t1, t2 = min(t1, t2), max(t1, t2)
        s1, s2 = g.snapshot_at(t1), g.snapshot_at(t2)
        assert s1.n_vertices <= s2.n_vertices
        assert s1.n_edges <= s2.n_edges
        assert set(s1.edges()) <= set(s2.edges())
        for v in range(s1.n_vertices):
            assert g.degree_at(v, t1) <= g.degree_at(v, t2)

    @given(temporal_graphs())
    @settings(max_examples=100, deadline=None)
    def test_serialization_round_trip_preserves_snapshots(self, g):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "graph.csv")
            write_edge_list(g, path)
            back = read_edge_list(path)
        assert (back.directed, back.allow_self_loops) == (g.directed, g.allow_self_loops)
        assert back.join_times == g.join_times
        assert back.edges == g.edges
        for t in range(0, 12):
            a, b = g.snapshot_at(t), back.snapshot_at(t)
            assert (a.n_vertices, a.n_edges) == (b.n_vertices, b.n_edges)
            assert list(a.edges()) == list(b.edges())


class TestFirstLinks:
    @given(temporal_graphs())
    @settings(max_examples=200, deadline=None)
    def test_every_horizon_matches_brute_force(self, g):
        # directed graphs with both arcs, self-loops, repeated pairs and
        # isolated vertices all come from the strategy
        edges = list(g.edges)
        times, v, w = g.first_links()
        assert (times.dtype, v.dtype, w.dtype) == (np.int64, np.int32, np.int32)
        assert (np.diff(times) >= 0).all()
        for t in range(-1, g.t_end + 2):
            times, v, w = g.first_links(t)
            assert sorted(zip(times.tolist(), v.tolist(), w.tolist())) == first_links_brute(edges, t)
            degrees = [degree_brute(edges, x, t) for x in range(g.n_vertices)]
            assert g.degrees_at(t) == degrees
            assert [g.degree_at(x, t) for x in range(g.n_vertices)] == degrees
            s = g.snapshot_at(t)
            adj = _undirected_simple_csr(s)
            pairs = undirected_simple([e for e in edges if e[2] <= t])
            rows, cols = adj.nonzero()
            assert adj.shape == (s.n_vertices, s.n_vertices)
            assert set(zip(rows.tolist(), cols.tolist())) == pairs | {(b, a) for a, b in pairs}
