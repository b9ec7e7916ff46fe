import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from temponet import TemporalGraph, read_edge_list, write_edge_list, tpa_generate, TpaParams, TimeDiffFn
from temponet import temporal_graph
from temponet.ingest import normalize_times, read_edge_stream
from temponet.metrics import _simple_pairs
from temponet.temporal_graph import _replacing

from oracles import (
    degree_brute,
    degrees_brute,
    distinct_pairs,
    edge_list_text_brute,
    first_links_brute,
    first_links_ordered_brute,
    undirected_simple,
    validate_brute,
)


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

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            TemporalGraph([0, 0], [(0, 1, 0), (1, 0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loops are not allowed in this graph"):
            TemporalGraph([0], [(0, 0, 0)])

    def test_rejects_ids_out_of_join_order(self):
        with pytest.raises(ValueError, match="join order"):
            TemporalGraph([3, 1], [])

    @pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1, 0, 0)], [0, 1, 0]])
    def test_rejects_edges_that_are_not_triples(self, edges):
        with pytest.raises(ValueError, match="an edge is a .source, target, created. triple"):
            TemporalGraph([0, 0], edges)

    @pytest.mark.parametrize("joins, edges, message", [
        ([0.5, 1.7], [(0, 1, 2.9)], "join times must be integers"),
        ([0, 0], [(0, 1, 2.9)], "edge fields must be integers"),
        ([0, 0], [(0, 1, 2.0)], "edge fields must be integers"),
        (np.array([0.0, 1.0]), [], "join times must be integers"),
        ([0, 0], np.array([[0.0, 1.0, 2.0]]), "edge fields must be integers"),
        (["0", "1"], [], "join times must be integers"),
        ([0, 0], [(0, 1, None)], "edge fields must be integers"),
        (np.array([True, True]), [], "join times must be integers"),
        ([0, 0], [(0, 1, 0.5), (0, 1, 2**64)], "edge fields must be integers"),
        ([0, 2**63], [], "join times must lie in the int64 range"),
        ([-(2**63) - 1], [], "join times must lie in the int64 range"),
        ([0, 0], [(0, 1, 2**63)], "edge fields must lie in the int64 range"),
        ([0, 0], [(0, 1, 2**64)], "edge fields must lie in the int64 range"),
        ([0, 0], [(2**64, 1, 5)], "edge fields must lie in the int64 range"),
        ([0, 0], np.array([[0, 1, 2**63]], dtype=np.uint64), "edge fields must lie in the int64 range"),
        ([-1, 2**63], [(0, 1, 2**64)], "join times must lie in the int64 range"),
    ], ids=["float_list", "float_edge", "integral_float", "float_array", "float_edge_array",
            "strings", "none", "bool_array", "float_before_range", "join_past", "join_below",
            "edge_time_past", "edge_time_2_64", "edge_id_2_64", "uint64_array", "join_first"])
    def test_rejects_values_that_are_not_int64_integers(self, joins, edges, message):
        # refused before every other check: no float is truncated, no
        # string parsed and no uint64 value wrapped
        with pytest.raises(ValueError) as err:
            TemporalGraph(joins, edges)
        assert str(err.value) == message

    @pytest.mark.parametrize("joins, edges, message", [
        ([0, 0, 0], [(0, 1, 2), (1, 2)], "an edge is a (source, target, created) triple"),
        ([0, 0, 0], [(0, 1, 2), 5], "an edge is a (source, target, created) triple"),
        ([0, 0, 0], [(0, 1, 0.5), (1, 2, 3, 4)], "an edge is a (source, target, created) triple"),
        ([0, (1, 2)], [], "join times must be integers"),
    ], ids=["short_edge", "bare_int", "float_and_long_edge", "join_pair"])
    def test_rejects_ragged_rows(self, joins, edges, message):
        # rows of unequal lengths, of which numpy builds no array
        with pytest.raises(ValueError) as err:
            TemporalGraph(joins, edges)
        assert str(err.value) == message

    def test_empty_arrays_of_any_kind_construct(self):
        g = TemporalGraph(np.array([]), np.array([]))
        assert (g.n_vertices, g.n_edges, g.join.dtype, g.t.dtype) == (0, 0, np.int64, np.int64)
        g = TemporalGraph([0], np.zeros((0, 3)))
        assert (g.join_times, g.edges) == ((0,), ())

    def test_first_fault_in_input_order_wins(self):
        # joins are checked position by position, edges one at a time
        with pytest.raises(ValueError, match="join order"):
            TemporalGraph([5, 3, -1], [])
        with pytest.raises(ValueError, match="duplicate"):
            TemporalGraph([0, 0], [(0, 1, 0), (0, 1, 0), (0, 5, 0)])


def random_constructor_input(rng):
    """Join times and edges that are valid or break the constructor's
    rules, often more than once: negative and out-of-order joins,
    unknown and negative ids, edges before a join, loops, and pairs
    repeated in either orientation."""
    n = rng.randint(0, 6)
    joins = sorted(rng.randint(0, 4) for _ in range(n))
    if n and rng.random() < 0.15:
        joins[rng.randrange(n)] = rng.choice([-1, -3, 2**64])
    if n > 1 and rng.random() < 0.15:
        i = rng.randrange(n - 1)
        joins[i], joins[i + 1] = joins[i + 1], joins[i]
    edges = []
    for _ in range(rng.randint(0, 8)):
        if edges and rng.random() < 0.2:
            u, v, t = rng.choice(edges)  # a repeat, maybe reversed
            edges.append((v, u, t + 1) if rng.random() < 0.5 else (u, v, t))
            continue
        bad_id = rng.random() < 0.08
        u = rng.choice([-1, n, n + 2, 2**64]) if bad_id else rng.randrange(max(n, 1))
        # a loop by choice only: else a vertex other than u, where there is one
        v = u if rng.random() < 0.15 else rng.choice([x for x in range(n) if x != u] or [0])
        late = max(joins[x] for x in (u, v) if 0 <= x < n) if 0 <= u < n and 0 <= v < n else 0
        t = late + rng.randint(-1 if rng.random() < 0.25 else 0, 3)
        edges.append((u, v, t))
    return joins, edges


def raised(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


class TestValidationOracle:
    def test_messages_match_the_edge_by_edge_checks(self):
        rng = random.Random(2024)
        messages = []
        for _ in range(5000):
            joins, edges = random_constructor_input(rng)
            expected = raised(validate_brute, joins, edges)
            assert raised(TemporalGraph, joins, edges) == expected, (joins, edges)
            messages.append(expected)
        # every rule fired, and plenty of inputs passed
        for rule in ("int64 range", "non-negative", "join order", "unknown vertex", "before an endpoint",
                     "self-loops", "duplicate"):
            assert any(m and rule in m for m in messages), rule
        assert messages.count(None) > 800


class TestInt64Boundary:
    """Times up to the int64 limit build, snapshot, normalize and index;
    queries may pass the limit."""

    def test_edge_time_at_the_limit(self):
        big = 2**63 - 1
        g = TemporalGraph([0, 0], [(0, 1, big)])
        assert g.edges == ((0, 1, big),) and g.t.dtype == np.int64
        assert g.t_end == big
        assert TemporalGraph([0, 0], np.array([[0, 1, big]], dtype=np.uint64)).edges == g.edges
        assert [g.snapshot_at(t).n_edges for t in (big - 1, big, big + 1)] == [0, 1, 1]
        late = TemporalGraph([5, big], [(0, 1, big)])
        assert [late.snapshot_at(t).n_vertices for t in (big - 1, big)] == [1, 2]
        n = normalize_times(late)
        assert (n.join_times, n.edges, n.t_end) == ((0, big - 5), ((0, 1, big - 5),), big - 5)
        assert g.first_links()[0].tolist() == [big, big]

    def test_query_times_past_int64(self):
        # the int64 columns are compared with ints outside their range
        g = TemporalGraph([0, 2, 5], [(0, 1, 3), (1, 2, 9), (0, 2, 5)])
        assert g.t_end == 9 and type(g.t_end) is int
        snapshots = [g.snapshot_at(t) for t in (-2**70, 2**63, 2**70)]
        assert [(s.n_vertices, s.n_edges) for s in snapshots] == [(0, 0), (3, 3), (3, 3)]
        assert g.horizons(2**63) == [9]
        assert g.horizons(2**70) == [9]
        with pytest.raises(ValueError, match="interval must be positive"):
            g.horizons(-2**70)

    def test_offset_stream_normalizes_to_the_plain_one(self):
        graphs = []
        for offset in (2**63 - 30, 0):
            lines = [f"{i} {i + 1} {offset + i}" for i in range(30)]
            graphs.append(normalize_times(read_edge_stream(lines)))
        huge, plain = graphs
        assert (huge.join_times, huge.edges) == (plain.join_times, plain.edges)
        assert huge.join.dtype == huge.t.dtype == np.int64
        for a, b in zip(huge.first_links(), plain.first_links()):
            assert a.tolist() == b.tolist()


def packing_edge(e, above):
    """``e`` int64 values from -5 whose span ``max - min + 1`` puts
    ``span * e`` just below ``2**63`` (the largest span that packs) or
    just above it."""
    span = (2**63 - 1) // e + above
    values = np.full(e, -5 + span // 2, dtype=np.int64)
    values[::3] = -5
    values[1::3] = -5 + span - 1
    return values


SORT_CASES = {
    "empty": np.array([], dtype=np.int64),
    "one": np.array([7]),
    "all_equal": np.array([4] * 9),
    "negative": np.array([-3, 5, -3, -9, 0, 5, -9, -3]),
    **{f"bound_{e}_{side}": packing_edge(e, above)
       for e in (2, 3, 7, 1000) for side, above in (("below", 0), ("above", 1))},
    "int64_extremes": np.array([2**63 - 1, -(2**63), 0, 2**63 - 1, -(2**63), -1]),
    "int64_max_only": np.array([2**63 - 1] * 4),
    "int64_min_only": np.array([-(2**63)] * 3 + [-(2**63) + 1]),
    # _distinct counts where max - min + 1 <= len, and sorts one value wider
    "span_equals_count": np.array([5, 0, 3, 5, 2, 1]),
    "span_one_wider": np.array([6, 0, 3, 6, 2, 1]),
    "span_under_count_negative": np.array([-4, -1, -4, 0, -2, -1, -4]),
    "span_near_int64_max": np.array([2**63 - 1, 2**63 - 3, 2**63 - 1]),
    "span_near_int64_min": np.array([-(2**63) + 2, -(2**63), -(2**63) + 2, -(2**63)]),
    # _stable_order takes its radix route where max - min < 2**16
    "span_2_16_minus_1": np.array([-5, 2**16 - 6, 7, -5, 2**16 - 6, 0]),
    "span_2_16": np.array([-5, 2**16 - 5, 7, -5, 2**16 - 5, 0]),
    "span_2_16_minus_1_near_2_62": np.array([2**62 + 2**16 - 1, 2**62, 2**62 + 3, 2**62]),
}


class TestSortHelpers:
    """``_stable_order`` is numpy's stable argsort and ``_distinct`` its
    ``unique`` with first positions and inverse, on every route."""

    @pytest.mark.parametrize("name", sorted(SORT_CASES))
    def test_stable_order_is_the_stable_argsort(self, name):
        values = SORT_CASES[name]
        order = temporal_graph._stable_order(values)
        assert order.dtype == np.int64
        assert order.tolist() == np.argsort(values, kind="stable").tolist()

    @pytest.mark.parametrize("name", sorted(SORT_CASES))
    def test_distinct_is_unique_with_index_and_inverse(self, name):
        values = SORT_CASES[name]
        got = temporal_graph._distinct(values)
        expected = np.unique(values, return_index=True, return_inverse=True)
        assert got[0].dtype == expected[0].dtype
        for a, b in zip(got, expected):
            assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("e", [2, 3, 7, 1000])
    def test_the_packed_route_ends_at_the_int64_bound(self, monkeypatch, e):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        temporal_graph._stable_order(packing_edge(e, above=0))
        assert not calls  # one plain sort of the packed key
        temporal_graph._stable_order(packing_edge(e, above=1))
        assert calls  # the default argsort, then the run key

    def test_distinct_counts_narrow_values_and_sorts_wider_ones(self, monkeypatch):
        calls = []
        stable_order = temporal_graph._stable_order
        monkeypatch.setattr(temporal_graph, "_stable_order", lambda v: calls.append(1) or stable_order(v))
        for name, sorts in (("span_equals_count", False), ("span_under_count_negative", False),
                            ("span_near_int64_max", False), ("span_near_int64_min", False),
                            ("span_one_wider", True)):
            calls.clear()
            temporal_graph._distinct(SORT_CASES[name])
            assert bool(calls) == sorts, name

    def test_random_narrow_values_are_counted_right(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            e = int(rng.integers(1, 80))
            span = int(rng.integers(1, e + 1))
            low = int(rng.choice([0, -40, 10**12, 2**63 - span, -(2**63)]))
            values = low + rng.integers(0, span, e)
            assert int(values.max()) - int(values.min()) + 1 <= e
            got = temporal_graph._distinct(values)
            expected = np.unique(values, return_index=True, return_inverse=True)
            assert got[0].dtype == expected[0].dtype
            for a, b in zip(got, expected):
                assert a.tolist() == b.tolist()

    @staticmethod
    def route_spy(monkeypatch):
        """Patch ``np.argsort`` to log its argument's dtype. Returns
        ``route(values)``, which gives ``_stable_order(values)`` and the
        route it took: ``radix`` (an argsort of uint16 offsets), ``run``
        (the default argsort of the int64 values) or ``packed`` (no
        argsort); and the unpatched argsort."""
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, *r, **k: calls.append(a.dtype.name) or argsort(a, *r, **k))

        def route(values):
            calls.clear()
            order = temporal_graph._stable_order(values)
            return order, {(): "packed", ("uint16",): "radix", ("int64",): "run"}[tuple(calls)]
        return route, argsort

    @pytest.mark.parametrize("name, expected", [
        ("span_2_16_minus_1", "radix"), ("span_2_16", "packed"), ("span_2_16_minus_1_near_2_62", "radix"),
        ("negative", "radix"), ("one", "radix"), ("all_equal", "radix"), ("empty", "run"),
        ("bound_7_below", "packed"), ("bound_7_above", "run"), ("int64_extremes", "run"),
    ])
    def test_stable_order_takes_the_first_route_that_fits(self, monkeypatch, name, expected):
        values = SORT_CASES[name]
        route, argsort = self.route_spy(monkeypatch)
        order, taken = route(values)
        assert taken == expected
        assert order.dtype == np.int64
        assert order.tolist() == argsort(values, kind="stable").tolist()

    def test_random_values_on_every_route(self, monkeypatch):
        route, argsort = self.route_spy(monkeypatch)
        rng = np.random.default_rng(29)
        taken = []
        for _ in range(400):
            span = int(rng.choice([1, 2**16 - 1, 2**16, 2**40, 2**62]))
            low = int(rng.choice([-(2**16), 0, 10**15]))
            values = rng.integers(low, low + span, int(rng.integers(0, 200)), endpoint=True)
            order, name = route(values)
            taken.append(name)
            assert order.tolist() == argsort(values, kind="stable").tolist()
        assert min(taken.count(name) for name in ("radix", "packed", "run")) > 20

    def test_random_values_on_both_routes(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            scale = int(rng.choice([1, 10**15, 2**60]))
            values = rng.integers(-4, 5, int(rng.integers(0, 60))) * scale
            assert temporal_graph._stable_order(values).tolist() == np.argsort(values, kind="stable").tolist()
            got = temporal_graph._distinct(values)
            for a, b in zip(got, np.unique(values, return_index=True, return_inverse=True)):
                assert a.tolist() == b.tolist()

    def test_first_links_on_times_past_the_packing_bound(self):
        # a span of 2**62 or more over two or more edges takes the run route
        rng = random.Random(17)
        stamps = [0, 1, 2**62, 2**62 + 1, 2**63 - 1]
        for _ in range(200):
            n = rng.randint(1, 12)
            edges = [(rng.randrange(n), rng.randrange(n), rng.choice(stamps))
                     for _ in range(rng.randint(2, 60))]
            edges = distinct_pairs(edges)
            g = TemporalGraph([0] * n, edges)
            times, v, w = g.first_links()
            assert (times.tolist(), v.tolist(), w.tolist()) == first_links_ordered_brute(edges)


class TestSnapshots:
    def test_empty_graph(self):
        g = TemporalGraph([], [])
        s = g.snapshot_at(0)
        assert (s.n_vertices, s.n_edges) == (0, 0)
        assert g.horizons(1) == []

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

    def test_series_longer_than_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(temporal_graph, "_MAX_HORIZONS", 3)
        assert TemporalGraph([5, 7], [(0, 1, 11)]).horizons(2) == [7, 9, 11]
        with pytest.raises(ValueError, match="interval 2 gives 4 horizons"):
            TemporalGraph([5, 7], [(0, 1, 12)]).horizons(2)
        with pytest.raises(ValueError, match="interval 1 gives 4611686018427387904 horizons"):
            TemporalGraph([0, 1], [(0, 1, 2**62)]).horizons(1)


class TestDegree:
    def test_star_hub(self):
        assert star_graph().degree_at(0, 1) == 5

    def test_either_orientation_counts_for_both_endpoints(self):
        g = TemporalGraph([0, 0, 0], [(1, 0, 0), (0, 2, 1)])
        assert [g.degree_at(v, 0) for v in range(3)] == [1, 1, 0]
        assert [g.degree_at(v, 1) for v in range(3)] == [2, 1, 1]

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            star_graph().degree_at(42, 1)

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
    # a vertex with a lag, or with no edge, joins before its first record
    # shows it, so the writer must keep its join time in the sidecar
    lags = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                offset = draw(st.integers(0, 4))
                t = max(joins[u] + lags[u], joins[v] + lags[v]) + offset
                edges.append((v, u, t) if draw(st.booleans()) else (u, v, t))  # either orientation
    return TemporalGraph(joins, edges)


class TestProperties:
    @given(temporal_graphs(), st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_snapshots_nested_and_degrees_monotone(self, g, t1, t2):
        t1, t2 = min(t1, t2), max(t1, t2)
        s1, s2 = g.snapshot_at(t1), g.snapshot_at(t2)
        assert s1.n_vertices <= s2.n_vertices
        assert s1.n_edges <= s2.n_edges
        assert (s1.n_edges, s2.n_edges) == tuple(sum(1 for e in g.edges if e[2] <= t) for t in (t1, t2))
        for v in range(s1.n_vertices):
            assert g.degree_at(v, t1) <= g.degree_at(v, t2)

    @given(temporal_graphs())
    @settings(max_examples=100, deadline=None)
    def test_serialization_round_trip_preserves_snapshots(self, g):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "graph.csv")
            write_edge_list(g, path)
            back = read_edge_list(path)
        assert back.join_times == g.join_times
        assert back.edges == g.edges
        for t in range(0, 12):
            a, b = g.snapshot_at(t), back.snapshot_at(t)
            assert (a.n_vertices, a.n_edges) == (b.n_vertices, b.n_edges)

    @given(temporal_graphs(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_written_files_match_oracle(self, g, from_array):
        if from_array:
            g = TemporalGraph(g.join_times, np.array(g.edges, dtype=np.int64).reshape(-1, 3))
        assert_writes_oracle_text(g)

    @pytest.mark.parametrize("g", [
        TemporalGraph([], []),
        TemporalGraph([0, 3, 3], []),
        TemporalGraph([0, 1, 2], np.array([[0, 1, 4], [2, 1, 2], [2, 0, 5]])),
        TemporalGraph([0, 2**63 - 4, 2**63 - 3], [(0, 1, 2**63 - 4), (1, 2, 2**63 - 3), (2, 0, 2**63 - 1)],
                      time_unit="week"),
    ], ids=["empty", "isolated", "array", "int64_max"])
    def test_written_files_match_oracle_on_edge_cases(self, g):
        assert_writes_oracle_text(g)


def assert_writes_oracle_text(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.csv")
        write_edge_list(g, path)
        with open(path, newline="") as fh, open(path + ".meta.json") as meta:
            written = fh.read(), meta.read()
    assert written == edge_list_text_brute(
        list(g.join_times), list(g.edges), g.time_unit
    )


class TestFirstLinks:
    @given(temporal_graphs())
    @settings(max_examples=200, deadline=None)
    def test_every_horizon_matches_brute_force(self, g):
        # edges of either orientation and isolated vertices all come
        # from the strategy
        edges = list(g.edges)
        times, v, w = g.first_links()
        assert (times.dtype, v.dtype, w.dtype) == (np.int64, np.int32, np.int32)
        assert (np.diff(times) >= 0).all()
        for t in range(-1, g.t_end + 2):
            times, v, w = g.first_links(t)
            assert sorted(zip(times.tolist(), v.tolist(), w.tolist())) == first_links_brute(edges, t)
            degrees = [degree_brute(edges, x, t) for x in range(g.n_vertices)]
            assert g.degrees_at(t) == degrees == degrees_brute(g.n_vertices, edges, t)
            assert [g.degree_at(x, t) for x in range(g.n_vertices)] == degrees
            s = g.snapshot_at(t)
            v, w = _simple_pairs(s)
            pairs = undirected_simple([e for e in edges if e[2] <= t])
            assert (v.dtype, w.dtype) == (np.int64, np.int64)
            assert len(v) == len(w) == 2 * len(pairs)
            assert set(zip(v.tolist(), w.tolist())) == pairs | {(b, a) for a, b in pairs}


    def test_order_matches_a_stable_sort_on_tied_times(self):
        # few distinct times, so most edges tie; a third of the inputs
        # come time-sorted and take the path with no sort
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 30)
            edges = [(rng.randrange(n), rng.randrange(n), rng.randrange(5))
                     for _ in range(rng.randint(0, 400))]
            if rng.random() < 1 / 3:
                edges.sort(key=lambda e: e[2])
            edges = distinct_pairs(edges)
            g = TemporalGraph([0] * n, edges)
            times, v, w = g.first_links()
            assert (times.tolist(), v.tolist(), w.tolist()) == first_links_ordered_brute(edges)


    def test_events_match_the_oracle(self):
        # unsorted times over a narrow and a wide span (the radix and the
        # packed sort); each unordered pair gives exactly two events
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(1, 25)
            span = rng.choice([3, 2**16 + 5, 2**40])
            edges = [(rng.randrange(n), rng.randrange(n), rng.randrange(span))
                     for _ in range(rng.randint(0, 120))]
            edges = distinct_pairs(edges)
            g = TemporalGraph([0] * n, edges)
            times, v, w = g.first_links()
            assert (times.dtype, v.dtype, w.dtype) == (np.int64, np.int32, np.int32)
            assert v.flags.c_contiguous and w.flags.c_contiguous
            assert len(times) == 2 * len(undirected_simple(edges))
            assert (times.tolist(), v.tolist(), w.tolist()) == first_links_ordered_brute(edges)
            assert sorted(zip(times.tolist(), v.tolist(), w.tolist())) == first_links_brute(edges, span)
            end = max(e[2] for e in edges) // 2 if edges else 0
            assert sorted(zip(*(column.tolist() for column in g.first_links(end)))) == first_links_brute(edges, end)

    @given(temporal_graphs())
    @settings(max_examples=100, deadline=None)
    def test_reversing_every_edge_keeps_the_events(self, g):
        # a pair is unordered, so an edge gives the same two events
        # whichever way it is written
        back = TemporalGraph(g.join_times, [(v, u, t) for u, v, t in g.edges])
        assert (sorted(zip(*(column.tolist() for column in back.first_links())))
                == sorted(zip(*(column.tolist() for column in g.first_links()))))

    def test_each_edge_gives_two_events_in_stable_time_order(self):
        # the later edge first in input order; a tie keeps input order
        edges = [(1, 0, 7), (0, 2, 3), (2, 1, 3)]
        times, v, w = TemporalGraph([0, 0, 0], edges).first_links()
        got = (times.tolist(), v.tolist(), w.tolist())
        assert got == first_links_ordered_brute(edges) == ([3, 3, 3, 3, 7, 7], [0, 2, 2, 1, 1, 0], [2, 0, 1, 2, 0, 1])


class TestAtomicWrite:
    """``write_edge_list`` replaces its files whole or not at all."""

    def test_failed_sidecar_write_keeps_old_sidecar(self, tmp_path, monkeypatch):
        path = str(tmp_path / "g.csv")
        write_edge_list(star_graph(), path)
        sidecar = tmp_path / "g.csv.meta.json"
        old_csv, old_meta = (tmp_path / "g.csv").read_text(), sidecar.read_text()

        def broken_dump(obj, fh, **kwargs):
            fh.write('{"partial"')
            raise OSError("disk full")

        monkeypatch.setattr(temporal_graph.json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            write_edge_list(TemporalGraph([0, 5], [(0, 1, 6)]), path)
        assert sidecar.read_text() == old_meta
        assert (tmp_path / "g.csv").read_text() == old_csv  # the pair stays matched
        assert sorted(os.listdir(tmp_path)) == ["g.csv", "g.csv.meta.json"]

    @pytest.mark.parametrize("blocked", ["g.csv", "g.csv.meta.json"])
    def test_directory_target_keeps_old_pair(self, tmp_path, blocked):
        path = str(tmp_path / "g.csv")
        write_edge_list(star_graph(), path)
        (tmp_path / blocked).unlink()
        (tmp_path / blocked).mkdir()
        (tmp_path / blocked / "inside").write_text("kept\n")
        other = next(name for name in ("g.csv", "g.csv.meta.json") if name != blocked)
        old = (tmp_path / other).read_text()
        with pytest.raises(IsADirectoryError) as info:
            write_edge_list(TemporalGraph([0, 5], [(0, 1, 6)]), path)
        assert info.value.filename == str(tmp_path / blocked)
        assert (tmp_path / other).read_text() == old
        assert os.listdir(tmp_path / blocked) == ["inside"]
        assert sorted(os.listdir(tmp_path)) == ["g.csv", "g.csv.meta.json"]  # no *.tmp

    @pytest.mark.parametrize("exists", [False, True])
    def test_failure_midway_leaves_no_partial_file(self, tmp_path, exists):
        path = tmp_path / "out.txt"
        if exists:
            path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with _replacing(str(path)) as fh:
                fh.write("half a line")
                raise RuntimeError("interrupted")
        if exists:
            assert path.read_text() == "old\n"
        else:
            assert not path.exists()
        assert os.listdir(tmp_path) == (["out.txt"] if exists else [])

    def test_replace_error_names_the_target(self, tmp_path):
        path = tmp_path / "taken"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            with _replacing(str(path)) as fh:
                fh.write("text")
        assert info.value.filename == str(path) and info.value.filename2 is None
        assert os.listdir(tmp_path) == ["taken"] and os.listdir(path) == []

    def test_open_error_names_the_target(self, tmp_path):
        path = str(tmp_path / "missing" / "out.txt")
        with pytest.raises(FileNotFoundError) as info:
            with _replacing(path):
                pass
        assert info.value.filename == path
