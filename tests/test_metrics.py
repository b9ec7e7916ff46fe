import json
import math
import random

import numpy as np
import pytest

from temponet import (
    TemporalGraph,
    TimeDiffFn,
    TpaParams,
    avg_clustering,
    avg_shortest_path,
    baseline_generate,
    compute_features,
    density,
    k_stars_number,
    k_stars_set,
    k_stars_vector,
    k_stars_vectors,
    make_schedule,
    power_law_gamma,
    read_edge_stream,
    tpa_generate,
)

from temponet import metrics
from temponet.metrics import _giant_component

from oracles import (
    avg_sp_bfs,
    avg_sp_brute,
    clustering_brute,
    clustering_sparse,
    degrees_brute,
    giant_sparse,
    density_brute,
    distinct_pairs,
    k_stars_brute,
    k_stars_vector_brute,
    power_law_gamma_brute,
)


def snap(joins, edges):
    g = TemporalGraph(joins, edges)
    return g.snapshot_at(g.t_end)


def random_graph(rng, n_max=8):
    n = rng.randint(0, n_max)
    joins = sorted(rng.randint(0, 5) for _ in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                edges.append((u, v, max(joins[u], joins[v]) + rng.randint(0, 2)))
    return TemporalGraph(joins, edges)


class TestDensity:
    def test_complete_triangle(self):
        assert density(snap([0, 0, 0], [(0, 1, 0), (2, 1, 0), (0, 2, 0)])) == 1.0

    def test_undirected_single_edge(self):
        assert density(snap([0, 0], [(0, 1, 0)])) == 1.0

    def test_undirected_path(self):
        edges = [(i, i + 1, 0) for i in range(4)]
        assert density(snap([0] * 5, edges)) == pytest.approx(0.4)

    def test_orientation_does_not_change_density(self):
        # one formula, 2 * edges / (n * (n - 1)), whichever way each edge is written
        forward = [(0, 1, 0), (1, 2, 0), (2, 3, 0)]
        backward = [(v, u, t) for u, v, t in forward]
        assert density(snap([0] * 4, forward)) == density(snap([0] * 4, backward)) == 0.5

    def test_undefined_below_two_vertices(self):
        assert density(snap([0], [])) is None


class TestClustering:
    def test_triangle(self):
        edges = [(0, 1, 0), (1, 2, 0), (0, 2, 0)]
        assert avg_clustering(snap([0] * 3, edges)) == 1.0

    def test_star_has_no_triads(self):
        edges = [(0, i, 0) for i in range(1, 5)]
        assert avg_clustering(snap([0] * 5, edges)) == 0.0

    def test_empty_snapshot_is_undefined(self):
        assert avg_clustering(TemporalGraph([], []).snapshot_at(0)) is None

    def test_triangle_with_pendant(self):
        edges = [(0, 1, 0), (1, 2, 0), (0, 2, 0), (0, 3, 0)]
        value = avg_clustering(snap([0] * 4, edges))
        assert value == pytest.approx(clustering_brute(4, edges))
        assert value == pytest.approx(7 / 12)


def oracle_graphs():
    """Generated graphs of every model plus random graphs with many
    components and isolated vertices."""
    rng = random.Random(11)
    f = TimeDiffFn.exp_base(2)
    yield tpa_generate(TpaParams(m=3, schedule=(20, 40, 80), f=f, seed=1))
    yield tpa_generate(TpaParams(m=1, schedule=(3,) * 30, f=f, seed=2))
    for seed in range(2):
        yield baseline_generate("ba", 150, seed=seed, m=2)
        yield baseline_generate("hk", 150, seed=seed, m=3, p_triangle=0.8)
        yield baseline_generate("ws", 80, seed=seed, k=4, p=0.2)
        yield baseline_generate("ff", 150, seed=seed, p_forward=0.5)
    for n in (1, 2, 9, 70, 200):
        joins = sorted(rng.randrange(4) for _ in range(n))
        edges = []
        for _ in range(rng.randrange(2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            edges.append((u, v, max(joins[u], joins[v]) + rng.randrange(3)))
        yield TemporalGraph(joins, distinct_pairs(edges))


class TestSparseOracles:
    def test_clustering_equals_sparse_product(self):
        for g in oracle_graphs():
            for t in range(g.t_min, g.t_end + 1, max(1, g.t_end // 5)):
                s = g.snapshot_at(t)
                edges = [e for e in g.edges if e[2] <= t]
                assert avg_clustering(s) == clustering_sparse(s.n_vertices, edges)

    def test_giant_equals_connected_components(self):
        for g in oracle_graphs():
            for t in range(g.t_min, g.t_end + 1, max(1, g.t_end // 5)):
                s = g.snapshot_at(t)
                edges = [e for e in g.edges if e[2] <= t]
                members = _giant_component(s.n_vertices, *g.first_links(t)[1:])
                assert np.flatnonzero(members).tolist() == giant_sparse(s.n_vertices, edges)

    @pytest.mark.parametrize("path_first", [True, False])
    def test_giant_of_equal_largest_holds_smaller_id(self, path_first):
        evens, odds = [0, 2, 4, 6], [1, 3, 5, 7]
        a, b = (evens, odds) if path_first else (odds, evens)
        edges = [(x, y, 0) for x, y in zip(a, a[1:])] + [(b[0], y, 0) for y in b[1:]]
        members = _giant_component(8, *TemporalGraph([0] * 8, edges).first_links()[1:])
        assert np.flatnonzero(members).tolist() == evens == giant_sparse(8, edges)


def shaped_edges(n, shape):
    """Edges at time 0 of an ``n``-vertex graph that is one component,
    no pair repeated."""
    rng = random.Random(n)
    if shape == "path":
        pairs = [(v - 1, v) for v in range(1, n)]
    elif shape == "star":
        pairs = [(0, v) for v in range(1, n)]
    elif shape == "barbell":  # 30-cliques at both ends of a path
        pairs = [(v - 1, v) for v in range(1, n)]
        for lo in (0, n - 30):
            pairs += [(a, b) for a in range(lo, lo + 30) for b in range(a + 2, lo + 30)]
    else:  # a random tree, so every vertex is in the giant, plus chords
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 4)]
    return distinct_pairs([(u, v, 0) for u, v in pairs])


class TestShortestPath:
    def test_three_vertex_path(self):
        assert avg_shortest_path(snap([0] * 3, [(0, 1, 0), (1, 2, 0)])) == pytest.approx(4 / 3)

    def test_complete_graph(self):
        edges = [(u, v, 0) for u in range(5) for v in range(u + 1, 5)]
        assert avg_shortest_path(snap([0] * 5, edges)) == 1.0

    def test_no_usable_component(self):
        assert avg_shortest_path(snap([0, 0], [])) is None

    def test_six_vertex_random_matches_floyd_warshall(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, n_max=6)
            s = g.snapshot_at(g.t_end)
            mine = avg_shortest_path(s)
            ref = avg_sp_brute(g.n_vertices, list(g.edges))
            assert mine == ref
            assert avg_sp_bfs(g.n_vertices, list(g.edges)) == ref

    # 64 sources share a word and 512 a block: sizes either side of
    # both; a star of 17 or 18 vertices has a hub with all 16 of its
    # neighbour slots in slabs or one slot past them
    @pytest.mark.parametrize("n", [17, 18, 63, 64, 65, 511, 512, 513])
    @pytest.mark.parametrize("shape", ["path", "star", "random"])
    def test_matches_bfs_oracle_at_word_and_block_boundaries(self, n, shape):
        edges = shaped_edges(n, shape)
        g = TemporalGraph([0] * n, edges)
        assert avg_shortest_path(g.snapshot_at(0)) == avg_sp_bfs(n, edges)

    # Up to 1024 vertices all sources are one block, above that blocks
    # of 512; paths and the barbell run for more than 512 levels, and the
    # barbell's frontier goes from a clique (dense) down its path
    # (sparse) into the other clique. Each case runs with the step
    # chosen per level, then with every level forced to the sparse
    # step, then to the dense step.
    @pytest.mark.parametrize("shape, n", [
        *((shape, n) for shape in ("path", "star", "random") for n in (1023, 1024, 1025, 1100)),
        ("barbell", 1100),
    ])
    def test_matches_bfs_oracle_around_one_block_with_each_step(self, shape, n, monkeypatch):
        edges = shaped_edges(n, shape)
        s = TemporalGraph([0] * n, edges).snapshot_at(0)
        expected = avg_sp_bfs(n, edges)
        for share in (metrics._SP_SPARSE, 2.0, 0.0):  # frontier edges never reach 2 * nnz
            monkeypatch.setattr(metrics, "_SP_SPARSE", share)
            assert avg_shortest_path(s) == expected

    # the dense step gathers with mode="clip", so a row id out of range
    # would give a wrong sum, not an IndexError: each graph runs with the
    # step chosen per level, then every level sparse, then every level dense
    def test_matches_bfs_oracle_on_random_multi_component_graphs(self, monkeypatch):
        rng = random.Random(5)
        shares = (metrics._SP_SPARSE, 2.0, 0.0)
        for n in (40, 130, 600):
            for _ in range(3):
                edges = distinct_pairs([(rng.randrange(n), rng.randrange(n), 0) for _ in range(n)])
                s = TemporalGraph([0] * n, edges).snapshot_at(0)
                expected = avg_sp_bfs(n, edges)
                for share in shares:
                    monkeypatch.setattr(metrics, "_SP_SPARSE", share)
                    assert avg_shortest_path(s) == expected

    @pytest.mark.parametrize("path_first", [True, False])
    def test_equal_largest_components_smaller_id_wins(self, path_first):
        # a 4-vertex path (mean 5/3) and a 4-vertex star (mean 3/2) on
        # interleaved ids; the component holding vertex 0 is measured
        evens, odds = [0, 2, 4, 6], [1, 3, 5, 7]
        path_ids, star_ids = (evens, odds) if path_first else (odds, evens)
        edges = [(a, b, 0) for a, b in zip(path_ids, path_ids[1:])]
        edges += [(star_ids[0], v, 0) for v in star_ids[1:]]
        expected = 5 / 3 if path_first else 3 / 2
        assert avg_shortest_path(snap([0] * 8, edges)) == expected
        assert avg_sp_bfs(8, edges) == expected


class TestKStars:
    def test_star_hub_is_top_one(self):
        edges = [(0, i, 1) for i in range(1, 6)]
        assert k_stars_set(snap([1] * 6, edges), 1) == {0}

    def test_k_saturates_at_vertex_count(self):
        s = snap([0, 0, 0], [(0, 1, 0)])
        assert k_stars_set(s, 10) == {0, 1, 2}

    def test_tie_break_earlier_join_then_smaller_id(self):
        # vertices 1..4 all end with degree 2; joins differ
        joins = [0, 0, 1, 2, 2, 3]
        edges = [
            (0, 1, 1), (0, 2, 1), (1, 2, 2),
            (3, 4, 2), (3, 5, 3), (4, 5, 3),
        ]
        g = TemporalGraph(joins, edges)
        s = g.snapshot_at(3)
        got = k_stars_set(s, 3)
        assert got == k_stars_brute(list(joins), edges, 3, 3)
        # all six have degree 2; earliest joiners win, then id
        assert got == {0, 1, 2}

    def test_vector_static_stars(self):
        # stars fixed from the first horizon onward; nothing exists at t=0
        edges = [(0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 2, 2)]
        g = TemporalGraph([1, 1, 1, 2], edges)
        assert k_stars_vector(g, [1, 2], 2) == [2, 0]

    def test_vector_full_churn_k1(self):
        # a new strictly-higher-degree vertex appears at each horizon
        joins = [0, 0, 0, 1, 2, 2]
        edges = [
            (0, 1, 0),
            (3, 0, 1), (3, 1, 1), (3, 2, 1),
            (4, 0, 2), (4, 1, 2), (4, 2, 2), (4, 5, 2),
        ]
        g = TemporalGraph(joins, edges)
        assert k_stars_vector(g, [1, 2], 1) == [1, 1]

    def test_vector_mid_life_swap(self):
        joins = [1, 1, 1, 1, 2]
        edges = [
            (0, 1, 1), (0, 2, 1),            # t=1: vertex 0 leads
            (4, 1, 2), (4, 2, 2), (4, 3, 2), # t=2: vertex 4 overtakes
        ]
        g = TemporalGraph(joins, edges)
        vec = k_stars_vector(g, [1, 2, 3], 1)
        assert vec == k_stars_vector_brute(joins, edges, [1, 2, 3], 1)
        assert vec == [1, 1, 0]
        assert k_stars_number(vec) == 2

    def test_vector_rejects_non_monotone_horizons(self):
        g = TemporalGraph([0, 1], [(0, 1, 1)])
        with pytest.raises(ValueError):
            k_stars_vector(g, [2, 1], 1)

    def test_vector_takes_any_iterable_of_horizons(self):
        g = baseline_generate("ba", 40, seed=1, m=2)
        horizons = range(1, 40, 3)
        expected = k_stars_vector(g, list(horizons), 3)
        assert expected == k_stars_vector_brute(g.join_times, g.edges, list(horizons), 3)
        assert len(expected) == 13
        assert k_stars_vector(g, iter(horizons), 3) == expected
        assert k_stars_vector(g, horizons, 3) == expected
        assert k_stars_vector(g, np.array(horizons, dtype=np.uint8), 3) == expected

    @pytest.mark.parametrize("horizons, message", [
        ([1, 2.5], "horizons must be integers"),
        ([1, 2.5, 4], "horizons must be integers"),
        (np.array([1.0, 2.0]), "horizons must be integers"),
        ([1, 2**63], "horizons must lie in the int64 range"),
    ])
    def test_vector_refuses_a_horizon_that_is_not_an_int64(self, horizons, message):
        g = TemporalGraph([0, 1], [(0, 1, 1)])
        with pytest.raises(ValueError, match=message):
            k_stars_vector(g, horizons, 1)

    def test_vector_takes_only_an_integer_star_size(self, positive_rule):
        g = baseline_generate("ba", 40, seed=1, m=2)
        positive_rule(lambda k: k_stars_vector(g, range(1, 40, 3), k), "k", 2)

    def test_vectors_take_only_integer_star_sizes(self, positive_rule):
        g = baseline_generate("ba", 40, seed=1, m=2)
        positive_rule(lambda k: k_stars_vectors(g, range(1, 40, 3), [3, k, 1]), "k", 2)

    def test_set_takes_only_an_integer_star_size(self, positive_rule):
        g = baseline_generate("ba", 40, seed=1, m=2)
        positive_rule(lambda k: k_stars_set(g.snapshot_at(20), k), "k", 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_non_positive_k(self, k):
        g = TemporalGraph([0, 1], [(0, 1, 1)])
        with pytest.raises(ValueError):
            k_stars_vector(g, [1], k)
        with pytest.raises(ValueError):
            k_stars_set(g.snapshot_at(1), k)

    @pytest.mark.parametrize("model", ["ba", "tpa", "ff"])
    def test_vector_and_set_match_oracle_on_random_graphs(self, model):
        rng = random.Random(7)
        for seed in range(4):
            if model == "tpa":
                schedule = [rng.randint(2, 8) for _ in range(6)]
                g = tpa_generate(TpaParams(m=2, schedule=schedule, f=TimeDiffFn.exp_base(2), seed=seed))
            else:
                params = {"m": 2} if model == "ba" else {"p_forward": 0.4}
                g = baseline_generate(model, 30, seed=seed, **params)
            joins, edges = list(g.join_times), list(g.edges)
            horizons = list(range(1, g.t_end + 1))
            for k in (1, 3, 8):
                assert k_stars_vector(g, horizons, k) == k_stars_vector_brute(joins, edges, horizons, k)
                for t in (0, g.t_end // 2, g.t_end):
                    assert k_stars_set(g.snapshot_at(t), k) == k_stars_brute(joins, edges, t, k)

    def test_vector_matches_oracle_on_ingested_stream(self):
        # self-loops dropped and duplicates merged; horizons start below 0
        # (before the time-0 star set the sweep begins with) and run past
        # t_end; k up to and beyond the vertex count
        rng = random.Random(11)
        lines = ["0 1 0", "0 1 0", "2 2 0", "2 2 4"]
        lines += [f"{rng.randrange(20)} {rng.randrange(20)} {rng.randint(0, 30)}" for _ in range(150)]
        g = read_edge_stream(lines)
        joins, edges = list(g.join_times), list(g.edges)
        horizons = list(range(-3, g.t_end + 4))
        for k in (1, 2, 5, g.n_vertices, g.n_vertices + 3):
            assert k_stars_vector(g, horizons, k) == k_stars_vector_brute(joins, edges, horizons, k)

    def test_vector_matches_oracle_without_time_zero_stars(self):
        g = baseline_generate("ba", 30, seed=2, m=2)
        late = TemporalGraph([t + 5 for t in g.join_times], [(u, v, t + 5) for u, v, t in g.edges])
        assert late.snapshot_at(0).n_vertices == 0
        joins, edges = list(late.join_times), list(late.edges)
        horizons = [-1, 0, *range(5, late.t_end + 1, 3)]
        for k in (1, 4):
            assert k_stars_vector(late, horizons, k) == k_stars_vector_brute(joins, edges, horizons, k)

    @pytest.mark.parametrize("case", [
        "ba_interval_1", "hk_interval_1", "single_events_and_bursts", "ties",
        "k_crosses_vertex_count", "below_zero_after_time_zero_stars", "stream_with_loops",
    ])
    def test_vector_matches_oracle_on_both_steps(self, case):
        # The sweep keeps its top-k set across horizons, updating it from
        # a degree list while a horizon brings at most 64 + nv // 16
        # events and ranking every vertex in numpy otherwise; each case
        # mixes both.
        rng = random.Random(case)
        horizons, ks = None, (1, 5, 40)
        if case == "ba_interval_1":
            g = baseline_generate("ba", 300, seed=3, m=3)
        elif case == "hk_interval_1":
            g = baseline_generate("hk", 300, seed=3, m=2, p_triangle=0.5)
        elif case == "single_events_and_bursts":
            # 120 vertices from time 0; odd times bring one edge, even
            # times 40 distinct pairs, 80 events, over 64 + 120 // 16
            edges, used = [], set()
            for t in range(1, 61):
                for _ in range(1 if t % 2 else 40):
                    u, v = rng.randrange(120), rng.randrange(120)
                    while u == v or (min(u, v), max(u, v)) in used:
                        u, v = rng.randrange(120), rng.randrange(120)
                    used.add((min(u, v), max(u, v)))
                    edges.append((u, v, t))
            g = TemporalGraph([0] * 120, edges)
            ks = (1, 3, 10)
        elif case == "ties":
            # a ring closed one edge per step in random order: degrees
            # stay 0, 1 or 2, so most horizons tie at the k-th score
            pairs = [(v, (v + 1) % 40) for v in range(40)]
            rng.shuffle(pairs)
            g = TemporalGraph([0] * 40, [(u, v, t) for t, (u, v) in enumerate(pairs, 1)])
            ks = (1, 2, 5, 13)
        elif case == "k_crosses_vertex_count":
            # one vertex and one edge per step, so nv passes every k
            g = baseline_generate("ba", 80, seed=4, m=1)
            ks = (10, 20, 79, 80)
        elif case == "below_zero_after_time_zero_stars":
            # a sparse 40-vertex time-0 core, then one vertex per step; the
            # time-0 events are few enough for a Python step at horizon 0
            joins = [0] * 40 + list(range(1, 61))
            edges = [(0, 1, 0), (0, 2, 0)]
            for v in range(40, 100):
                edges += [(v, u, v - 39) for u in rng.sample(range(v), 2)]
            g = TemporalGraph(joins, edges)
            assert k_stars_set(g.snapshot_at(0), 5)
            horizons = list(range(-4, g.t_end + 3))
            ks = (1, 5, 30)
        else:
            lines = [f"{rng.randrange(150)} {rng.randrange(150)} {rng.randint(0, 300)}" for _ in range(1500)]
            lines += [f"{v} {v} {rng.randint(0, 300)}" for v in range(0, 150, 7)]
            g = read_edge_stream(lines)  # the loop records and repeated pairs are dropped
        joins, edges = list(g.join_times), list(g.edges)
        horizons = horizons or list(range(1, g.t_end + 1))
        want = {k: k_stars_vector_brute(joins, edges, horizons, k) for k in ks}
        for k in ks:
            assert k_stars_vector(g, horizons, k) == want[k]
        # one sweep for all sizes, the largest first and the smallest twice
        sizes = [*ks[::-1], ks[0]]
        assert k_stars_vectors(g, horizons, sizes) == [want[k] for k in sizes]

    @pytest.mark.parametrize("case", ["ba_interval_15", "polynomial_1_12"])
    def test_both_steps_run_after_the_set_fills(self, monkeypatch, case):
        # The numpy step's fixed cost sends a horizon of up to 64 events
        # to the Python step however few vertices are present: on the
        # 700-vertex ba graph at interval 15 (90 events per horizon) while
        # 416 or more are, on the polynomial graph (groups of x * x
        # vertices) at its 14-vertex horizon
        if case == "ba_interval_15":
            g = baseline_generate("ba", 700, seed=3, m=3)
            horizons = list(range(15, g.t_end + 15, 15))
        else:
            g = tpa_generate(TpaParams(m=3, schedule=make_schedule("polynomial", 1, 12),
                                       f=TimeDiffFn.geometric(0.8, 0.2), seed=1))
            horizons = list(range(1, g.t_end + 1))
        ranked = []  # the present-vertex count of each numpy step
        top_k = metrics._top_k
        monkeypatch.setattr(metrics, "_top_k", lambda degrees, k: ranked.append(len(degrees)) or top_k(degrees, k))
        ks = (1, 5)
        joins, edges = list(g.join_times), list(g.edges)
        assert k_stars_vectors(g, horizons, ks) == [k_stars_vector_brute(joins, edges, horizons, k) for k in ks]
        assert len(ranked) < len(horizons) + 1  # a Python step at one point or more
        assert any(nv > max(ks) for nv in ranked)  # and a numpy step that ranks more than the set

    @pytest.mark.parametrize("case", ["random_pairs", "ring_ties"])
    def test_a_numpy_step_after_python_steps_ranks_only_possible_stars(self, monkeypatch, case):
        # Every vertex is present from time 0, so a numpy step on a full
        # set that ranks fewer than n vertices ranked its candidates.
        # Single edges go to the Python step and bursts of 40 (80 events,
        # over 64 + 120 // 16) to the numpy step, whose floor comes from
        # the stars of the numpy step before the Python steps. On the ring
        # of chords every degree stays at most 4, so many vertices tie
        # at the floor degree.
        rng = random.Random(case)
        n = 120
        if case == "random_pairs":
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            times = range(1, 61)
        else:
            pairs = [(v, (v + d) % n) for v in range(n) for d in (1, 2)]
            times = range(1, 16)
        rng.shuffle(pairs)
        edges = []
        for t in times:
            edges += [(u, v, t) for u, v in pairs[len(edges) : len(edges) + (40 if t % 3 == 0 else 1)]]
        g = TemporalGraph([0] * n, edges)
        ranked = []  # the degrees each numpy step ranked
        top_k = metrics._top_k
        monkeypatch.setattr(metrics, "_top_k", lambda degrees, k: ranked.append(degrees.copy()) or top_k(degrees, k))
        ks = (1, 3, 10)
        horizons = list(times)
        joins, edges = list(g.join_times), list(g.edges)
        assert k_stars_vectors(g, horizons, ks) == [k_stars_vector_brute(joins, edges, horizons, k) for k in ks]
        assert len(ranked) < len(horizons) + 1  # a Python step at one point or more
        candidates = [d for d in ranked if len(d) < n]
        assert len(candidates) >= len(times) // 3 - 1  # every burst after the first Python step
        # the tenth highest degree is the floor, shared by a candidate that
        # stays out: the position tie-break picked among them
        assert any(len(d) > 10 and np.sort(d)[-10] == d.min() for d in candidates)

    def test_vectors_match_oracle_on_random_graphs_and_sizes(self):
        # sizes unsorted, repeated and up to past the vertex count; sorted
        # random horizons from before the first join to past t_end
        rng = random.Random(23)
        for trial in range(60):
            kind = trial % 4
            if kind == 0:
                g = baseline_generate("ba", rng.randint(4, 80), seed=trial, m=rng.randint(1, 3))
            elif kind == 1:
                g = baseline_generate("hk", rng.randint(4, 80), seed=trial, m=2, p_triangle=0.5)
            elif kind == 2:
                schedule = [rng.randint(1, 8) for _ in range(rng.randint(1, 8))]
                g = tpa_generate(TpaParams(m=2, schedule=schedule, f=TimeDiffFn.exp_base(2), seed=trial))
            else:
                n = rng.randint(2, 40)
                lines = [f"{rng.randrange(n)} {rng.randrange(n)} {rng.randint(3, 40)}"
                         for _ in range(rng.randint(1, 200))]
                g = read_edge_stream(lines)
            n = g.n_vertices
            ks = [rng.randint(1, n + 3) for _ in range(rng.randint(1, 4))]
            ks += rng.sample(ks, rng.randint(0, len(ks))) + [n + rng.randint(0, 2)]
            rng.shuffle(ks)
            first = min(g.join_times) - 3
            later = range(first + 1, g.t_end + 4)
            horizons = [first, *sorted(rng.sample(later, rng.randint(0, len(later))))]
            joins, edges = list(g.join_times), list(g.edges)
            want = [k_stars_vector_brute(joins, edges, horizons, k) for k in ks]
            assert k_stars_vectors(g, horizons, ks) == want, (trial, ks)

    def test_vectors_are_separate_lists(self):
        g = baseline_generate("ba", 20, seed=1, m=2)
        a, b = k_stars_vectors(g, [1, 5, 10], [2, 2])
        a.append(-1)
        assert b == k_stars_vector(g, [1, 5, 10], 2)

    @pytest.mark.parametrize("ks", [[], [3, 0]])
    def test_vectors_reject_missing_or_non_positive_sizes(self, ks):
        g = TemporalGraph([0, 1], [(0, 1, 1)])
        with pytest.raises(ValueError, match="k must be positive"):
            k_stars_vectors(g, [1], ks)

    def test_number_sums_entries(self):
        assert k_stars_number([5, 0, 0]) == 5
        assert k_stars_number([1] * 7) == 7


class TestPowerLawGamma:
    def test_degenerate_equal_degrees(self):
        assert power_law_gamma([5] * 100, 5) is None

    def test_too_few_samples(self):
        assert power_law_gamma([3, 4, 5] * 10, 3) is None

    def test_log_terms_that_all_round_to_zero(self):
        # a tail of two distinct degrees, each of which divides by
        # x_min - 0.5 to exactly 1.0 in floating point
        assert power_law_gamma([2**60] * 49 + [2**60 + 1], 2**60) is None

    def test_synthetic_recovery(self):
        rng = random.Random(42)
        x_min, gamma = 3, 3.0
        samples = []
        for _ in range(10000):
            u = rng.random()
            # discrete-style draw: continuous tail shifted half a step, rounded
            samples.append(round((x_min - 0.5) * (1 - u) ** (-1 / (gamma - 1))))
        est = power_law_gamma(samples, x_min)
        assert est == pytest.approx(3.0, abs=0.1)

    def test_ba_degree_sequence_band(self):
        g = baseline_generate("ba", 6200, seed=5, m=3)
        est = power_law_gamma(g.degrees_at(g.t_max), 3)
        assert 2.5 <= est <= 3.5

    def test_equals_the_left_to_right_sum_exactly(self):
        rng = random.Random(8)
        for _ in range(300):
            degrees = [int(rng.paretovariate(1.5)) for _ in range(rng.randint(40, 400))]
            x_min = rng.randint(1, 4)
            assert power_law_gamma(degrees, x_min) == power_law_gamma_brute(degrees, x_min)

    def test_x_min_follows_the_positive_rule(self, positive_rule):
        degrees = baseline_generate("ba", 200, seed=5, m=3).degrees_at(199)
        positive_rule(lambda x_min: power_law_gamma(degrees, x_min), "x_min", 2)


class TestComputeFeatures:
    def test_serializes_undefined_as_null(self):
        g = TemporalGraph([0], [])
        features = compute_features(g.snapshot_at(0))
        blob = json.loads(json.dumps(features))
        assert blob["vertices"] == 1
        assert blob["density"] is None
        assert blob["avg_shortest_path"] is None
        assert blob["gamma"] is None

    def test_a_graph_has_the_features_of_its_last_snapshot(self):
        rng = random.Random(3)
        graphs = [
            tpa_generate(TpaParams(m=2, schedule=(20, 30, 10), f=TimeDiffFn.exp_base(2), seed=1)),
            baseline_generate("ba", 120, seed=2, m=3),
            baseline_generate("hk", 120, seed=2, m=2, p_triangle=0.5),
            TemporalGraph([], []),
            TemporalGraph([4], []),
        ]
        for _ in range(30):
            g = random_graph(rng)
            # the same edges in shuffled order, so not in time order
            edges = list(g.edges)
            rng.shuffle(edges)
            graphs += [g, TemporalGraph(g.join_times, edges)]
        for g in graphs:
            want = compute_features(g, gamma_x_min=2)
            assert repr(compute_features(g.snapshot_at(g.t_end), gamma_x_min=2)) == repr(want)

    def test_degrees_count_the_edges_after_the_last_join(self):
        # a hub whose 60 links all come after the last vertex joined
        g = TemporalGraph(list(range(61)), [(0, i, 100 + i) for i in range(1, 61)])
        features = compute_features(g, gamma_x_min=1)
        assert features["max_degree"] == 60
        assert features["gamma"] == power_law_gamma([60] + [1] * 60, 1)
        rng = random.Random(4)
        for _ in range(100):
            g = random_graph(rng)
            degrees = degrees_brute(g.n_vertices, list(g.edges), g.t_end)
            assert compute_features(g)["max_degree"] == max(degrees, default=0)

    def test_x_min_follows_the_positive_rule(self, positive_rule):
        g = baseline_generate("ba", 60, seed=5, m=2)
        positive_rule(lambda x_min: compute_features(g, gamma_x_min=x_min), "x_min", 2)

    def test_x_min_is_refused_before_any_feature(self, monkeypatch):
        def refuse(g):
            raise AssertionError("a feature was computed")

        for name in ("density", "avg_clustering", "avg_shortest_path"):
            monkeypatch.setattr(metrics, name, refuse)
        g = baseline_generate("ba", 60, seed=5, m=2)
        for x_min in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="x_min must be"):
                compute_features(g, gamma_x_min=x_min)

    def test_matches_parts(self):
        g = tpa_generate(TpaParams(m=2, schedule=(20, 20), f=TimeDiffFn.exp_base(2), seed=1))
        s = g.snapshot_at(g.t_end)
        features = compute_features(s, gamma_x_min=2)
        # the keys come in the order of the analyze columns
        assert list(features) == ["vertices", "edges", "density", "avg_clustering",
                                  "avg_shortest_path", "max_degree", "gamma"]
        assert features["vertices"] == 40
        assert features["edges"] == s.n_edges
        assert features["density"] == pytest.approx(density(s))
        assert features["avg_clustering"] == pytest.approx(avg_clustering(s))
        assert features["max_degree"] == np.bincount(s.first_links()[1]).max()
