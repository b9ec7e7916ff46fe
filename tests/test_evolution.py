import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from temponet import (
    TemporalGraph,
    TimeDiffFn,
    TpaParams,
    classify_vibrancy,
    join_time_diff_prob,
    jrc,
    k_stars_number,
    k_stars_vector,
    make_schedule,
    sparse_star_vector,
    spearman,
    stars_aggregate,
    tpa_generate,
    vibrancy,
    w_max_time,
)
from temponet import temporal_graph
from temponet.evolution import _average_ranks, _event_steps

from oracles import (
    jrc_brute,
    k_stars_vector_brute,
    pair_prob_brute,
    spearman_brute,
    stars_aggregate_brute,
    vibrancy_brute,
    w_max_brute,
)


def schedule_graph(schedule, seed=0, m=2):
    return tpa_generate(
        TpaParams(m=m, schedule=schedule, f=TimeDiffFn.exp_base(2), seed=seed)
    )


class TestJrc:
    def test_instant_network(self):
        g = TemporalGraph([0, 0, 0], [(0, 1, 0)])
        j = jrc(g, 4)
        assert j.samples == [(0, 0.0), (0, 1.0)]
        assert j.t_max == 0

    def test_linear_schedule_lies_on_the_line(self):
        g = schedule_graph([10] * 70)
        j = jrc(g, 1)
        for t, value in j.samples:
            assert value == pytest.approx(t / 70, abs=1e-12)

    def test_polynomial_schedule_cumulative_fractions(self):
        g = schedule_graph(make_schedule("polynomial", 5, 8))
        j = jrc(g, 1)
        expected = [0, 5, 25, 70, 150, 275, 455, 700]
        assert [t for t, _ in j.samples] == list(range(8))
        assert [v for _, v in j.samples] == pytest.approx([e / 700 for e in expected])

    def test_offset_join_times_are_normalized_internally(self):
        g = TemporalGraph([100, 104, 112], [])
        j = jrc(g, 4)
        assert j.samples == [(0, 0.0), (4, 1 / 3), (8, 2 / 3), (12, 2 / 3), (16, 1.0)]

    def test_rejects_empty_graph_and_bad_interval(self):
        with pytest.raises(ValueError):
            jrc(TemporalGraph([], []), 1)
        with pytest.raises(ValueError):
            jrc(TemporalGraph([0], []), 0)

    def test_grid_longer_than_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        # [100, 104, 112] at interval 4 samples 5 times (see above)
        monkeypatch.setattr(temporal_graph, "_MAX_HORIZONS", 5)
        assert len(jrc(TemporalGraph([100, 104, 112], []), 4).samples) == 5
        with pytest.raises(ValueError, match="interval 4 gives 6 horizons"):
            jrc(TemporalGraph([100, 104, 116], []), 4)
        monkeypatch.undo()
        # a 2**31 span at interval 1 would need a 16 GiB grid
        with pytest.raises(ValueError, match="interval 1 gives 2147483650 horizons"):
            jrc(TemporalGraph([0, 2**31], []), 1)

    def test_samples_are_the_python_pairs_of_the_columns(self):
        # (t, c / n) as Python ints and floats, equal to the list of pairs
        # the curve was once built as
        rng = random.Random(5)
        for _ in range(300):
            offset = rng.choice([0, 3, 10**4])
            span = rng.choice([0, 1, 9, 40, 10**4])
            joins = sorted(offset + rng.randint(0, span) for _ in range(rng.randint(1, 12)))
            interval = rng.choice([1, 2, 3, 7, 50, 997])
            j = jrc(TemporalGraph(joins, []), interval)
            assert (j.t.dtype, j.value.dtype) == (np.int64, np.float64)
            assert j.samples == jrc_brute(joins, interval)
            assert all(type(t) is int and type(v) is float for t, v in j.samples)
            assert (j.times(), j.values(), j.t_max) == (j.t.tolist(), j.value.tolist(), j.samples[-1][0])


class TestVibrancy:
    def test_linear_ramp_is_half(self):
        assert vibrancy(jrc(schedule_graph([10] * 70), 1)) == pytest.approx(0.5)

    def test_instant_network_is_zero(self):
        g = TemporalGraph([0, 0], [(0, 1, 0)])
        assert vibrancy(jrc(g, 4)) == 0.0

    def test_saturated_curve_is_near_zero(self):
        # almost everything at t=0, one straggler defines the span
        g = TemporalGraph([0] * 99 + [50], [])
        v = vibrancy(jrc(g, 1))
        assert v == pytest.approx(0.0, abs=1.5 / 50)

    def test_polynomial_vibrancy(self):
        v = vibrancy(jrc(schedule_graph(make_schedule("polynomial", 5, 8)), 1))
        assert v == pytest.approx(0.729, abs=0.01)

    def test_reversal_complement(self):
        fwd = vibrancy(jrc(schedule_graph(make_schedule("polynomial", 5, 8)), 1))
        rev = vibrancy(jrc(schedule_graph(make_schedule("sigmoidal", 5, 8)), 1))
        assert rev == pytest.approx(0.271, abs=0.01)
        assert fwd + rev == pytest.approx(1.0, abs=2 * (1 / 7))

    def test_equals_the_brute_formula_exactly(self):
        # bit for bit, on random join columns with offsets and spans up to 10**4
        rng = random.Random(11)
        for _ in range(300):
            offset = rng.choice([0, 3, 10**4, 10**9])
            span = rng.choice([0, 1, 9, 40, 10**4])
            joins = sorted(offset + rng.randint(0, span) for _ in range(rng.randint(1, 25)))
            interval = rng.choice([1, 2, 3, 10, 97])
            assert vibrancy(jrc(TemporalGraph(joins, []), interval)) == vibrancy_brute(joins, interval)

    def test_in_unit_interval_on_random_schedules(self):
        rng = random.Random(1)
        for _ in range(20):
            sched = [rng.randint(1, 30) for _ in range(rng.randint(1, 12))]
            v = vibrancy(jrc(schedule_graph(sched), 1))
            assert 0.0 <= v <= 1.0


class TestClassify:
    def test_fast(self):
        assert classify_vibrancy(0.73, 0.5) == "fast"

    def test_slow(self):
        assert classify_vibrancy(0.27, 0.5) == "slow"

    def test_boundary_is_slow(self):
        assert classify_vibrancy(0.5, 0.5) == "slow"


class TestJoinTimeDiffProb:
    def test_single_cohort(self):
        g = TemporalGraph([0, 0, 0, 0], [(0, 1, 0), (2, 3, 0)])
        assert join_time_diff_prob(g, 1) == [(0, 2 / 6)]

    def test_two_cohort_toy_matches_enumeration(self):
        joins = [0, 0, 1, 1]
        edges = [(0, 1, 0), (0, 2, 1), (1, 3, 1)]
        g = TemporalGraph(joins, edges)
        got = join_time_diff_prob(g, 1)
        assert got == pytest.approx(pair_prob_brute(joins, edges, 1))
        assert got == [(0, 1 / 2), (1, 2 / 4)]

    def test_random_graphs_match_enumeration(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 8)
            joins = sorted(rng.randint(0, 6) for _ in range(n))
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        edges.append((u, v, max(joins[u], joins[v])))
            g = TemporalGraph(joins, edges)
            for width in (1, 2, 3):
                mine = join_time_diff_prob(g, width)
                ref = pair_prob_brute(joins, edges, width)
                assert [b for b, _ in mine] == [b for b, _ in ref]
                for (_, p), (_, q) in zip(mine, ref):
                    assert p == pytest.approx(q, abs=1e-12)

    def test_refuses_a_lone_vertex_and_a_width_below_one(self):
        with pytest.raises(ValueError, match="need at least 2 vertices"):
            join_time_diff_prob(TemporalGraph([0], []), 1)
        for width in (0, -1):
            with pytest.raises(ValueError, match="bin width must be positive"):
                join_time_diff_prob(TemporalGraph([0, 0], [(0, 1, 0)]), width)

    def test_values_are_probabilities_and_decay_on_tpa(self):
        g = tpa_generate(
            TpaParams(m=3, schedule=[200] * 12, f=TimeDiffFn.geometric(0.8, 0.2), seed=2)
        )
        est = join_time_diff_prob(g, 1)
        assert all(0.0 <= p <= 1.0 for _, p in est)
        rho = spearman([d for d, _ in est], [p for _, p in est])
        assert rho < -0.8


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_orderings(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)

    def test_ties_match_oracle(self):
        xs = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0]
        ys = [3.0, 3.0, 1.0, 5.0, 5.0, 2.0]
        assert spearman(xs, ys) == pytest.approx(spearman_brute(xs, ys), abs=1e-12)

    def test_average_ranks_match_scipy_with_heavy_ties(self):
        rng = np.random.default_rng(5)
        for size in (1, 2, 7, 50, 400):
            for distinct in (1, 2, 5, 40):
                values = rng.integers(0, distinct, size)
                for xs in (values, values / 3, values.tolist()):
                    ranks = _average_ranks(xs)
                    assert ranks.dtype == np.float64
                    assert np.array_equal(ranks, rankdata(xs, method="average"))
        with_nan = [1.0, math.nan, 1.0]
        assert np.array_equal(_average_ranks(with_nan), rankdata(with_nan), equal_nan=True)

    def test_constant_input_is_undefined(self):
        assert spearman([1, 1, 1], [1, 2, 3]) is None

    def test_length_checks(self):
        with pytest.raises(ValueError):
            spearman([1], [1])
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=30),
        st.sampled_from(["cube", "exp", "affine"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_monotone_transforms(self, xs, transform):
        ys = [x * 2 - 3 for x in xs]
        fn = {
            "cube": lambda v: v**3,
            "exp": lambda v: math.exp(v / 25),
            "affine": lambda v: 4 * v + 1,
        }[transform]
        base = spearman(xs, ys)
        mapped = spearman([fn(x) for x in xs], ys)
        if base is None:
            assert mapped is None
        else:
            assert mapped == pytest.approx(base, abs=1e-9)


def toy_network(span, peak_shift, seed=0):
    """A small network active for `span` with stars emerging mid-life."""
    rng = random.Random(seed)
    joins, edges = [], []
    vid = 0
    for t in range(span + 1):
        group = [vid + i for i in range(3)]
        vid += 3
        joins.extend([t] * 3)
        for v in group:
            # wire forward into a past vertex so degree structure shifts
            if v >= 3:
                target = rng.randrange(max(1, v - peak_shift * 3), v)
                edges.append((v, target, t))
    return TemporalGraph(joins, edges)


def star_data(graphs, k, interval=1):
    """Each network as ``stars_aggregate`` takes it: active time and
    sparse star vector."""
    return [(g.active_time, sparse_star_vector(g, k, interval)) for g in graphs]


class TestCollections:
    def test_w_max_time_examples(self):
        graphs = [TemporalGraph([0, s], []) for s in (10, 20, 30)]
        c = [g.active_time for g in graphs]
        assert w_max_time(c, 2) == 20
        assert w_max_time(c, 1) == 30
        assert w_max_time(c, 3) == 10

    def test_w_max_time_uniform(self):
        graphs = [TemporalGraph([0, 12], []) for _ in range(4)]
        c = [g.active_time for g in graphs]
        for w in range(1, 5):
            assert w_max_time(c, w) == 12

    def test_w_max_time_matches_brute(self):
        rng = random.Random(9)
        for _ in range(50):
            spans = [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
            graphs = [TemporalGraph([0, s], []) for s in spans]
            c = [g.active_time for g in graphs]
            for w in range(1, len(spans) + 1):
                assert w_max_time(c, w) == w_max_brute(spans, w)

    def test_w_out_of_range(self):
        c = [TemporalGraph([0, 5], []).active_time]
        with pytest.raises(ValueError):
            w_max_time(c, 2)
        with pytest.raises(ValueError):
            w_max_time(c, 0)

    def test_singleton_reduction(self):
        g = toy_network(6, 2, seed=3)
        c = star_data([g], 2)
        horizons = list(range(1, w_max_time([g.active_time], 1) + 1))
        total, avg, norm = stars_aggregate(c, 1, 1)
        vec = k_stars_vector(g, horizons, 2)
        number = k_stars_number(vec)
        assert total == vec
        assert avg == pytest.approx(vec)
        assert norm == pytest.approx([v / number for v in vec])

    def test_two_identical_networks(self):
        g1 = toy_network(5, 2, seed=4)
        g2 = toy_network(5, 2, seed=4)
        c = star_data([g1, g2], 2)
        horizons = list(range(1, w_max_time([g1.active_time, g2.active_time], 2) + 1))
        total, avg, _ = stars_aggregate(c, 2, 1)
        vec = k_stars_vector(g1, horizons, 2)
        assert total == [2 * v for v in vec]
        assert avg == pytest.approx(vec)

    def test_staggered_toys_match_spreadsheet(self):
        graphs = [toy_network(4, 1, seed=1), toy_network(7, 2, seed=2), toy_network(9, 3, seed=3)]
        c = star_data(graphs, 2)
        w = 2
        horizons = list(range(1, w_max_time([g.active_time for g in graphs], w) + 1))
        got = stars_aggregate(c, w, 1)
        ref = stars_aggregate_brute(
            [(list(g.join_times), list(g.edges), g.active_time) for g in graphs],
            2,
            horizons,
        )
        assert got[0] == ref[0]
        assert got[1] == pytest.approx(ref[1], abs=1e-12)
        assert got[2] == pytest.approx(ref[2], abs=1e-12)

    @pytest.mark.parametrize("interval", [1, 2, 3, 7])
    def test_class_grid_matches_the_oracle(self, interval):
        rng = random.Random(20 + interval)
        for _ in range(40):
            found = [random_zero_based_graph(rng) for _ in range(rng.randint(3, 5))]
            graphs = [g for g, _, _ in found]
            triples = [(joins, edges, g.active_time) for g, joins, edges in found]
            k = rng.randint(1, 3)
            c = star_data(graphs, k, interval)
            for w in range(1, 4):
                cap = w_max_time([g.active_time for g in graphs], w)
                got = stars_aggregate(c, w, interval)
                ref = stars_aggregate_brute(triples, k, list(range(interval, cap + 1, interval)))
                assert got[0] == ref[0]
                assert got[1] == pytest.approx(ref[1], abs=1e-12)
                assert got[2] == pytest.approx(ref[2], abs=1e-12)

    def test_grid_shorter_than_one_interval_is_empty(self):
        # the w-max time is 4, the first grid time 5
        c = star_data([toy_network(4, 1, seed=1), toy_network(9, 2, seed=2)], 2, 5)
        assert stars_aggregate(c, 2, 5) == ([], [], [])

    def test_grid_past_the_cap_rejected(self):
        cap = temporal_graph._MAX_HORIZONS
        with pytest.raises(ValueError, match=f"interval 1 gives {cap + 1} horizons over the time span"):
            stars_aggregate([(cap + 1, [])], 1, 1)
        # the grid runs to the w-max time, not to the longest network
        assert len(stars_aggregate([(10**12, [(0, 1)]), (10, [])], 2, 1)[0]) == 10

    def test_bad_interval_rejected(self):
        c = star_data([toy_network(4, 1, seed=1)], 1)
        for interval in (0, -1):
            with pytest.raises(ValueError, match="interval must be positive"):
                stars_aggregate(c, 1, interval)

    def test_entry_past_the_active_time_is_cut(self):
        # entry 9 (t = 10) lies past the first network's active time 5, so
        # it counts neither in total nor in that network's star number
        total, avg, norm = stars_aggregate([(5, [(0, 1), (9, 3)]), (20, [(0, 1)])], 1, 1)
        assert len(total) == 20
        assert total[0] == 2 and total[9] == 0
        assert avg[0] == 1.0
        assert norm[0] == 1.0

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            stars_aggregate([], 1, 1)

    def test_long_network_is_cut_to_the_cap_before_its_star_number(self):
        # the long toy's stars past the cap must not dilute its norm_avg
        graphs = [toy_network(3, 1, seed=5), toy_network(4, 2, seed=6), toy_network(40, 3, seed=7)]
        c = star_data(graphs, 2)
        horizons = list(range(1, w_max_time([g.active_time for g in graphs], 2) + 1))
        assert horizons == [1, 2, 3, 4]
        got = stars_aggregate(c, 2, 1)
        ref = stars_aggregate_brute(
            [(list(g.join_times), list(g.edges), g.active_time) for g in graphs], 2, horizons
        )
        assert got[0] == ref[0]
        assert got[1] == pytest.approx(ref[1], abs=1e-12)
        assert got[2] == pytest.approx(ref[2], abs=1e-12)


def random_zero_based_graph(rng):
    n = rng.randint(1, 9)
    joins = [0] + sorted(rng.choice([0, 1, 2, 5, 9, 30, 31]) for _ in range(n - 1))
    edges = [
        (u, v, max(joins[u], joins[v]) + rng.choice([0, 0, 1, 3, 17]))
        for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35
    ]
    return TemporalGraph(joins, edges), joins, edges


class TestSparseStarVector:
    def test_matches_the_full_grid_oracle(self):
        rng = random.Random(16)
        for _ in range(300):
            g, joins, edges = random_zero_based_graph(rng)
            k, interval = rng.randint(1, 4), rng.choice([1, 2, 3, 7, 50])
            grid = list(range(interval, g.active_time + 1, interval))
            dense = [0] * len(grid)
            for i, count in sparse_star_vector(g, k, interval):
                dense[i] = count
            assert dense == k_stars_vector_brute(joins, edges, grid, k)

    def test_evaluated_at_event_horizons_only(self):
        rng = random.Random(17)
        for _ in range(200):
            g, _, _ = random_zero_based_graph(rng)
            interval = rng.choice([1, 2, 5])
            steps = _event_steps(g, interval).tolist()
            assert len(steps) <= g.n_vertices + g.n_edges
            events = [*g.first_links()[0].tolist(), *g.join_times]
            # exactly the steps whose interval holds an event or a join
            assert steps == sorted({
                -(-t // interval) for t in events
                if 0 < t <= g.active_time // interval * interval
            })

    def test_cost_does_not_follow_the_span(self):
        g = TemporalGraph([0, 0, 5 * 10**6, 10**9], [(0, 1, 3), (1, 2, 5 * 10**6), (0, 3, 10**9)])
        assert _event_steps(g, 1).tolist() == [3, 5 * 10**6, 10**9]
        # vertex 1 takes the lead when vertex 2 links to it; vertex 3's
        # link only ties vertex 0 with it
        assert sparse_star_vector(g, 1, 1) == [(5 * 10**6 - 1, 1)]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            sparse_star_vector(toy_network(3, 1), 1, 0)
