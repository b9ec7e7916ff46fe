import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from temponet import (
    NetworkCollection,
    TemporalGraph,
    TimeDiffFn,
    TpaParams,
    classify_vibrancy,
    join_time_diff_prob,
    jrc,
    k_stars_number,
    k_stars_vector,
    make_schedule,
    spearman,
    stars_aggregate,
    tpa_generate,
    vibrancy,
    w_max_time,
)
from temponet.evolution import _average_ranks

from oracles import pair_prob_brute, spearman_brute, stars_aggregate_brute, w_max_brute


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

    def test_csv_and_json_serialization(self, tmp_path):
        j = jrc(schedule_graph([5, 10, 5]), 1)
        path = tmp_path / "curve.csv"
        j.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == len(j.samples) + 1
        assert j.to_json()[0] == [0, 0.0]
        assert j.to_json()[-1][1] == 1.0


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


class TestCollections:
    def test_w_max_time_examples(self):
        graphs = [TemporalGraph([0, s], []) for s in (10, 20, 30)]
        c = NetworkCollection.from_graphs(graphs, 5)
        assert w_max_time(c, 2) == 20
        assert w_max_time(c, 1) == 30
        assert w_max_time(c, 3) == 10

    def test_w_max_time_uniform(self):
        graphs = [TemporalGraph([0, 12], []) for _ in range(4)]
        c = NetworkCollection.from_graphs(graphs, 4)
        for w in range(1, 5):
            assert w_max_time(c, w) == 12

    def test_w_max_time_matches_brute(self):
        rng = random.Random(9)
        for _ in range(50):
            spans = [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
            graphs = [TemporalGraph([0, s], []) for s in spans]
            c = NetworkCollection.from_graphs(graphs, 1)
            for w in range(1, len(spans) + 1):
                assert w_max_time(c, w) == w_max_brute(spans, w)

    def test_w_out_of_range(self):
        c = NetworkCollection.from_graphs([TemporalGraph([0, 5], [])], 1)
        with pytest.raises(ValueError):
            w_max_time(c, 2)
        with pytest.raises(ValueError):
            w_max_time(c, 0)

    def test_singleton_reduction(self):
        g = toy_network(6, 2, seed=3)
        c = NetworkCollection.from_graphs([g], 1)
        horizons = list(range(1, w_max_time(c, 1) + 1))
        total, avg, norm = stars_aggregate(c, 2, 1, horizons)
        vec = k_stars_vector(g, horizons, 2)
        number = k_stars_number(vec)
        assert total == vec
        assert avg == pytest.approx(vec)
        assert norm == pytest.approx([v / number for v in vec])

    def test_two_identical_networks(self):
        g1 = toy_network(5, 2, seed=4)
        g2 = toy_network(5, 2, seed=4)
        c = NetworkCollection.from_graphs([g1, g2], 1)
        horizons = list(range(1, w_max_time(c, 2) + 1))
        total, avg, _ = stars_aggregate(c, 2, 2, horizons)
        vec = k_stars_vector(g1, horizons, 2)
        assert total == [2 * v for v in vec]
        assert avg == pytest.approx(vec)

    def test_staggered_toys_match_spreadsheet(self):
        graphs = [toy_network(4, 1, seed=1), toy_network(7, 2, seed=2), toy_network(9, 3, seed=3)]
        c = NetworkCollection.from_graphs(graphs, 1)
        w = 2
        horizons = list(range(1, w_max_time(c, w) + 1))
        got = stars_aggregate(c, 2, w, horizons)
        ref = stars_aggregate_brute(
            [(list(g.join_times), list(g.edges), g.active_time) for g in graphs],
            2,
            horizons,
        )
        assert got[0] == ref[0]
        assert got[1] == pytest.approx(ref[1], abs=1e-12)
        assert got[2] == pytest.approx(ref[2], abs=1e-12)

    def test_horizons_beyond_w_max_rejected(self):
        c = NetworkCollection.from_graphs([TemporalGraph([0, 4], []), TemporalGraph([0, 9], [])], 1)
        with pytest.raises(ValueError):
            stars_aggregate(c, 1, 2, list(range(1, 10)))

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            stars_aggregate(NetworkCollection([]), 1, 1, [1])
