import hashlib
import math
import random
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from scipy.stats import chisquare

from temponet import (
    TimeDiffFn,
    TpaParams,
    baseline_generate,
    make_schedule,
    tpa_generate,
)
from temponet.evolution import spearman


def exp2():
    return TimeDiffFn.exp_base(2)


class TestTimeDiffFn:
    def test_exp_base_values(self):
        f = exp2()
        assert f(0) == 0.5
        assert f(1) == 0.25

    def test_geometric_values(self):
        f = TimeDiffFn.geometric(0.8, 0.2)
        assert f(0) == pytest.approx(0.8)
        assert f(2) == pytest.approx(0.8 * 0.04)

    def test_tabulated_beyond_table_is_zero(self):
        f = TimeDiffFn.tabulated([0.5, 0.25])
        assert f(0) == 0.5
        assert f(5) == 0.0

    def test_tabulated_rejects_increasing(self):
        with pytest.raises(ValueError):
            TimeDiffFn.tabulated([0.2, 0.5])

    def test_exp_base_rejects_below_one(self):
        with pytest.raises(ValueError):
            TimeDiffFn.exp_base(0.5)

    @pytest.mark.parametrize("build, args, message", [
        ("geometric", (0, 0.5), "weight a must be in"),
        ("geometric", (1.5, 0.5), "weight a must be in"),
        ("geometric", (0.8, -0.1), "ratio r must be in"),
        ("geometric", (0.8, 1.5), "ratio r must be in"),
        ("tabulated", ([],), "need a positive first entry"),
        ("tabulated", ([0.0, 0.0],), "need a positive first entry"),
        ("tabulated", ([1.5, 0.5],), "must lie in"),
        ("tabulated", ([0.5, -0.1],), "must lie in"),
        ("from_config", ("pow2",), "unrecognized time-difference function: 'pow2'"),
        ("from_config", ({"form": "power", "b": 2},), "unrecognized time-difference form: 'power'"),
    ])
    def test_refused_parameters(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            getattr(TimeDiffFn, build)(*args)

    def test_config_round_trip_and_shorthand(self):
        f = TimeDiffFn.from_config("geom:0.8:0.2")
        assert f.to_config() == {"form": "geometric", "a": 0.8, "r": 0.2}
        g = TimeDiffFn.from_config(f.to_config())
        assert g(3) == pytest.approx(f(3))
        assert TimeDiffFn.from_config("exp2")(0) == 0.5


class TestMakeSchedule:
    def test_polynomial_700(self):
        sched = make_schedule("polynomial", 5, 8)
        assert sched == [5, 20, 45, 80, 125, 180, 245]
        assert sum(sched) == 700

    def test_polynomial_larger_totals(self):
        assert sum(make_schedule("polynomial", 5, 16)) == 6200
        assert sum(make_schedule("polynomial", 5, 20)) == 12350

    def test_linear(self):
        sched = make_schedule("linear", 10, 70)
        assert sched == [10] * 70
        assert sum(sched) == 700

    def test_sigmoidal_is_reversed_polynomial(self):
        assert make_schedule("sigmoidal", 5, 8) == [245, 180, 125, 80, 45, 20, 5]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            make_schedule("polynomial", 5, 1)
        with pytest.raises(ValueError, match="step must be positive"):
            make_schedule("linear", 0, 5)
        with pytest.raises(ValueError, match="iterations must be positive"):
            make_schedule("linear", 5, 0)
        with pytest.raises(ValueError, match="unknown schedule kind: 'cubic'"):
            make_schedule("cubic", 5, 8)
        for kind in ("polynomial", "sigmoidal"):
            with pytest.raises(ValueError, match="coef must be positive"):
                make_schedule(kind, 0, 8)

    @pytest.mark.parametrize("kind, args, message", [
        ("polynomial", (5.7, 4), "coef must be an integer, not 5.7"),
        ("sigmoidal", (5, 4.0), "max_x_exclusive must be an integer, not 4.0"),
        ("linear", (True, 4), "step must be an integer, not True"),
        ("linear", (10, "7"), "iterations must be an integer, not '7'"),
    ])
    def test_a_value_that_is_not_an_integer_is_refused(self, kind, args, message):
        with pytest.raises(ValueError, match=message):
            make_schedule(kind, *args)

    def test_counts_follow_the_positive_rule(self, positive_rule):
        positive_rule(lambda step: make_schedule("linear", step, 3), "step", 2)
        positive_rule(lambda iterations: make_schedule("linear", 2, iterations), "iterations", 3)
        for kind in ("polynomial", "sigmoidal"):
            positive_rule(lambda coef: make_schedule(kind, coef, 4), "coef", 2)

    def test_numpy_integers_give_ints(self):
        sched = make_schedule("polynomial", np.int64(5), np.int32(4))
        assert sched == [5, 20, 45]
        assert all(type(x) is int for x in sched)


def worked_example(seed):
    return tpa_generate(
        TpaParams(m=3, schedule=(100, 200, 400), f=exp2(), seed=seed)
    )


TPA_SCHEDULES = {"one": [1], "degenerate": [1, 1, 2, 3, 1],
                 "linear_10_620": make_schedule("linear", 10, 620)}
TPA_FORMS = {"exp_base": TimeDiffFn.exp_base(2), "geometric": TimeDiffFn.geometric(0.8, 0.2),
             "tabulated": TimeDiffFn.tabulated([1.0, 0.5, 0.25])}
# SHA-256 of repr((join_times, edges, info)) at m 3, seed 7, recorded
# when every group's running weight sums were rebuilt from f
TPA_DIGESTS = {
    ("one", "exp_base"): "5f2cb3569c3708c4fcb8f7b06f991a5d08f6fb6d8a380a14c67a2fa5b32e0ef8",
    ("one", "geometric"): "5f2cb3569c3708c4fcb8f7b06f991a5d08f6fb6d8a380a14c67a2fa5b32e0ef8",
    ("one", "tabulated"): "5f2cb3569c3708c4fcb8f7b06f991a5d08f6fb6d8a380a14c67a2fa5b32e0ef8",
    ("degenerate", "exp_base"): "456737e6f21d4d71caebaea1d15c6377e35ab21ce9806b515cde2e79290ea977",
    ("degenerate", "geometric"): "bb5b2465628ea4c3575666f5d7fc20452c524af0c8ea9e39d006c349b4109636",
    ("degenerate", "tabulated"): "7adceaa89275770913858826e3ba68330e3b1a280856ab6d07290dcafa6fb4fc",
    ("linear_10_620", "exp_base"): "f74ebd3f801d9ca5807864a61b6472b502ac3e040bd8ca4b497c9e9467b3c273",
    ("linear_10_620", "geometric"): "77d6f7a6b41243a79e4a229a99865a591337215d62fba6dc6c35528bdaad2bfe",
    ("linear_10_620", "tabulated"): "8d6f22e511b593b075afc8475e93ce176437ca5ac288110b6e6513a8880bb349",
}

# The same digest, recorded before the sampling loops drew with
# getrandbits: the worked example at seeds 0-2, and [2] * 60 at m 5,
# where edges exhaust the retry limit and a vertex's link to its later
# cohort partner must keep the partner from drawing it again
DRAW_DIGESTS = {
    ("worked", 0): "1f710089ea3a3a38fe048245d4c12e9c0a5c517fcaf8b8b51bf316ceb2b701f8",
    ("worked", 1): "539f00bbedff95e5759c9a1acbe8529f14e672b1f55be46f7ab11b9c534df713",
    ("worked", 2): "58dc45aaa448f7fd93cbdf49aefa51100087b22bad4fb387b074ca3c62169bb4",
    ("saturated", 0): "858e5d6c4b8faf13b6b49e690ae678db74eb5d67cf394a50a08e29bcfe8f9f9d",
    ("saturated", 1): "5c334870b86a8d6dc7db1346070b75761589bded88ea40f49646cad2192abbf6",
    ("saturated", 2): "7c89f8abe4f3c9020db5061b3f2624b2a2f597c117274cdabb564add85847bb0",
}
DRAW_PARAMS = {"worked": dict(m=3, schedule=[100, 200, 400]),
               "saturated": dict(m=5, schedule=[2] * 60, retry_limit=20)}


def below(getrandbits, n):
    """The draw the sampling loops make in place of ``randrange(n)``."""
    k = n.bit_length()
    j = getrandbits(k)
    while j >= n:
        j = getrandbits(k)
    return j


class TestInlinedDraw:
    """The sampling loops keep the stdlib's draws only while the running
    interpreter's randrange and choice draw as :func:`below` does."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_equals_randrange_and_choice(self, seed):
        sizes = range(1, 3001)
        ours, stdlib = random.Random(seed), random.Random(seed)
        assert [below(ours.getrandbits, n) for n in sizes] == [stdlib.randrange(n) for n in sizes]
        assert [below(ours.getrandbits, n) for n in sizes] == [stdlib.choice(range(n)) for n in sizes]

    @pytest.mark.parametrize("case, seed", sorted(DRAW_DIGESTS))
    def test_tpa_outputs_equal_the_stdlib_draws(self, case, seed):
        g = tpa_generate(TpaParams(f=exp2(), seed=seed, **DRAW_PARAMS[case]))
        digest = hashlib.sha256(repr((g.join_times, g.edges, g.info)).encode()).hexdigest()
        assert digest == DRAW_DIGESTS[case, seed]
        if case == "saturated":
            assert g.info["skipped_edges"] > 0


class TestTpaGenerate:
    def test_worked_example_counts(self):
        g = worked_example(7)
        assert g.n_vertices == 700
        assert g.n_edges == 2100
        assert g.info["skipped_edges"] == 0

    def test_join_time_is_iteration_index(self):
        g = worked_example(1)
        counts = Counter(g.join_times)
        assert counts == {0: 100, 1: 200, 2: 400}

    def test_lone_vertex(self):
        g = tpa_generate(TpaParams(m=3, schedule=(1,), f=exp2(), seed=0))
        assert g.n_vertices == 1
        assert g.n_edges == 0
        assert g.info["skipped_edges"] == 3

    def test_iteration_two_split_within_three_sigma(self):
        # 600 second-iteration edges stay in-group with probability 2/3
        sigma = math.sqrt(600 * (2 / 3) * (1 / 3))
        for seed in (0, 1, 2):
            g = worked_example(seed)
            within = sum(
                1 for u, v, t in g.edges
                if t == 1 and g.join_times[u] == 1 and g.join_times[v] == 1
            )
            assert abs(within - 400) <= 3 * sigma

    def test_determinism_identical_edge_lists(self):
        a, b = worked_example(5), worked_example(5)
        assert a.edges == b.edges
        assert a.join_times == b.join_times
        c = worked_example(6)
        assert c.edges != a.edges

    def test_no_duplicates_or_loops(self):
        g = worked_example(2)
        seen = set()
        for u, v, _ in g.edges:
            assert u != v
            key = (min(u, v), max(u, v))
            assert key not in seen
            seen.add(key)

    def test_preferential_attachment_sanity(self):
        # one group: vertices gaining more incoming picks end with higher degree,
        # and the received-link count increases with final degree
        g = tpa_generate(TpaParams(m=3, schedule=(400,), f=exp2(), seed=9))
        degrees = g.degrees_at(g.t_max)
        initiated = Counter(u for u, _, _ in g.edges)
        received = [degrees[v] - initiated.get(v, 0) for v in range(g.n_vertices)]
        rho = spearman(degrees, received)
        assert rho is not None and rho > 0.5

    def test_cross_group_fractions_match_probabilities(self):
        # chi-square on the final iteration's group targeting
        f = exp2()
        g = tpa_generate(TpaParams(m=3, schedule=(200, 200, 200, 200), f=f, seed=4))
        last = len((200, 200, 200, 200)) - 1
        observed = Counter()
        for u, v, t in g.edges:
            if t != last:
                continue
            ju, jv = g.join_times[u], g.join_times[v]
            target = jv if ju == last else ju
            if ju == last and jv == last:
                target = last
            observed[target] += 1
        # group j draws with weight f(last - j), normalized over the groups
        weights = [f(last - j) for j in range(last + 1)]
        total = sum(observed.values())
        expected = [x / sum(weights) * total for x in weights]
        stat, p_value = chisquare([observed[i] for i in range(last + 1)], expected)
        assert p_value > 1e-3

    def test_retry_exhaustion_skips_instead_of_aborting(self):
        # 2 vertices, m=3: at most one edge can exist, the rest are skipped
        g = tpa_generate(TpaParams(m=3, schedule=(2,), f=exp2(), seed=0, retry_limit=5))
        assert g.n_vertices == 2
        assert g.n_edges <= 1
        assert g.info["skipped_edges"] >= 4

    @pytest.mark.parametrize("schedule, form", sorted(TPA_DIGESTS))
    def test_outputs_equal_the_per_group_weight_sums(self, schedule, form):
        g = tpa_generate(TpaParams(m=3, schedule=TPA_SCHEDULES[schedule], f=TPA_FORMS[form], seed=7))
        digest = hashlib.sha256(repr((g.join_times, g.edges, g.info)).encode()).hexdigest()
        assert digest == TPA_DIGESTS[schedule, form]

    def test_exhausted_retries_keep_their_output(self):
        # each group of two targets only itself, so after its one edge
        # every draw is rejected until the retry limit; digest as above,
        # recorded before the first draw moved out of the retry loop
        g = tpa_generate(TpaParams(m=5, schedule=[2] * 30, f=TimeDiffFn.geometric(1, 0), retry_limit=50))
        digest = hashlib.sha256(repr((g.join_times, g.edges, g.info)).encode()).hexdigest()
        assert digest == "57532e6eb75f71d253491b82cbec1a7da38a0403f358bc1eda052d56af68601d"
        assert g.info["skipped_edges"] == 270

    def test_all_zero_weights_are_refused(self):
        # b ** (-1 - t) underflows to 0.0 for an infinite base
        with pytest.raises(ValueError, match="all group weights are zero"):
            tpa_generate(TpaParams(m=1, schedule=(2, 2), f=TimeDiffFn.exp_base(math.inf)))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="m must be positive"):
            TpaParams(m=0, schedule=(5,), f=exp2())
        with pytest.raises(ValueError, match="schedule must be non-empty"):
            TpaParams(m=1, schedule=(), f=exp2())
        with pytest.raises(ValueError, match="a schedule entry must be positive"):
            TpaParams(m=1, schedule=(0, 5), f=exp2())
        with pytest.raises(ValueError, match="retry_limit must be positive"):
            TpaParams(m=1, schedule=(5,), f=exp2(), retry_limit=0)

    @pytest.mark.parametrize("fields, message", [
        ({"m": 2.5}, "m must be an integer, not 2.5"),
        ({"m": True}, "m must be an integer, not True"),
        ({"schedule": (5, 2.5)}, "a schedule entry must be an integer, not 2.5"),
        ({"seed": 1.0}, "seed must be an integer, not 1.0"),
        ({"seed": "7"}, "seed must be an integer, not '7'"),
        ({"retry_limit": 10.0}, "retry_limit must be an integer, not 10.0"),
    ])
    def test_a_count_that_is_not_an_integer_is_refused(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TpaParams(**{"m": 2, "schedule": (5, 5), "f": exp2(), **fields})

    def test_counts_follow_the_positive_rule(self, positive_rule):
        f = exp2()
        positive_rule(lambda m: TpaParams(m=m, schedule=(5, 5), f=f).m, "m", 2)
        positive_rule(lambda limit: TpaParams(m=2, schedule=(5, 5), f=f, retry_limit=limit).retry_limit,
                      "retry_limit", 10)
        positive_rule(lambda entry: TpaParams(m=2, schedule=(5, entry), f=f).schedule, "a schedule entry", 3)

    def test_numpy_integers_give_the_graph_of_ints(self):
        given = TpaParams(m=np.int64(2), schedule=np.array([5, 8]), f=exp2(), seed=np.int32(3),
                          retry_limit=np.uint8(9))
        assert all(type(x) is int for x in (given.m, given.seed, given.retry_limit, *given.schedule))
        plain = TpaParams(m=2, schedule=[5, 8], f=exp2(), seed=3, retry_limit=9)
        assert tpa_generate(given).edges == tpa_generate(plain).edges


NETWORKX = {
    "ba": lambda n, seed, m, p: nx.barabasi_albert_graph(n, m, seed=seed),
    "hk": lambda n, seed, m, p: nx.powerlaw_cluster_graph(n, m, p, seed=seed),
    "ws": lambda n, seed, k, p: nx.watts_strogatz_graph(n, k, p, seed=seed),
    "nw": lambda n, seed, k, p: nx.newman_watts_strogatz_graph(n, k, p, seed=seed),
}


class TestNetworkxOracles:
    """The native ba, hk, ws and nw replay networkx's draws: same seed,
    same edges in ``nx.Graph.edges()`` order."""

    @pytest.mark.parametrize("model", sorted(NETWORKX))
    def test_edges_equal_networkx_in_order(self, model):
        growing = model in ("ba", "hk")
        # (m or k, n): n = m + 1 and n = k + 1 first, then larger graphs
        sizes = ((1, 2), (3, 4), (2, 40), (5, 120)) if growing else ((2, 3), (6, 7), (3, 30), (4, 120))
        probabilities = (None,) if model == "ba" else (0.0, 0.3, 1.0)
        for seed in range(20):
            # ba also at the benchmark's size, at seeds 0-2
            benchmark = ((3, 700),) if model == "ba" and seed < 3 else ()
            for size, n in sizes + benchmark:
                for p in probabilities:
                    if growing:
                        params = {"m": size, "p_triangle": p} if model == "hk" else {"m": size}
                    else:
                        params = {"k": size, "p": p}
                    g = baseline_generate(model, n, seed=seed, **params)
                    expected = list(NETWORKX[model](n, seed, size, p).edges())
                    assert [(u, v) for u, v, _ in g.edges] == expected, (seed, size, n, p)
                    assert [t for _, _, t in g.edges] == [v if growing else 0 for _, v in expected]

    @pytest.mark.parametrize("model, params", [
        ("ba", {"m": 0}),
        ("hk", {"m": 0, "p_triangle": 0.5}),
        ("hk", {"m": 2, "p_triangle": 1.5}),
        ("hk", {"m": 2, "p_triangle": -0.1}),
    ])
    def test_parameters_networkx_rejects_are_value_errors(self, model, params):
        with pytest.raises(ValueError):
            baseline_generate(model, 10, seed=0, **params)


class TestBaselines:
    def test_ba_edge_count_identity(self):
        g = baseline_generate("ba", 700, seed=7, m=3)
        assert g.n_vertices == 700
        assert g.n_edges == 3 * (700 - 3)
        assert list(g.join_times) == list(range(700))

    def test_ws_zero_rewiring_is_ring_lattice(self):
        g = baseline_generate("ws", 10, seed=0, k=4, p=0.0)
        degrees = g.degrees_at(0)
        assert degrees == [4] * 10
        assert set(g.join_times) == {0}

    def test_nw_adds_shortcuts_over_ring(self):
        g = baseline_generate("nw", 50, seed=1, k=4, p=0.1)
        assert g.n_vertices == 50
        assert g.n_edges >= 100  # ring edges plus shortcuts

    def test_hk_clusters_more_than_ba(self):
        import temponet.metrics as metrics

        cc_hk, cc_ba = [], []
        for seed in range(5):
            hk = baseline_generate("hk", 700, seed=seed, m=3, p_triangle=0.2)
            ba = baseline_generate("ba", 700, seed=seed, m=3)
            cc_hk.append(metrics.avg_clustering(hk.snapshot_at(hk.t_end)))
            cc_ba.append(metrics.avg_clustering(ba.snapshot_at(ba.t_end)))
        assert sum(cc_hk) / 5 > sum(cc_ba) / 5

    def test_ff_grows_with_insertion_times(self):
        g = baseline_generate("ff", 300, seed=3, p_forward=0.65)
        assert g.n_vertices == 300
        assert list(g.join_times) == list(range(300))
        assert g.n_edges >= 299  # at least the ambassador links
        for u, v, t in g.edges:
            assert t == max(u, v)

    def test_determinism(self):
        for model, kwargs in (
            ("ba", dict(m=3)),
            ("ws", dict(k=4, p=0.1)),
            ("nw", dict(k=4, p=0.1)),
            ("hk", dict(m=3, p_triangle=0.2)),
            ("ff", dict(p_forward=0.5)),
        ):
            a = baseline_generate(model, 120, seed=13, **kwargs)
            b = baseline_generate(model, 120, seed=13, **kwargs)
            assert a.edges == b.edges

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            baseline_generate("ba", 3, seed=0, m=3)
        with pytest.raises(ValueError):
            baseline_generate("ws", 4, seed=0, k=4, p=0.1)
        with pytest.raises(ValueError):
            baseline_generate("nope", 10, seed=0)
        with pytest.raises(ValueError):
            baseline_generate("ba", 10, seed=0)  # missing m
        for p_forward in (-0.1, 1.0):
            with pytest.raises(ValueError, match="ff forward probability must be in"):
                baseline_generate("ff", 10, seed=0, p_forward=p_forward)
        with pytest.raises(ValueError, match="ff model needs n >= 1"):
            baseline_generate("ff", 0, seed=0, p_forward=0.5)

    @pytest.mark.parametrize("model, n, params, message", [
        ("ba", 10, {"m": 2.5}, "m must be an integer, not 2.5"),
        ("ba", 10, {"m": "3"}, "m must be an integer, not '3'"),
        ("hk", 10.0, {"m": 2, "p_triangle": 0.5}, "n must be an integer, not 10.0"),
        ("ws", 10, {"k": 2.0, "p": 0.1}, "k must be an integer, not 2.0"),
        ("nw", 10, {"k": 2, "p": "0.1"}, "p must be a real number, not '0.1'"),
        ("hk", 10, {"m": 2, "p_triangle": None}, "p_triangle must be a real number, not None"),
        ("ff", 10, {"p_forward": True}, "p_forward must be a real number, not True"),
        ("ff", 10, {"p_forward": 0.5, "seed": 0.5}, "seed must be an integer, not 0.5"),
    ])
    def test_a_value_of_the_wrong_type_is_refused(self, model, n, params, message):
        with pytest.raises(ValueError, match=message):
            baseline_generate(model, n, **params)

    @pytest.mark.parametrize("model, params", [("ba", {}), ("hk", {"p_triangle": 0.5})])
    def test_m_follows_the_positive_rule(self, positive_rule, model, params):
        positive_rule(lambda m: baseline_generate(model, 12, seed=1, m=m, **params).edges, "m", 2)

    def test_numpy_integers_give_the_graph_of_ints(self):
        given = baseline_generate("ba", np.int64(30), seed=np.int64(4), m=np.int32(2))
        assert given.edges == baseline_generate("ba", 30, seed=4, m=2).edges
