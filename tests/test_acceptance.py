"""Acceptance suite: one test per exit criterion, each printing a
single PASS/FAIL line. Tolerances are pinned here and nowhere else."""

import math
import os
import random
import statistics
import tempfile
import time

import pytest

from temponet import (
    TemporalGraph,
    TimeDiffFn,
    TpaParams,
    avg_clustering,
    avg_shortest_path,
    baseline_generate,
    density,
    fit_exp_decay,
    join_time_diff_prob,
    jrc,
    k_stars_number,
    k_stars_set,
    k_stars_vector,
    make_schedule,
    polyfit,
    power_law_gamma,
    read_edge_list,
    read_edge_stream,
    sparse_star_vector,
    spearman,
    stars_aggregate,
    tpa_generate,
    vibrancy,
    w_max_time,
    write_edge_list,
)
from temponet.cli import main as cli_main

from oracles import (
    avg_sp_brute,
    clustering_brute,
    density_brute,
    k_stars_brute,
    k_stars_vector_brute,
    spearman_brute,
    stars_aggregate_brute,
    w_max_brute,
)

GEOM = TimeDiffFn.geometric(0.8, 0.2)
EXP2 = TimeDiffFn.exp_base(2)


def report(number, name, passed):
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {name}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_1_worked_example_fidelity():
    t0 = time.perf_counter()
    exact = 0
    for seed in range(100):
        g = tpa_generate(TpaParams(m=3, schedule=(100, 200, 400), f=EXP2, seed=seed))
        if g.n_vertices == 700 and g.n_edges == 2100 and g.info["skipped_edges"] == 0:
            exact += 1
    elapsed = time.perf_counter() - t0

    split_ok = True
    sigma2 = math.sqrt(600 * (2 / 3) * (1 / 3))
    probs3 = (1 / 7, 2 / 7, 4 / 7)
    sigma3 = [math.sqrt(1200 * p * (1 - p)) for p in probs3]
    for seed in (0, 1, 2):
        g = tpa_generate(TpaParams(m=3, schedule=(100, 200, 400), f=EXP2, seed=seed))
        joins = g.join_times
        within2 = sum(1 for u, v, t in g.edges if t == 1 and joins[u] == 1 and joins[v] == 1)
        split_ok &= abs(within2 - 400) <= 3 * sigma2
        counts3 = [0, 0, 0]
        for u, v, t in g.edges:
            if t == 2:
                counts3[min(joins[u], joins[v])] += 1
        for group, expected_p, sig in zip((0, 1, 2), probs3, sigma3):
            split_ok &= abs(counts3[group] - 1200 * expected_p) <= 3 * sig

    passed = exact >= 99 and split_ok and elapsed < 1.0
    print(f"  exact={exact}/100 splits_ok={split_ok} elapsed={elapsed:.2f}s")
    report(1, "worked-example fidelity (700 vertices, 2100 edges, group splits)", passed)


def _battery_graphs(n, seeds):
    schedules = {
        700: [("linear", make_schedule("linear", 10, 70)),
              ("polynomial", make_schedule("polynomial", 5, 8)),
              ("sigmoidal", make_schedule("sigmoidal", 5, 8))],
        6200: [("linear", make_schedule("linear", 10, 620)),
               ("polynomial", make_schedule("polynomial", 5, 16)),
               ("sigmoidal", make_schedule("sigmoidal", 5, 16))],
    }[n]
    out = {}
    for name, schedule in schedules:
        out[name] = [
            tpa_generate(TpaParams(m=3, schedule=schedule, f=GEOM, seed=seed))
            for seed in seeds
        ]
    return out


def test_criterion_2_table_battery_qualitative():
    t0 = time.perf_counter()
    seeds = range(10)
    passed = True
    details = []
    for n in (700, 6200):
        battery = _battery_graphs(n, seeds)
        tpa_all = [g for runs in battery.values() for g in runs]
        cc_tpa = statistics.mean(
            avg_clustering(g.snapshot_at(g.t_end)) for g in tpa_all
        )
        dmax_tpa = statistics.mean(
            max(g.degrees_at(g.t_max)) for g in tpa_all
        )
        gammas = [power_law_gamma(g.degrees_at(g.t_max), 4) for g in tpa_all]

        ba = [baseline_generate("ba", n, seed=s, m=3) for s in seeds]
        cc_ba = statistics.mean(avg_clustering(g.snapshot_at(g.t_end)) for g in ba)
        dmax_ba = statistics.mean(max(g.degrees_at(g.t_max)) for g in ba)

        sp_tpa = statistics.mean(
            avg_shortest_path(g.snapshot_at(g.t_end)) for g in battery["polynomial"]
        )
        ws = [baseline_generate("ws", n, seed=s, k=6, p=0.1) for s in seeds]
        sp_ws = statistics.mean(avg_shortest_path(g.snapshot_at(g.t_end)) for g in ws)

        cc_ok = cc_tpa >= 3 * cc_ba
        dmax_ok = dmax_tpa < dmax_ba
        gamma_ok = all(g is not None and 2.5 <= g <= 4.5 for g in gammas)
        sp_ok = sp_tpa < sp_ws
        passed &= cc_ok and dmax_ok and gamma_ok and sp_ok
        details.append(
            f"n={n}: CC {cc_tpa:.4f} vs {cc_ba:.4f} (x{cc_tpa / cc_ba:.1f}), "
            f"dmax {dmax_tpa:.0f} vs {dmax_ba:.0f}, "
            f"gamma [{min(gammas):.2f},{max(gammas):.2f}], "
            f"SP {sp_tpa:.2f} vs WS {sp_ws:.2f}"
        )
    elapsed = time.perf_counter() - t0
    passed &= elapsed < 120
    for line in details:
        print("  " + line)
    print(f"  elapsed={elapsed:.1f}s")
    report(2, "qualitative comparison battery at 700/6200 scale", passed)


def test_criterion_3_jrc_quartic_fit():
    schedule = make_schedule("polynomial", 5, 16)
    good = 0
    for seed in range(10):
        g = tpa_generate(TpaParams(m=3, schedule=schedule, f=EXP2, seed=seed))
        curve = jrc(g, 1)
        fit = polyfit(curve.times(), curve.values(), 4)
        if fit.r_squared is not None and fit.r_squared >= 0.99:
            good += 1
    print(f"  quartic R^2 >= 0.99 on {good}/10 seeds")
    report(3, "join-rate curves fit quartics with R^2 >= 0.99", good >= 9)


def test_criterion_4_vibrancy_calibration():
    linear = vibrancy(jrc(tpa_generate(
        TpaParams(m=3, schedule=make_schedule("linear", 10, 70), f=EXP2, seed=0)), 1))
    poly = vibrancy(jrc(tpa_generate(
        TpaParams(m=3, schedule=make_schedule("polynomial", 5, 8), f=EXP2, seed=0)), 1))
    sigm = vibrancy(jrc(tpa_generate(
        TpaParams(m=3, schedule=make_schedule("sigmoidal", 5, 8), f=EXP2, seed=0)), 1))
    complement_tol = 2 * (1 / 7)  # 2 * interval / t_max
    checks = [
        abs(linear - 0.50) <= 0.02,
        abs(poly - 0.729) <= 0.02,
        abs(sigm - 0.271) <= 0.02,
        abs(poly + sigm - 1.0) <= complement_tol,
    ]
    print(f"  linear={linear:.4f} poly={poly:.4f} sigm={sigm:.4f} sum={poly + sigm:.4f}")
    report(4, "vibrancy calibration (0.50 / 0.729 / 0.271, complement identity)", all(checks))


def test_criterion_5_star_emergence_direction():
    poly_sched = make_schedule("polynomial", 5, 8)
    sigm_sched = make_schedule("sigmoidal", 5, 8)
    nums = {"poly": [], "sigm": []}
    for seed in range(10):
        for label, sched in (("poly", poly_sched), ("sigm", sigm_sched)):
            g = tpa_generate(TpaParams(m=3, schedule=sched, f=GEOM, seed=seed))
            horizons = list(range(1, g.t_max + 1))
            nums[label].append(k_stars_number(k_stars_vector(g, horizons, 5)))
    mean_poly = statistics.mean(nums["poly"])
    mean_sigm = statistics.mean(nums["sigm"])
    print(f"  mean stars-number poly={mean_poly:.2f} sigm={mean_sigm:.2f}")
    report(5, "stars emerge more in fast-growing than reversed-schedule networks",
           mean_poly > mean_sigm)


def test_criterion_6_time_difference_recovery():
    passed = True
    for seed in (0, 1, 2):
        g = tpa_generate(TpaParams(m=3, schedule=[300] * 15, f=GEOM, seed=seed))
        est = join_time_diff_prob(g, 1)
        bins = [d for d, _ in est]
        probs = [p for _, p in est]
        rho = spearman(bins, probs)
        tail = [(d, p) for d, p in est if d >= 1 and p > 0]
        fit = fit_exp_decay([d for d, _ in tail], [p for _, p in tail])
        ratio = math.exp(-1.0 / fit.coefficients[1])
        ok = (
            len(bins) >= 10
            and rho is not None
            and rho < -0.8
            and abs(ratio - 0.2) <= 0.05
        )
        print(f"  seed={seed} bins={len(bins)} ratio={ratio:.3f} spearman={rho:.3f}")
        passed &= ok
    report(6, "time-difference estimator recovers the 0.2 decay ratio", passed)


def _random_small_graph(rng):
    n = rng.randint(1, 8)
    joins = sorted(rng.randint(0, 5) for _ in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                edges.append((u, v, max(joins[u], joins[v]) + rng.randint(0, 2)))
    return TemporalGraph(joins, edges), joins, edges


def test_criterion_7_oracle_equivalence():
    rng = random.Random(1234)
    checks = 0
    passed = True
    for _ in range(1000):
        g, joins, edges = _random_small_graph(rng)
        s = g.snapshot_at(g.t_end)
        n = g.n_vertices

        mine, ref = density(s), density_brute(n, edges)
        passed &= (mine is None and ref is None) or abs(mine - ref) <= 1e-9

        mine, ref = avg_clustering(s), clustering_brute(n, edges)
        passed &= (mine is None and ref is None) or abs(mine - ref) <= 1e-9

        mine, ref = avg_shortest_path(s), avg_sp_brute(n, edges)
        passed &= (mine is None and ref is None) or abs(mine - ref) <= 1e-9

        k = rng.randint(1, 4)
        passed &= k_stars_set(s, k) == k_stars_brute(joins, edges, g.t_end, k)
        horizons = sorted({rng.randint(1, 8) for _ in range(3)})
        vec = k_stars_vector(g, horizons, k)
        ref_vec = k_stars_vector_brute(joins, edges, horizons, k)
        passed &= vec == ref_vec
        passed &= k_stars_number(vec) == sum(ref_vec)
        checks += 6

    for _ in range(1000):
        size = rng.randint(2, 8)
        xs = [rng.randint(-5, 5) for _ in range(size)]
        ys = [rng.randint(-5, 5) for _ in range(size)]
        mine, ref = spearman(xs, ys), spearman_brute(xs, ys)
        passed &= (mine is None and ref is None) or abs(mine - ref) <= 1e-9
        checks += 1

    for _ in range(1000):
        count = rng.randint(1, 8)
        spans = [rng.randint(1, 20) for _ in range(count)]
        graphs = [TemporalGraph([0, sp], []) for sp in spans]
        c = [g.active_time for g in graphs]
        w = rng.randint(1, count)
        passed &= w_max_time(c, w) == w_max_brute(spans, w)
        checks += 1

    for _ in range(200):
        count = rng.randint(1, 5)
        triples, graphs = [], []
        for _n in range(count):
            g, joins, edges = _random_small_graph(rng)
            graphs.append(g)
            triples.append((joins, edges, g.active_time))
        w = rng.randint(1, count)
        cap = w_max_time([g.active_time for g in graphs], w)
        if cap < 1:
            continue
        horizons = list(range(1, cap + 1))
        k = rng.randint(1, 3)
        c = [(g.active_time, sparse_star_vector(g, k, 1)) for g in graphs]
        total, avg, norm = stars_aggregate(c, w, 1)
        rt, ra, rn = stars_aggregate_brute(triples, k, horizons)
        passed &= total == rt
        passed &= all(abs(a - b) <= 1e-9 for a, b in zip(avg, ra))
        passed &= all(abs(a - b) <= 1e-9 for a, b in zip(norm, rn))
        checks += 3

    print(f"  {checks} oracle comparisons")
    report(7, "metrics match brute-force oracles on small random inputs", passed)


def test_criterion_8_determinism_and_round_trip():
    passed = True
    with tempfile.TemporaryDirectory() as tmp:
        # same manifest parameters produce byte-identical outputs
        args = ["generate", "--model", "tpa", "--m", "3",
                "--schedule", "100,200,400", "--f", "exp2", "--seed", "9"]
        pa, pb = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        assert cli_main(args + ["--out", pa]) == 0
        assert cli_main(args + ["--out", pb]) == 0
        for suffix in ("", ".meta.json"):
            with open(pa + suffix, "rb") as fa, open(pb + suffix, "rb") as fb:
                passed &= fa.read() == fb.read()
        fa_out, fb_out = os.path.join(tmp, "fa.csv"), os.path.join(tmp, "fb.csv")
        for out in (fa_out, fb_out):
            assert cli_main(["analyze", "--in", pa, "--interval", "1", "--out", out]) == 0
        with open(fa_out, "rb") as fa, open(fb_out, "rb") as fb:
            passed &= fa.read() == fb.read()

        # ingest -> serialize -> ingest fixed point on 100 random streams
        rng = random.Random(99)
        fixed = 0
        for case in range(100):
            n = rng.randint(2, 12)
            lines = []
            for _ in range(rng.randint(1, 30)):
                u, v = rng.randrange(n), rng.randrange(n)
                lines.append(f"{u} {v} {rng.randint(0, 40)}")
            text = "\n".join(lines) + "\n"
            g1 = read_edge_stream(iter(text.splitlines()))
            p1 = os.path.join(tmp, f"s{case}a.csv")
            p2 = os.path.join(tmp, f"s{case}b.csv")
            write_edge_list(g1, p1)
            g2 = read_edge_list(p1)
            write_edge_list(g2, p2)
            same = True
            for suffix in ("", ".meta.json"):
                with open(p1 + suffix, "rb") as fa, open(p2 + suffix, "rb") as fb:
                    same &= fa.read() == fb.read()
            fixed += same
        passed &= fixed == 100
        print(f"  fixed-point streams: {fixed}/100")
    report(8, "manifest determinism and ingest round-trip fixed point", passed)
