import csv
import json
import os

import pytest

from temponet.cli import main
from temponet import TemporalGraph, read_edge_list, write_edge_list


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run(argv):
    return main(argv)


# Sidecar-backed edge lists that read_edge_list must refuse.
_META = {"directed": False, "allow_self_loops": False, "time_unit_label": ""}
MALFORMED = {
    "float_time": ("0,1,1.5\n", _META),
    "two_fields": ("0,1\n", _META),
    "negative_time": ("0,1,-4\n", _META),
    "id_gap": ("0,5,1\n", _META),
    "no_directed": ("0,1,1\n", {"allow_self_loops": False}),
    "directed_string": ("0,1,1\n", {**_META, "directed": "false"}),
    "loops_null": ("0,1,1\n", {**_META, "allow_self_loops": None}),
    "simple_string": ("0,1,1\n", {**_META, "simple": "no"}),
    "join_null": ("0,1,1\n", {**_META, "explicit_join_times": {"0": None}}),
    "join_string": ("0,1,1\n", {**_META, "explicit_join_times": {"0": "0"}}),
    "join_list": ("0,1,1\n", {**_META, "explicit_join_times": {"0": [0]}}),
    "join_bool": ("0,1,1\n", {**_META, "explicit_join_times": {"0": True}}),
    "join_negative": ("0,1,1\n", {**_META, "explicit_join_times": {"0": -1}}),
    "join_key_negative": ("0,1,1\n", {**_META, "explicit_join_times": {"-1": 0}}),
    "join_key_not_id": ("0,1,1\n", {**_META, "explicit_join_times": {"a": 0}}),
    "joins_not_object": ("0,1,1\n", {**_META, "explicit_join_times": [0]}),
    "sidecar_not_object": ("0,1,1\n", [_META]),
}


def path_stream(offset):
    """A 30-record path whose timestamps count up from ``offset``."""
    return "".join(f"{i} {i + 1} {offset + i}\n" for i in range(30))


GRAPH = "0 1 0\n1 2 1\n0 2 2\n"
ANALYZE = "analyze --in {d}/g.txt --out {d}/o.csv --interval "
# Invocations that must end in one `error:` line and exit 1: the files
# to write into a fresh directory {d}, then the arguments.
ONE_LINE_ERRORS = {
    "analyze_interval_zero": ({"g.txt": GRAPH}, ANALYZE + "0"),
    "analyze_k_zero": ({"g.txt": GRAPH}, ANALYZE + "1 --k 0"),
    "analyze_out_in_missing_dir": ({"g.txt": GRAPH},
                                   "analyze --in {d}/g.txt --out {d}/no/o.csv --interval 1"),
    "analyze_time_past_int64": ({"g.txt": "0 1 5\n1 2 18446744073709551616\n"}, ANALYZE + "1"),
    "analyze_offset_past_int64": ({"g.txt": path_stream(2**64)}, ANALYZE + "1"),
    "compare_missing_settings": ({}, "compare --settings {d}/s.json --out {d}/o.csv"),
    "compare_repeats_zero": ({"s.json": '[{"model": "ba", "m": 2, "n": 20}]'},
                             "compare --settings {d}/s.json --repeats 0 --out {d}/o.csv"),
    "compare_setting_not_object": ({"s.json": "[1]"}, "compare --settings {d}/s.json --out {d}/o.csv"),
    "generate_missing_config": ({}, "generate --model ba --config {d}/c.json --out {d}/o.csv"),
    "generate_unknown_model": ({}, "generate --model xx --n 10 --out {d}/o.csv"),
    "stars_missing_dir": ({}, "stars --dir {d}/nets --k 1 --w 1 --interval 1 --out {d}/o.csv"),
}


def write_malformed(directory, name):
    records, meta = MALFORMED[name]
    path = os.path.join(str(directory), f"{name}.csv")
    with open(path, "w") as fh:
        fh.write("# source,target,timestamp\n" + records)
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh)
    return path


@pytest.mark.parametrize("name", sorted(ONE_LINE_ERRORS))
def test_failure_is_a_one_line_error(tmp_path, capsys, name):
    files, argv = ONE_LINE_ERRORS[name]
    for file_name, text in files.items():
        (tmp_path / file_name).write_text(text)
    assert run([arg.format(d=tmp_path) for arg in argv.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestGenerate:
    def test_worked_example_file(self, tmp_path, capsys):
        out = str(tmp_path / "tpa.csv")
        code = run([
            "generate", "--model", "tpa", "--m", "3",
            "--schedule", "100,200,400", "--f", "exp2", "--seed", "7",
            "--out", out,
        ])
        assert code == 0
        summary = capsys.readouterr().out
        assert "vertices=700" in summary and "edges=2100" in summary and "skipped=0" in summary
        g = read_edge_list(out)
        assert g.n_vertices == 700
        assert g.n_edges == 2100
        manifest = json.loads(read_bytes(out + ".manifest.json"))
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 7
        assert manifest["tool_version"]

    def test_ba_edge_count(self, tmp_path):
        out = str(tmp_path / "ba.csv")
        assert run(["generate", "--model", "ba", "--m", "3", "--n", "700",
                    "--seed", "7", "--out", out]) == 0
        assert read_edge_list(out).n_edges == 2091

    def test_missing_required_flag_exits_two(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert run(["generate", "--model", "tpa", "--schedule", "10,10",
                    "--f", "exp2", "--out", out]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "tpa", "m": 2, "schedule": "10,20",
            "f": {"form": "exp_base", "b": 2}, "seed": 1,
        }))
        out = str(tmp_path / "g.csv")
        assert run(["generate", "--config", str(cfg), "--seed", "3", "--out", out]) == 0
        manifest = json.loads(read_bytes(out + ".manifest.json"))
        assert manifest["seed"] == 3
        assert read_edge_list(out).n_vertices == 30

    def test_schedule_shorthand(self, tmp_path):
        out = str(tmp_path / "p.csv")
        assert run(["generate", "--model", "tpa", "--m", "3",
                    "--schedule", "polynomial:5:8", "--f", "geom:0.8:0.2",
                    "--seed", "0", "--out", out]) == 0
        assert read_edge_list(out).n_vertices == 700

    def test_rerun_is_byte_identical(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        args = ["generate", "--model", "tpa", "--m", "3",
                "--schedule", "50,100", "--f", "exp2", "--seed", "5"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert read_bytes(a) == read_bytes(b)
        assert read_bytes(a + ".meta.json") == read_bytes(b + ".meta.json")


class TestAnalyze:
    def test_worked_example_rows(self, tmp_path):
        graph_path = str(tmp_path / "g.csv")
        run(["generate", "--model", "tpa", "--m", "3",
             "--schedule", "100,200,400", "--f", "exp2", "--seed", "7",
             "--out", graph_path])
        out = str(tmp_path / "features.csv")
        assert run(["analyze", "--in", graph_path, "--interval", "1",
                    "--xmin", "3", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # one row per iteration, activation included
        assert rows[0]["vertices"] == "100"
        assert rows[-1]["vertices"] == "700"
        assert rows[-1]["jrc"] == "1.0"
        assert "new_stars_k1" in rows[0] and "new_stars_k5" in rows[0]

    def test_single_vertex_graph_has_undefined_markers(self, tmp_path):
        path = str(tmp_path / "tiny.csv")
        write_edge_list(TemporalGraph([0], []), path)
        out = str(tmp_path / "tiny_features.json")
        assert run(["analyze", "--in", path, "--interval", "4",
                    "--out", out, "--format", "json"]) == 0
        rows = json.loads(read_bytes(out))
        assert len(rows) == 1
        assert rows[0]["avg_shortest_path"] is None
        assert rows[0]["gamma"] is None

    def test_plain_stream_without_sidecar(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("0 1 5\n1 2 6\n0 2 9\n")
        out = str(tmp_path / "raw.csv")
        assert run(["analyze", "--in", str(path), "--interval", "2", "--out", out]) == 0

    def test_reanalyze_identical_bytes(self, tmp_path):
        graph_path = str(tmp_path / "g.csv")
        run(["generate", "--model", "ba", "--m", "2", "--n", "60",
             "--seed", "1", "--out", graph_path])
        out1 = str(tmp_path / "f1.csv")
        out2 = str(tmp_path / "f2.csv")
        for out in (out1, out2):
            assert run(["analyze", "--in", graph_path, "--interval", "10",
                        "--out", out]) == 0
        assert read_bytes(out1) == read_bytes(out2)

    def test_unreadable_input_nonzero_exit(self, tmp_path):
        assert run(["analyze", "--in", str(tmp_path / "missing.csv"),
                    "--interval", "1", "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_sidecar_file_is_a_one_line_error(self, tmp_path, capsys, name):
        path = write_malformed(tmp_path, name)
        assert run(["analyze", "--in", path, "--interval", "1",
                    "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCompare:
    def settings_file(self, tmp_path):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps([
            {"label": "tpa_small", "model": "tpa", "m": 2,
             "schedule": "10,20,40", "f": "exp2"},
            {"label": "ba_small", "model": "ba", "m": 2, "n": 70},
        ]))
        return str(path)

    def test_two_settings_three_repeats(self, tmp_path):
        out = str(tmp_path / "table.csv")
        assert run(["compare", "--settings", self.settings_file(tmp_path),
                    "--repeats", "3", "--seed", "1", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["setting"] for r in rows] == ["tpa_small", "ba_small"]

        # means equal the average of individually generated runs
        from temponet import TimeDiffFn, TpaParams, tpa_generate, compute_features

        ccs = []
        for seed in (1, 2, 3):
            g = tpa_generate(TpaParams(m=2, schedule=(10, 20, 40),
                                       f=TimeDiffFn.exp_base(2), seed=seed))
            ccs.append(compute_features(g.snapshot_at(g.t_end), gamma_x_min=2).avg_clustering)
        assert float(rows[0]["avg_clustering"]) == pytest.approx(sum(ccs) / 3)

    def test_failed_setting_aborts_row_not_run(self, tmp_path, capsys):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps([
            {"label": "bad", "model": "ba", "m": 100, "n": 10},
            {"label": "good", "model": "ba", "m": 2, "n": 50},
        ]))
        out = str(tmp_path / "table.csv")
        assert run(["compare", "--settings", str(path), "--repeats", "2",
                    "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["setting"] for r in rows] == ["good"]

    def test_repeat_one_matches_single_run(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert run(["compare", "--settings", self.settings_file(tmp_path),
                    "--repeats", "1", "--seed", "4", "--out", out]) == 0
        with open(out) as fh:
            row = list(csv.DictReader(fh))[1]
        from temponet import baseline_generate, compute_features

        g = baseline_generate("ba", 70, seed=4, m=2)
        fv = compute_features(g.snapshot_at(g.t_end), gamma_x_min=2)
        assert float(row["max_degree"]) == fv.max_degree

    def test_thread_env_keeps_row_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEMPONET_THREADS", "4")
        out = str(tmp_path / "t.csv")
        assert run(["compare", "--settings", self.settings_file(tmp_path),
                    "--repeats", "2", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["setting"] for r in rows] == ["tpa_small", "ba_small"]


class TestStars:
    def make_network_dir(self, tmp_path, specs):
        d = tmp_path / "nets"
        d.mkdir()
        from temponet import TimeDiffFn, TpaParams, tpa_generate

        for name, schedule, seed in specs:
            g = tpa_generate(TpaParams(m=2, schedule=schedule,
                                       f=TimeDiffFn.geometric(0.8, 0.2), seed=seed))
            write_edge_list(g, str(d / f"{name}.csv"))
        return str(d)

    def test_singleton_reduction(self, tmp_path):
        d = self.make_network_dir(tmp_path, [("one", [20] * 8, 3)])
        out = str(tmp_path / "stars.csv")
        assert run(["stars", "--dir", d, "--k", "2", "--w", "1",
                    "--interval", "1", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        from temponet import read_edge_list as rel, k_stars_vector

        g = rel(os.path.join(d, "one.csv"))
        vec = k_stars_vector(g, [int(r["t"]) for r in rows], 2)
        assert [int(r["total"]) for r in rows] == vec

    def test_three_network_directory_matches_oracle(self, tmp_path):
        d = self.make_network_dir(tmp_path, [
            ("a", [5] * 5, 1), ("b", [5] * 8, 2), ("c", [5] * 11, 3),
        ])
        out = str(tmp_path / "stars.csv")
        assert run(["stars", "--dir", d, "--k", "2", "--w", "2",
                    "--interval", "1", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "expected at least one aggregated row"

        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from oracles import stars_aggregate_brute
        from temponet import read_edge_list as rel

        graphs = [rel(os.path.join(d, f"{n}.csv")) for n in ("a", "b", "c")]
        by_class = {}
        for r in rows:
            by_class.setdefault(r["class"], []).append(r)
        for label, class_rows in by_class.items():
            horizons = [int(r["t"]) for r in class_rows]
            members = [
                g for g in graphs
                if _class_of(g) == label
            ]
            ref = stars_aggregate_brute(
                [(list(g.join_times), list(g.edges), g.active_time) for g in members],
                2, horizons,
            )
            assert [int(r["total"]) for r in class_rows] == ref[0]
            for r, a in zip(class_rows, ref[1]):
                assert float(r["avg"]) == pytest.approx(a)

    def test_subdirectory_is_skipped_with_notice(self, tmp_path, capsys):
        d = self.make_network_dir(tmp_path, [("one", [10] * 5, 1)])
        os.mkdir(os.path.join(d, "sub"))
        assert run(["stars", "--dir", d, "--k", "1", "--w", "1",
                    "--interval", "1", "--out", str(tmp_path / "s.csv")]) == 0
        assert f"notice: skipping {os.path.join(d, 'sub')}: not a regular file" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_sidecar_file_is_skipped_with_notice(self, tmp_path, capsys, name):
        d = self.make_network_dir(tmp_path, [("one", [10] * 5, 1)])
        path = write_malformed(d, name)
        assert run(["stars", "--dir", d, "--k", "1", "--w", "1",
                    "--interval", "1", "--out", str(tmp_path / "s.csv")]) == 0
        assert f"notice: skipping {path}: " in capsys.readouterr().err

    def test_w_exceeding_count_fails(self, tmp_path):
        d = self.make_network_dir(tmp_path, [("one", [10] * 5, 1)])
        assert run(["stars", "--dir", d, "--k", "1", "--w", "5",
                    "--interval", "1", "--out", str(tmp_path / "s.csv")]) == 1

    def test_offset_timestamps_are_normalized(self, tmp_path):
        d = tmp_path / "offset"
        d.mkdir()
        # raw stream starting at t=1000: horizons must still align at zero
        lines = [f"{i} {i + 1} {1000 + i}" for i in range(8)]
        (d / "raw.txt").write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "o.csv")
        assert run(["stars", "--dir", str(d), "--k", "2", "--w", "1",
                    "--interval", "2", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["t"]) for r in rows] == [2, 4, 6]
        assert sum(int(r["total"]) for r in rows) > 0

    def test_timestamps_past_int64_are_normalized(self, tmp_path):
        # analyze refuses this stream; zero-basing brings it into range
        rows = []
        for name, offset in (("huge", 2**64), ("plain", 0)):
            d = tmp_path / name
            d.mkdir()
            (d / "raw.txt").write_text(path_stream(offset))
            out = str(tmp_path / f"{name}.csv")
            assert run(["stars", "--dir", str(d), "--k", "2", "--w", "1",
                        "--interval", "1", "--out", out]) == 0
            rows.append(read_bytes(out))
        assert rows[0] == rows[1] and rows[0].count(b"\n") == 30

    def test_slow_class_front_loads_emergence(self, tmp_path):
        # polynomial growth is fast (vibrancy 0.73), its reversal slow (0.27);
        # the slow class should concentrate emergence mass in early entries
        from temponet import make_schedule, spearman

        d = tmp_path / "mixed"
        d.mkdir()
        from temponet import TimeDiffFn, TpaParams, tpa_generate

        for seed in range(6):
            for kind in ("polynomial", "sigmoidal"):
                g = tpa_generate(TpaParams(
                    m=3, schedule=make_schedule(kind, 5, 8),
                    f=TimeDiffFn.geometric(0.8, 0.2), seed=seed))
                write_edge_list(g, str(d / f"{kind}_{seed}.csv"))
        out = str(tmp_path / "mixed_stars.csv")
        assert run(["stars", "--dir", str(d), "--k", "5", "--w", "3",
                    "--interval", "1", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        rho = {}
        for label in ("fast", "slow"):
            series = [float(r["norm_avg"]) for r in rows if r["class"] == label]
            assert len(series) >= 4
            rho[label] = spearman(list(range(len(series))), series)
        assert rho["fast"] > rho["slow"]


def _class_of(g):
    from temponet import classify_vibrancy, jrc, vibrancy

    return classify_vibrancy(vibrancy(jrc(g, 1)), 0.5)
