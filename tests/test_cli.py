import bisect
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

from temponet import cli
from temponet.cli import main
from temponet import (TemporalGraph, compute_features, k_stars_vector, normalize_times, read_edge_list,
                      read_edge_stream, write_edge_list)


SRC = str(Path(cli.__file__).resolve().parents[1])  # for child processes
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def refuse_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


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
    "time_unit_label_number": ("0,1,1\n", {**_META, "time_unit_label": 5}),
    # a repeated pair, refused whatever an old sidecar's "simple" key says
    "repeated_pair": ("0,1,5\n1,0,6\n", {**_META, "simple": False}),
}


def path_stream(offset):
    """A 30-record path whose timestamps count up from ``offset``."""
    return "".join(f"{i} {i + 1} {offset + i}\n" for i in range(30))


GRAPH = "0 1 0\n1 2 1\n0 2 2\n"
SHORT = "0 1 0\n1 2 2\n2 3 3\n"  # active for 3 time units
ANALYZE = "analyze --in {d}/g.txt --out {d}/o.csv --interval "
TPA_F = '{"model": "tpa", "m": 2, "schedule": "5,5", "f": %s}'
# Invocations that must end in one `error:` line and exit 1: the files
# to write into a fresh directory {d}, then the arguments.
ONE_LINE_ERRORS = {
    "analyze_interval_zero": ({"g.txt": GRAPH}, ANALYZE + "0"),
    "analyze_k_zero": ({"g.txt": GRAPH}, ANALYZE + "1 --k 0"),
    # an argument below 1 is refused before the faulty input is read
    "analyze_interval_zero_before_a_faulty_input": ({"g.txt": "0 1 5\n1 2 x\n"}, ANALYZE + "0"),
    "analyze_k_entry_negative_before_a_faulty_input": ({"g.txt": "0 1 5\n1 2 x\n"}, ANALYZE + "1 --k 1,-2"),
    "analyze_xmin_zero_before_a_faulty_input": ({"g.txt": "0 1 5\n1 2 x\n"}, ANALYZE + "1 --xmin 0"),
    "analyze_out_in_missing_dir": ({"g.txt": GRAPH},
                                   "analyze --in {d}/g.txt --out {d}/no/o.csv --interval 1"),
    "analyze_time_past_int64": ({"g.txt": "0 1 5\n1 2 18446744073709551616\n"}, ANALYZE + "1"),
    "analyze_offset_past_int64": ({"g.txt": path_stream(2**64)}, ANALYZE + "1"),
    "analyze_horizon_grid_too_large": ({"g.txt": "0 1 0\n1 2 4611686018427387904\n"}, ANALYZE + "1"),
    # a sidecar join time past int64, refused as the graph is built
    "analyze_join_time_past_int64": ({"g.csv": "0,1,5\n", "g.csv.meta.json": json.dumps(
                                         {**_META, "explicit_join_times": {"2": 2**64}})},
                                     "analyze --in {d}/g.csv --out {d}/o.csv --interval 1"),
    "analyze_sidecar_repeats_a_pair": ({"g.csv": "0,1,5\n1,0,6\n", "g.csv.meta.json": json.dumps(
                                           {**_META, "simple": False})},
                                       "analyze --in {d}/g.csv --out {d}/o.csv --interval 1"),
    "analyze_sidecar_holds_a_loop": ({"g.csv": "0,0,0\n", "g.csv.meta.json": json.dumps(
                                         {**_META, "allow_self_loops": True})},
                                     "analyze --in {d}/g.csv --out {d}/o.csv --interval 1"),
    "analyze_sidecar_label_number": ({"g.csv": "0,1,1\n", "g.csv.meta.json": json.dumps(
                                         {**_META, "time_unit_label": 5})},
                                     "analyze --in {d}/g.csv --out {d}/o.csv --interval 1"),
    # every graph is undirected, so a directed sidecar is refused
    "analyze_sidecar_directed": ({"g.csv": "0,1,1\n", "g.csv.meta.json": json.dumps(
                                     {**_META, "directed": True})},
                                 "analyze --in {d}/g.csv --out {d}/o.csv --interval 1"),
    # an empty value is refused, not read as the flag's absence
    "analyze_k_empty": ({"g.txt": GRAPH}, ANALYZE + "1 --k="),
    "generate_config_empty": ({}, "generate --config= --model ba --n 10 --out {d}/o.csv"),
    "compare_missing_settings": ({}, "compare --settings {d}/s.json --out {d}/o.csv"),
    "compare_repeats_zero": ({"s.json": '[{"model": "ba", "m": 2, "n": 20}]'},
                             "compare --settings {d}/s.json --repeats 0 --out {d}/o.csv"),
    "compare_interval_zero": ({"s.json": '[{"model": "ba", "m": 2, "n": 20}]'},
                              "compare --settings {d}/s.json --interval 0 --out {d}/o.csv"),
    "compare_interval_negative": ({"s.json": '[{"model": "ba", "m": 2, "n": 20}]'},
                                  "compare --settings {d}/s.json --interval -1 --out {d}/o.csv"),
    "compare_setting_not_object": ({"s.json": "[1]"}, "compare --settings {d}/s.json --out {d}/o.csv"),
    "compare_n_string": ({"s.json": '[{"model": "ba", "m": 3, "n": "10"}]'},
                         "compare --settings {d}/s.json --out {d}/o.csv"),
    "compare_xmin_string": ({"s.json": '[{"model": "ba", "m": 3, "n": 20, "xmin": "3"}]'},
                            "compare --settings {d}/s.json --out {d}/o.csv"),
    "compare_xmin_bool": ({"s.json": '[{"model": "ba", "m": 3, "n": 20, "xmin": true}]'},
                          "compare --settings {d}/s.json --out {d}/o.csv"),
    "generate_missing_config": ({}, "generate --model ba --config {d}/c.json --out {d}/o.csv"),
    "generate_config_not_object": ({"c.json": "[1, 2]"}, "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_n_string": ({"c.json": '{"model": "ba", "m": 3, "n": "10"}'},
                          "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_seed_bool": ({"c.json": '{"model": "ba", "m": 3, "n": 10, "seed": true}'},
                           "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_p_string": ({"c.json": '{"model": "ws", "k": 2, "n": 10, "p": "0.1"}'},
                          "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_model_number": ({"c.json": '{"model": 5, "n": 10}'}, "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_schedule_strings": ({"c.json": '{"model": "tpa", "m": 2, "schedule": ["5"], "f": "exp2"}'},
                                  "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_f_number": ({"c.json": '{"model": "tpa", "m": 2, "schedule": "5,5", "f": 5}'},
                          "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_f_exp_nan": ({}, "generate --model tpa --m 2 --schedule 5,5 --f expnan --out {d}/o.csv"),
    "generate_f_b_string": ({"c.json": TPA_F % '{"form": "exp_base", "b": "2"}'},
                            "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_f_a_null": ({"c.json": TPA_F % '{"form": "geometric", "a": null, "r": 0.5}'},
                          "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_f_values_number": ({"c.json": TPA_F % '{"form": "tabulated", "values": 5}'},
                                 "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_schedule_one_value": ({}, "generate --model tpa --m 2 --schedule polynomial:5 --f exp2 --out {d}/o.csv"),
    "generate_schedule_empty_field": ({}, "generate --model tpa --m 2 --schedule 5,,5 --f exp2 --out {d}/o.csv"),
    "generate_config_schedule_one_value": ({"c.json": '{"model": "tpa", "m": 2, "schedule": "linear:3", "f": "exp2"}'},
                                           "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_f_geom_one_value": ({}, "generate --model tpa --m 2 --schedule 5,5 --f geom:2 --out {d}/o.csv"),
    "generate_f_exp_no_base": ({}, "generate --model tpa --m 2 --schedule 5,5 --f exp --out {d}/o.csv"),
    "generate_config_not_json": ({"c.json": "1 2"}, "generate --config {d}/c.json --out {d}/o.csv"),
    "compare_settings_not_json": ({"s.json": "1 2"}, "compare --settings {d}/s.json --out {d}/o.csv"),
    # strict JSON has no NaN or Infinity; a config key the manifest
    # would copy is refused before anything is written
    "generate_config_nan": ({"c.json": '{"model": "ba", "m": 2, "n": 10, "extra": NaN}'},
                            "generate --config {d}/c.json --out {d}/o.csv"),
    "compare_settings_infinity": ({"s.json": '[{"model": "ba", "m": 2, "n": 20, "extra": -Infinity}]'},
                                  "compare --settings {d}/s.json --out {d}/o.csv"),
    "compare_schedule_one_value": ({"s.json": '[{"model": "tpa", "m": 2, "schedule": "polynomial:5", "f": "exp2"}]'},
                                   "compare --settings {d}/s.json --out {d}/o.csv"),
    "analyze_k_empty_field": ({"g.txt": GRAPH}, ANALYZE + "1 --k 1,,2"),
    "generate_ba_m_zero": ({}, "generate --model ba --m 0 --n 10 --out {d}/o.csv"),
    "generate_tpa_m_zero": ({}, "generate --model tpa --m 0 --schedule 5,5 --f exp2 --out {d}/o.csv"),
    "generate_schedule_entry_zero": ({}, "generate --model tpa --m 1 --schedule 0,5 --f exp2 --out {d}/o.csv"),
    "generate_linear_step_zero": ({}, "generate --model tpa --m 1 --schedule linear:0:5 --f exp2 --out {d}/o.csv"),
    "generate_ba_no_n": ({}, "generate --model ba --m 3 --out {d}/o.csv"),
    "generate_f_no_form": ({"c.json": TPA_F % '{"b": 2}'}, "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_f_no_r": ({"c.json": TPA_F % '{"form": "geometric", "a": 0.8}'},
                        "generate --config {d}/c.json --out {d}/o.csv"),
    "generate_ws_p_above_one": ({}, "generate --model ws --n 10 --k 2 --p 2 --out {d}/o.csv"),
    "generate_nw_p_below_zero": ({}, "generate --model nw --n 10 --k 2 --p -0.5 --out {d}/o.csv"),
    "generate_nw_k_negative": ({}, "generate --model nw --n 10 --k -2 --p 0.1 --out {d}/o.csv"),
    "generate_hk_p_above_one": ({}, "generate --model hk --m 2 --n 10 --p-triangle 1.5 --out {d}/o.csv"),
    "generate_unknown_model": ({}, "generate --model xx --n 10 --out {d}/o.csv"),
    "stars_missing_dir": ({}, "stars --dir {d}/nets --k 1 --w 1 --interval 1 --out {d}/o.csv"),
    "stars_k_zero": ({"g.txt": "0 1 0\n2 3 4\n4 5 4\n"},
                     "stars --dir {d} --k 0 --w 1 --interval 1 --out {d}/o.csv"),
    # every class too short for the interval: no star vector is ever summed
    "stars_k_negative_classes_too_short": ({"a.txt": SHORT, "b.txt": SHORT},
                                           "stars --dir {d} --k -3 --w 1 --interval 5 --out {d}/o.csv"),
    # refused before the network whose join-rate grid is too long is read
    "stars_k_zero_before_a_faulty_network": ({"g.txt": "0 1 0\n1 2 2147483648\n"},
                                             "stars --dir {d} --k 0 --w 1 --interval 1 --out {d}/o.csv"),
    # refused before the unreadable a.txt gets its notice
    "stars_w_zero": ({"a.txt": "a b c\n", "g.txt": GRAPH},
                     "stars --dir {d} --k 1 --w 0 --interval 1 --out {d}/o.csv"),
    "stars_interval_negative": ({"a.txt": "a b c\n", "g.txt": GRAPH},
                                "stars --dir {d} --k 1 --w 1 --interval -1 --out {d}/o.csv"),
    "stars_threshold_nan": ({"a.txt": "a b c\n", "g.txt": GRAPH},
                            "stars --dir {d} --k 1 --w 1 --interval 1 --threshold nan --out {d}/o.csv"),
    # the join-rate grid's last time, 2**63, would wrap to -2**63
    "stars_join_rate_grid_past_int64": ({"g.txt": "0 1 0\n1 2 9223372036854775807\n"},
                                        "stars --dir {d} --k 1 --w 1 --interval 4611686018427387904"
                                        " --out {d}/o.csv"),
    # a zero-span network's one grid step, 2**70, is past int64 as well
    "stars_zero_span_join_rate_grid_past_int64": ({"a.txt": "0 1 5\n"},
                                                  "stars --dir {d} --k 1 --w 1 --interval 1180591620717411303424"
                                                  " --out {d}/o.csv"),
}

# What those errors must say, where the wording is pinned.
ERROR_WORDING = {
    # a field past int64 is refused at its line, as the file is read
    "analyze_time_past_int64":
        "/g.txt: line 2: fields must lie in the int64 range: '1 2 18446744073709551616'\n",
    "analyze_offset_past_int64":
        "/g.txt: line 1: fields must lie in the int64 range: '0 1 18446744073709551616'\n",
    "analyze_horizon_grid_too_large": "interval 1 gives 4611686018427387904 horizons",
    "analyze_join_time_past_int64": "/g.csv: join times must lie in the int64 range\n",
    "analyze_sidecar_repeats_a_pair": "g.csv: duplicate edge (1, 0) in simple graph",
    "analyze_sidecar_holds_a_loop": "/g.csv: self-loops are not allowed in this graph\n",
    "analyze_sidecar_label_number": "/g.csv.meta.json: 'time_unit_label' must be a string\n",
    "analyze_sidecar_directed": "/g.csv.meta.json: directed graphs are not supported\n",
    "analyze_k_empty": "error: --k '': invalid literal for int() with base 10: ''\n",
    "generate_config_empty": "error: [Errno 2] No such file or directory: ''\n",
    "compare_xmin_string": "error: setting 0: xmin must be an integer, not '3'",
    "compare_xmin_bool": "error: setting 0: xmin must be an integer, not True",
    "analyze_interval_zero_before_a_faulty_input": "error: interval must be positive",
    "analyze_k_entry_negative_before_a_faulty_input": "error: k must be positive",
    "analyze_xmin_zero_before_a_faulty_input": "error: x_min must be positive",
    "compare_interval_zero": "error: interval must be positive",
    "compare_interval_negative": "error: interval must be positive",
    "stars_k_zero": "error: k must be positive",
    "stars_k_negative_classes_too_short": "error: k must be positive",
    "stars_k_zero_before_a_faulty_network": "error: k must be positive",
    # a network's fault names its file
    "stars_join_rate_grid_past_int64": "g.txt: interval 4611686018427387904 gives join-rate grid times past",
    "stars_zero_span_join_rate_grid_past_int64":
        "/a.txt: interval 1180591620717411303424 gives join-rate grid times past the int64 range\n",
    "stars_w_zero": "error: w must be positive",
    "stars_interval_negative": "error: interval must be positive",
    "stars_threshold_nan": "error: threshold must be a number, not nan",
    "generate_ba_no_n": "error: model 'ba' is missing parameter 'n'",
    # a value that cannot be read names its flag (or key) and its text
    "generate_schedule_one_value": "error: --schedule 'polynomial:5': a polynomial schedule takes 2 values, got 1",
    "generate_schedule_empty_field": "error: --schedule '5,,5': ",
    "generate_config_schedule_one_value": "error: schedule 'linear:3': a linear schedule takes 2 values, got 1",
    "generate_f_geom_one_value": "error: --f 'geom:2': expected geom:<a>:<r>, as in geom:0.8:0.2",
    "generate_f_exp_no_base": "error: --f 'exp': expected exp<b>, as in exp2",
    "generate_config_not_json": "c.json: Extra data: line 1 column 3 (char 2)",
    "compare_settings_not_json": "s.json: Extra data: line 1 column 3 (char 2)",
    "generate_config_nan": "c.json: NaN is not a JSON value",
    "compare_settings_infinity": "s.json: -Infinity is not a JSON value",
    "compare_schedule_one_value": "error: setting 0: schedule 'polynomial:5': a polynomial schedule",
    "analyze_k_empty_field": "error: --k '1,,2': ",
    "generate_f_no_form": "error: time-difference function {'b': 2} is missing parameter 'form'",
    "generate_f_no_r": "is missing parameter 'r'",
    "generate_ws_p_above_one": "error: ws model needs k >= 0 and p in [0, 1]",
    "generate_nw_p_below_zero": "error: nw model needs k >= 0 and p in [0, 1]",
    "generate_nw_k_negative": "error: nw model needs k >= 0 and p in [0, 1]",
    "generate_ba_m_zero": "error: m must be positive",
    "generate_tpa_m_zero": "error: m must be positive",
    "generate_schedule_entry_zero": "error: a schedule entry must be positive",
    "generate_linear_step_zero": "error: --schedule 'linear:0:5': step must be positive",
}


def test_required_counts_follow_the_positive_rule(positive_rule):
    positive_rule(lambda value: cli._require_positive(k=1, w=value), "w", 2)
    with pytest.raises(ValueError, match="^k must be positive$"):
        cli._require_positive(k=0, w=0)


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
    assert ERROR_WORDING.get(name, "") in err
    assert sorted(os.listdir(tmp_path)) == sorted(files)  # nothing written


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

    # a missing setting parameter is named as compare names it
    def test_missing_required_flag_exits_one(self, tmp_path, capsys):
        assert run(["generate", "--model", "tpa", "--schedule", "10,10",
                    "--f", "exp2", "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: model 'tpa' is missing parameter 'm'\n"
        assert os.listdir(tmp_path) == []

    def test_missing_model_exits_one(self, tmp_path, capsys):
        assert run(["generate", "--n", "10", "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: setting is missing parameter 'model'\n"
        assert os.listdir(tmp_path) == []

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

    def test_a_raw_stream_reaches_the_reader_as_an_open_named_file(self, tmp_path, monkeypatch):
        # the benchmark's tracer counts a stream's records from the name
        # of the file the reader was handed
        path = tmp_path / "g.txt"
        path.write_text(GRAPH)
        handed = []

        def reader(source):
            handed.append((source.name, source.closed, hasattr(source, "read")))
            return read_edge_stream(source)

        monkeypatch.setattr(cli, "read_edge_stream", reader)
        assert cli._load_graph(str(path)).n_edges == 3
        assert handed == [(str(path), False, True)]

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

    @pytest.mark.parametrize("key, values", [
        ("allow_self_loops", (False, True, None)),  # a true key over loop-free records
        ("directed", (False, None)),  # a true key is refused
    ], ids=["allow_self_loops", "directed"])
    def test_vestigial_sidecar_key(self, tmp_path, key, values):
        # each value, or no key (None), reads back the graph a false key
        # gives, every output written from it is the same, and the
        # writer puts the false key back
        outputs = []
        for value in values:
            d = tmp_path / str(value)
            d.mkdir()
            path = str(d / "g.csv")
            (d / "g.csv").write_text("0,1,5\n2,1,7\n")
            meta = {**_META, key: value, "explicit_join_times": {"2": 6}}
            if value is None:
                del meta[key]
            (d / "g.csv.meta.json").write_text(json.dumps(meta))
            g = read_edge_list(path)
            assert (g.join_times, g.edges) == ((5, 5, 6), ((0, 1, 5), (2, 1, 7)))
            write_edge_list(g, str(d / "w.csv"))
            assert run(["analyze", "--in", path, "--interval", "1", "--out", str(d / "f.csv")]) == 0
            outputs.append([read_bytes(str(d / name)) for name in ("w.csv", "w.csv.meta.json", "f.csv")])
        assert all(output == outputs[0] for output in outputs)
        assert f'"{key}":false'.encode() in outputs[-1][1]

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

    def test_one_run_of_several_sizes_equals_one_run_per_size(self, tmp_path):
        graph_path = str(tmp_path / "g.csv")
        run(["generate", "--model", "ba", "--m", "3", "--n", "200", "--seed", "4", "--out", graph_path])
        columns = {}
        for ks in ("5,1,3", "1", "3", "5"):
            out = str(tmp_path / f"f{ks}.csv")
            assert run(["analyze", "--in", graph_path, "--interval", "1", "--k", ks, "--out", out]) == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            for name in rows[0]:
                if name.startswith("new_stars_k"):
                    columns.setdefault(name, []).append([row[name] for row in rows])
        assert sorted(columns) == ["new_stars_k1", "new_stars_k3", "new_stars_k5"]
        for together, alone in columns.values():
            assert together == alone
            assert any(c != "0" for c in together[1:])

    def test_star_size_of_every_vertex_fills_the_set_only_at_the_end(self, tmp_path):
        # 700 horizons of one join each, and k = n: every vertex is a star
        # from its join on, and the other columns are those of a run without it
        graph_path = str(tmp_path / "ba.csv")
        assert run(["generate", "--model", "ba", "--m", "3", "--n", "700", "--seed", "7", "--out", graph_path]) == 0
        tables = []
        for ks in ("1,5,700", "1,5"):
            out = str(tmp_path / f"f{ks}.csv")
            assert run(["analyze", "--in", graph_path, "--interval", "1", "--k", ks, "--xmin", "3",
                        "--out", out]) == 0
            with open(out) as fh:
                tables.append(list(csv.DictReader(fh)))
        together, alone = tables
        joins = sorted(read_edge_list(graph_path).join_times)
        horizons = [int(row["t"]) for row in together]
        assert len(horizons) == 700
        assert [int(row.pop("new_stars_k700")) for row in together] == [
            bisect.bisect_right(joins, h) - bisect.bisect_right(joins, low)
            for low, h in zip([0, *horizons], horizons)
        ]
        assert together == alone

    @pytest.mark.parametrize("form", ["comma_header_repeat_loop", "tab_space_header", "times_x65537"])
    def test_raw_stream_forms_give_the_same_rows(self, tmp_path, form):
        # the worked example's records as a shuffled raw stream, and again
        # in another form: a header, and a later repeat of a pair and a
        # self-loop after the last record, change no row; a tab and a space
        # delimit as commas do; times multiplied by 65537 = 2**16 + 1 take
        # the packed time sort where the original's take the radix sort,
        # and at interval 65537 only the t column changes
        graph_path = tmp_path / "g.csv"
        assert run(["generate", "--model", "tpa", "--m", "3", "--schedule", "100,200,400", "--f", "exp2",
                    "--seed", "9", "--out", str(graph_path)]) == 0
        records = [line.split(",") for line in graph_path.read_text().splitlines() if not line.startswith("#")]
        random.Random(1).shuffle(records)
        u, v, t = records[0]
        scale = 65537 if form == "times_x65537" else 1
        texts = {
            "plain": "".join(f"{a},{b},{c}\n" for a, b, c in records),
            "comma_header_repeat_loop": "# source,target,timestamp\n"
                                        + "".join(f"{a},{b},{c}\n" for a, b, c in records)
                                        + f"{v},{u},{int(t) + 1}\n{u},{u},{t}\n",
            "tab_space_header": "# source target timestamp\n" + "".join(f"{a}\t{b} {c}\n" for a, b, c in records),
            "times_x65537": "".join(f"{a},{b},{int(c) * 65537}\n" for a, b, c in records),
        }
        tables = []
        for name, interval in (("plain", 1), (form, scale)):
            (tmp_path / f"{name}.txt").write_text(texts[name])
            out = str(tmp_path / f"{name}.csv")
            assert run(["analyze", "--in", str(tmp_path / f"{name}.txt"), "--interval", str(interval),
                        "--out", out]) == 0
            with open(out) as fh:
                tables.append(list(csv.DictReader(fh)))
        plain, other = tables
        assert len(plain) == len(other) > 1
        for a, b in zip(plain, other):
            assert int(b.pop("t")) == int(a.pop("t")) * scale
            assert a == b

    def test_raw_stream_and_sidecar_file_agree_but_for_float_sums_and_star_ties(self, tmp_path):
        # a shuffled raw stream is renumbered in join order, first
        # appearance within one join time: clustering and gamma sum floats
        # in id order, so only their last digits may differ, and top-k
        # ties break by id, so new_stars_k* may differ (here k1 at t=1, 2)
        graph_path = str(tmp_path / "g.csv")
        assert run(["generate", "--model", "tpa", "--m", "3", "--schedule", "100,200,400", "--f", "exp2",
                    "--seed", "9", "--out", graph_path]) == 0
        with open(graph_path) as fh:
            records = [line for line in fh if not line.startswith("#")]
        random.Random(0).shuffle(records)
        (tmp_path / "raw.txt").write_text("".join(records))
        tables = []
        for name in (graph_path, str(tmp_path / "raw.txt")):
            out = name + ".features.csv"
            assert run(["analyze", "--in", name, "--interval", "1", "--out", out]) == 0
            with open(out) as fh:
                tables.append(list(csv.DictReader(fh)))
        sidecar, raw = tables
        assert [row["t"] for row in sidecar] == [row["t"] for row in raw] == ["0", "1", "2"]
        for a, b in zip(sidecar, raw):
            for name in ("vertices", "edges", "density", "avg_shortest_path", "max_degree", "jrc"):
                assert a[name] == b[name]
            for name in ("avg_clustering", "gamma"):
                assert math.isclose(float(a[name]), float(b[name]), rel_tol=1e-15)

    @pytest.mark.parametrize("kind", ["sidecar", "raw_stream"])
    def test_rows_but_t_do_not_depend_on_absolute_time(self, tmp_path, kind):
        # new stars count from the stars at the first arrival, so a network
        # whose every join and edge comes later by 1000 gives the same rows
        # but for t, the first one included
        graph_path = str(tmp_path / "g.csv")
        assert run(["generate", "--model", "tpa", "--m", "3", "--schedule", "100,200,400", "--f", "exp2",
                    "--seed", "7", "--out", graph_path]) == 0
        g = read_edge_list(graph_path)
        later = TemporalGraph([x + 1000 for x in g.join_times], [(u, v, t + 1000) for u, v, t in g.edges])
        tables = []
        for name, graph in (("plain", g), ("later", later)):
            path = str(tmp_path / f"{name}.csv")
            if kind == "sidecar":
                write_edge_list(graph, path)
            else:
                records = list(graph.edges)
                random.Random(3).shuffle(records)
                Path(path).write_text("".join(f"{a} {b} {c}\n" for a, b, c in records))
            out = str(tmp_path / f"{name}.features.csv")
            assert run(["analyze", "--in", path, "--interval", "1", "--out", out]) == 0
            with open(out) as fh:
                tables.append(list(csv.DictReader(fh)))
        plain, shifted = tables
        assert [int(row["t"]) for row in shifted] == [int(row["t"]) + 1000 for row in plain] == [1000, 1001, 1002]
        for a, b in zip(plain, shifted):
            del a["t"], b["t"]
            assert a == b
        if kind == "sidecar":
            assert [(row["new_stars_k1"], row["new_stars_k5"]) for row in shifted] == [
                ("0", "0"), ("1", "1"), ("0", "2")]

    def test_features_once_per_distinct_snapshot(self, monkeypatch):
        # on sparse streams most horizons add nothing to the snapshot before
        calls = []

        def counted(s, **kwargs):
            calls.append((s.n_vertices, s.n_edges))
            return compute_features(s, **kwargs)

        monkeypatch.setattr(cli, "compute_features", counted)
        rng = random.Random(17)
        reused = 0
        for _ in range(40):
            n = rng.randint(2, 12)
            text = "".join(f"{rng.randrange(n)} {rng.randrange(n)} {rng.randint(0, 60)}\n"
                           for _ in range(rng.randint(1, 15)))
            g = read_edge_stream(io.StringIO(text))
            interval, x_min, k_values = rng.choice([1, 2, 3, 7]), rng.randint(1, 3), [1, 2, 5]
            calls.clear()
            rows = cli._analysis_rows(g, interval, k_values, x_min)
            # the per-horizon computation
            horizons = g.horizons(interval)
            if horizons[0] > g.t_min:
                horizons.insert(0, g.t_min)
            # new stars count from the first arrival: time 0 of the zero-based graph
            shifted = [h - g.t_min for h in horizons]
            stars = {k: k_stars_vector(normalize_times(g), shifted, k) for k in k_values}
            want = []
            for i, h in enumerate(horizons):
                s = g.snapshot_at(h)
                row = {"t": h, **compute_features(s, gamma_x_min=x_min)}
                row["jrc"] = s.n_vertices / g.n_vertices
                want.append({**row, **{f"new_stars_k{k}": stars[k][i] for k in k_values}})
            assert rows == want
            assert len(calls) == len(set(calls))
            reused += len(rows) - len(calls)
        assert reused > 100

    def test_snapshot_only_where_a_join_or_edge_falls(self, monkeypatch):
        # a row whose horizon brings no join and no edge since the row
        # before reuses that row's snapshot
        calls = []
        snapshot_at = TemporalGraph.snapshot_at
        monkeypatch.setattr(TemporalGraph, "snapshot_at", lambda g, t: calls.append(t) or snapshot_at(g, t))
        rng = random.Random(29)
        reused = 0
        for _ in range(40):
            n = rng.randint(2, 12)
            text = "".join(f"{rng.randrange(n)} {rng.randrange(n)} {rng.randint(0, 60)}\n"
                           for _ in range(rng.randint(1, 15)))
            g = read_edge_stream(io.StringIO(text))
            calls.clear()
            horizons = [row["t"] for row in cli._analysis_rows(g, rng.choice([1, 2, 3, 7]), [1], 1)]
            times = [*g.join_times, *(t for _, _, t in g.edges)]
            changed = [h for i, h in enumerate(horizons)
                       if i == 0 or any(horizons[i - 1] < x <= h for x in times)]
            assert calls == changed
            reused += len(horizons) - len(calls)
        assert reused > 100

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
            ccs.append(compute_features(g.snapshot_at(g.t_end), gamma_x_min=2)["avg_clustering"])
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

    def test_every_setting_is_checked_before_any_is_generated(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps([
            {"label": "good", "model": "ba", "m": 2, "n": 50},
            {"label": "bad", "model": "ba", "m": 2, "n": 50.0},
        ]))
        generated = []
        monkeypatch.setattr(cli, "_generate_graph", lambda *a: generated.append(a))
        out = tmp_path / "table.csv"
        assert run(["compare", "--settings", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: setting 1: n must be an integer, not 50.0\n"
        assert generated == [] and not out.exists()

    def test_xmin_zero_aborts_its_row(self, tmp_path, capsys):
        # 0 is an explicit tail start, not a missing one: no fallback to m
        path = tmp_path / "settings.json"
        path.write_text(json.dumps([
            {"label": "zero", "model": "ba", "m": 2, "n": 30, "xmin": 0},
            {"label": "three", "model": "ba", "m": 2, "n": 30, "xmin": 3},
        ]))
        out = tmp_path / "table.csv"
        assert run(["compare", "--settings", str(path), "--repeats", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: zero aborted: x_min must be positive\n"
        with open(out) as fh:
            assert [r["setting"] for r in csv.DictReader(fh)] == ["three"]

    def test_missing_parameter_is_named(self, tmp_path, capsys):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps([
            {"label": "x", "model": "ba", "m": 2},
            {"label": "y", "model": "tpa", "schedule": "5,5", "f": "exp2"},
            {"label": "z", "model": "ws", "n": 10, "p": 0.1},
        ]))
        out = tmp_path / "table.csv"
        assert run(["compare", "--settings", str(path), "--repeats", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: x aborted: model 'ba' is missing parameter 'n'\n"
            "warning: y aborted: model 'tpa' is missing parameter 'm'\n"
            "warning: z aborted: model 'ws' is missing parameter 'k'\n"
        )

    def test_missing_model_is_named(self, tmp_path, capsys):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps([
            {"label": "x", "n": 20, "m": 2},
            {"label": "y", "model": "ba", "n": 20, "m": 2},
        ]))
        out = tmp_path / "table.csv"
        assert run(["compare", "--settings", str(path), "--repeats", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: x aborted: setting is missing parameter 'model'\n"
        with open(out) as fh:
            assert [r["setting"] for r in csv.DictReader(fh)] == ["y"]

    def test_repeat_one_matches_single_run(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert run(["compare", "--settings", self.settings_file(tmp_path),
                    "--repeats", "1", "--seed", "4", "--out", out]) == 0
        with open(out) as fh:
            row = list(csv.DictReader(fh))[1]
        from temponet import baseline_generate, compute_features

        g = baseline_generate("ba", 70, seed=4, m=2)
        features = compute_features(g.snapshot_at(g.t_end), gamma_x_min=2)
        assert float(row["max_degree"]) == features["max_degree"]

    def test_means_add_left_to_right(self, tmp_path, monkeypatch):
        # a compensated sum, as Python 3.12's sum is, would give 2.0
        values = [1.0, 1e100, 1.0, -1e100]
        monkeypatch.setattr(cli, "_setting_features", lambda merged, interval: {"x": values[merged["seed"]]})
        path = tmp_path / "settings.json"
        path.write_text(json.dumps([{"label": "s", "model": "ba", "m": 2, "n": 10}]))
        out = tmp_path / "t.csv"
        assert run(["compare", "--settings", str(path), "--repeats", "4", "--seed", "0", "--out", str(out)]) == 0
        with open(out) as fh:
            assert list(csv.DictReader(fh)) == [{"setting": "s", "repeats": "4", "x": "0.0"}]

    def test_readme_settings_give_the_recorded_table(self, tmp_path, monkeypatch):
        # the benchmark's compare-readme call at seed 0, whose table's
        # digest is recorded; perfbench checks it on the Linux legs, and
        # this test also on macos, which cannot run perfbench
        with open(DIGESTS) as fh:
            want = json.load(fh)["compare-readme"]["table.csv"]
        monkeypatch.chdir(tmp_path)
        Path("settings.json").write_text(json.dumps([
            {"label": "grouped_lin", "model": "tpa", "m": 3, "schedule": "linear:10:70", "f": "geom:0.8:0.2"},
            {"label": "ba", "model": "ba", "m": 3, "n": 700},
        ]))
        assert run(["compare", "--settings", "settings.json", "--repeats", "10", "--seed", "0",
                    "--interval", "1", "--out", "table.csv"]) == 0
        assert hashlib.sha256(read_bytes("table.csv")).hexdigest() == want

    def test_label_with_a_comma_is_quoted(self, tmp_path):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps([{"label": "ba, m=2", "model": "ba", "m": 2, "n": 60}]))
        out = tmp_path / "t.csv"
        assert run(["compare", "--settings", str(path), "--repeats", "2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith('"ba, m=2",2,')
        with open(out) as fh:
            assert [r["setting"] for r in csv.DictReader(fh)] == ["ba, m=2"]


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

    def test_long_sparse_network_is_cut_to_the_class_grid(self, tmp_path, monkeypatch):
        # a network active for ~10**6 time units beside networks active
        # for 4-10: its class grid ends at the w-max time, 10, and its
        # star vector is evaluated at its event horizons only
        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from oracles import stars_aggregate_brute
        from temponet import evolution, normalize_times

        d = self.make_network_dir(tmp_path, [
            ("a", [5] * 5, 1), ("b", [5] * 8, 2), ("c", [5] * 11, 3),
        ])
        with open(os.path.join(d, "long.txt"), "w") as fh:
            fh.write("0 1 1000\n1 2 1003\n2 3 1006\n0 3 401000\n3 4 1000990\n")
        calls = []
        k_stars_vector = evolution.k_stars_vector

        def counted(g, horizons, k):
            calls.append((len(horizons), g.n_vertices + g.n_edges, g.active_time))
            return k_stars_vector(g, horizons, k)

        monkeypatch.setattr(evolution, "k_stars_vector", counted)
        out = str(tmp_path / "stars.csv")
        assert run(["stars", "--dir", d, "--k", "2", "--w", "2",
                    "--interval", "1", "--out", out]) == 0
        assert len(calls) == 4
        assert all(points <= bound for points, bound, _ in calls)
        assert (4, 10, 999990) in calls  # steps 3, 6, 400000 and 999990 of a 999990-step grid
        with open(out) as fh:
            rows = list(csv.DictReader(fh))

        graphs = [
            normalize_times(cli._load_graph(os.path.join(d, name)))
            for name in ("a.csv", "b.csv", "c.csv", "long.txt")
        ]
        assert {_class_of(g) for g in graphs} == {"slow"}
        horizons = [int(r["t"]) for r in rows]
        assert horizons == list(range(1, 11))
        ref = stars_aggregate_brute(
            [(list(g.join_times), list(g.edges), g.active_time) for g in graphs], 2, horizons,
        )
        assert [int(r["total"]) for r in rows] == ref[0]
        assert [float(r["avg"]) for r in rows] == pytest.approx(ref[1], abs=1e-12)
        assert [float(r["norm_avg"]) for r in rows] == pytest.approx(ref[2], abs=1e-12)

    def test_time_span_past_the_grid_cap_is_a_one_line_error(self, tmp_path, capsys):
        # interval 1 over a 2**31 span: the join-rate grid alone would
        # take 16 GiB, so the run stops before building it or writing
        d = tmp_path / "nets"
        d.mkdir()
        (d / "g.txt").write_text("0 1 0\n1 2 2147483648\n")
        out = str(tmp_path / "stars.csv")
        assert run(["stars", "--dir", str(d), "--k", "1", "--w", "1",
                    "--interval", "1", "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {d / 'g.txt'}: interval 1 gives 2147483650 horizons over the time span;"
            " at most 10000000 are supported\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["nets"]
        assert os.listdir(d) == ["g.txt"]

    @pytest.mark.parametrize("w", [1, 3])
    def test_a_network_fault_ends_the_run_at_that_network(self, tmp_path, capsys, w):
        # a.txt's own fault is raised at a.txt, naming it, whatever w: the
        # unreadable b.txt after it gets no notice, and nothing is written
        d = tmp_path / "nets"
        d.mkdir()
        (d / "a.txt").write_text("0 1 0\n1 2 2147483648\n")  # refused by its join-rate grid
        (d / "b.txt").write_text("a b c\n")
        (d / "c.txt").write_text(GRAPH)
        assert run(["stars", "--dir", str(d), "--k", "1", "--w", str(w),
                    "--interval", "1", "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {d / 'a.txt'}: interval 1 gives 2147483650 horizons over the time span;"
            " at most 10000000 are supported\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["nets"]

    def test_output_inside_the_directory_is_not_read_back(self, tmp_path, capsys):
        # a rerun leaves its own earlier output out of the listing, as it
        # leaves out sidecars and manifests, whatever path spells it
        d = self.make_network_dir(tmp_path, [("a", [5] * 5, 1), ("b", [5] * 8, 2)])
        written = []
        for out in (os.path.join(d, "stars.csv"), os.path.join(d, os.pardir, "nets", "stars.csv")):
            assert run(["stars", "--dir", d, "--k", "2", "--w", "1", "--interval", "1", "--out", out]) == 0
            written.append((read_bytes(out), capsys.readouterr().err))
        assert written[0] == written[1] and written[0][0].count(b"\n") > 1

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

    def test_no_readable_network_fails(self, tmp_path, capsys):
        d = tmp_path / "nets"
        d.mkdir()
        (d / "x.txt").write_text("a b c\n")
        assert run(["stars", "--dir", str(d), "--k", "1", "--w", "1",
                    "--interval", "1", "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.endswith("error: no readable networks in directory\n")
        assert sorted(os.listdir(tmp_path)) == ["nets"]

    def test_w_exceeding_a_class_fails(self, tmp_path, capsys):
        # one fast (polynomial, vibrancy 0.71) and one slow (sigmoidal, 0.29) network
        from temponet import make_schedule

        d = self.make_network_dir(tmp_path, [
            ("fast", make_schedule("polynomial", 2, 5), 1),
            ("slow", make_schedule("sigmoidal", 2, 5), 1),
        ])
        assert run(["stars", "--dir", d, "--k", "1", "--w", "2",
                    "--interval", "1", "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == "error: w=2 exceeds fast class size 1\n"
        assert sorted(os.listdir(tmp_path)) == ["nets"]

    def test_class_too_short_for_the_interval_writes_no_rows(self, tmp_path, capsys):
        d = tmp_path / "nets"
        d.mkdir()
        (d / "g.txt").write_text("0 1 0\n1 2 2\n2 3 3\n")  # active for 3 time units
        out = tmp_path / "s.csv"
        assert run(["stars", "--dir", str(d), "--k", "1", "--w", "1",
                    "--interval", "10", "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "notice: no fast networks\nnotice: slow networks too short for interval\n"
        )
        assert out.read_text() == ""

    @pytest.mark.parametrize("threshold, label", [("inf", "slow"), ("-inf", "fast")])
    def test_infinite_threshold_puts_every_network_in_one_class(self, tmp_path, capsys, threshold, label):
        d = self.make_network_dir(tmp_path, [("a", [5] * 5, 1), ("b", [5] * 8, 2)])
        out = tmp_path / "s.csv"
        assert run(["stars", "--dir", d, "--k", "1", "--w", "1", "--interval", "1",
                    f"--threshold={threshold}", "--out", str(out)]) == 0
        other = {"fast": "slow", "slow": "fast"}[label]
        assert capsys.readouterr().err == f"notice: no {other} networks\n"
        with open(out) as fh:
            assert {row["class"] for row in csv.DictReader(fh)} == {label}
        # strict JSON: the infinity is recorded as a string
        manifest = json.loads(read_bytes(f"{out}.manifest.json"), parse_constant=refuse_constant)
        assert manifest["params"]["threshold"] == threshold

    def test_finite_threshold_stays_a_number(self, tmp_path):
        d = self.make_network_dir(tmp_path, [("a", [5] * 5, 1)])
        out = tmp_path / "s.csv"
        assert run(["stars", "--dir", d, "--k", "1", "--w", "1", "--interval", "1",
                    "--threshold", "0.25", "--out", str(out)]) == 0
        text = read_bytes(f"{out}.manifest.json").decode()
        assert '"threshold": 0.25,' in text
        assert json.loads(text, parse_constant=refuse_constant)["params"]["threshold"] == 0.25

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

    @pytest.mark.parametrize("files, notice", [
        ({"bad.txt": path_stream(2**64)}, f"line 1: fields must lie in the int64 range: '0 1 {2**64}'"),
        # a sidecar-backed self-loop, whatever the sidecar's key says
        ({"bad.csv": "0,0,0\n", "bad.csv.meta.json": json.dumps({**_META, "allow_self_loops": True})},
         "self-loops are not allowed in this graph"),
        ({"bad.csv": "0,1,0\n", "bad.csv.meta.json": json.dumps({**_META, "directed": True})},
         "{bad}.meta.json: directed graphs are not supported"),
    ], ids=["past_int64", "sidecar_self_loop", "sidecar_directed"])
    def test_a_refused_file_is_skipped_with_a_notice(self, tmp_path, capsys, files, notice):
        # the rest of the directory aggregates as it does alone
        runs = []
        for name, present in (("mixed", {**files, "raw.txt": path_stream(0)}),
                              ("plain", {"raw.txt": path_stream(0)})):
            d = tmp_path / name
            d.mkdir()
            for file_name, text in present.items():
                (d / file_name).write_text(text)
            out = str(tmp_path / f"{name}.csv")
            assert run(["stars", "--dir", str(d), "--k", "2", "--w", "1",
                        "--interval", "1", "--out", out]) == 0
            runs.append((read_bytes(out), capsys.readouterr().err))
        (mixed, mixed_err), (plain, plain_err) = runs
        assert mixed == plain and mixed.count(b"\n") == 30
        bad = tmp_path / "mixed" / min(files)
        assert mixed_err == f"notice: skipping {bad}: {notice.format(bad=bad)}\n" + plain_err

    def test_a_directory_of_files_past_int64_has_no_readable_network(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text("0 1 0\n1 2 9223372036854775812\n")
        assert run(["stars", "--dir", str(tmp_path), "--k", "1", "--w", "1", "--interval", "1",
                    "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            f"notice: skipping {tmp_path}/g.txt: line 2: fields must lie in the int64 range:"
            " '1 2 9223372036854775812'\nerror: no readable networks in directory\n"
        )
        assert os.listdir(tmp_path) == ["g.txt"]  # nothing written

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


class TestAtomicWrites:
    """An output write that fails midway leaves no partial file behind
    and an older file of the same name as it was."""

    @staticmethod
    def broken_dump(obj, fh, **kwargs):
        fh.write("[partial")
        raise OSError("disk full")

    @staticmethod
    def broken_writer(fh, _writer=csv.writer):
        """A CSV writer that writes the header row, then fails."""
        def writerows(rows):
            raise OSError("disk full")
        return types.SimpleNamespace(writerow=_writer(fh).writerow, writerows=writerows)

    @pytest.mark.parametrize("old", [None, "old contents\n"])
    @pytest.mark.parametrize("target, fmt, breaks", [
        ("o.json", "json", "dump"),  # rows as json
        ("o.csv", "csv", "writerow"),  # rows as csv, after the header row
        ("o.csv.manifest.json", "csv", "dump"),  # the manifest, after the rows
    ])
    def test_failed_write_keeps_target(self, tmp_path, monkeypatch, capsys, old, target, fmt, breaks):
        (tmp_path / "g.txt").write_text(GRAPH)
        if old is not None:
            (tmp_path / target).write_text(old)
        before = sorted(os.listdir(tmp_path))
        if breaks == "dump":
            monkeypatch.setattr(cli.json, "dump", self.broken_dump)
        else:
            monkeypatch.setattr(cli.csv, "writer", self.broken_writer)
        out = tmp_path / ("o." + fmt)
        assert run(["analyze", "--in", str(tmp_path / "g.txt"), "--interval", "1",
                    "--format", fmt, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        if old is None:
            assert not (tmp_path / target).exists()
        else:
            assert (tmp_path / target).read_text() == old
        # only a completed rows file is new; no temporary file is left
        finished = ["o.csv"] if target == "o.csv.manifest.json" else []
        assert sorted(os.listdir(tmp_path)) == sorted(set(before) | set(finished))


class TestOutputPaths:
    """An output, sidecar or manifest path that is an existing directory
    is refused before anything is written."""

    COMMANDS = {
        "generate": ("generate --model ba --m 2 --n 20 --out {out}", [".meta.json"]),
        "analyze": ("analyze --in {d}/g.txt --interval 1 --out {out}", []),
        "compare": ("compare --settings {d}/s.json --repeats 1 --out {out}", []),
        "stars": ("stars --dir {d}/nets --k 1 --w 1 --interval 1 --out {out}", []),
    }

    @pytest.mark.parametrize("command, suffix", [
        (command, suffix)
        for command, (_, sidecars) in COMMANDS.items()
        for suffix in ["", *sidecars, ".manifest.json"]
    ])
    def test_directory_in_the_way_is_refused_first(self, tmp_path, capsys, command, suffix):
        (tmp_path / "g.txt").write_text(GRAPH)
        (tmp_path / "s.json").write_text('[{"model": "ba", "m": 2, "n": 20}]')
        (tmp_path / "nets").mkdir()
        (tmp_path / "nets" / "g.txt").write_text(GRAPH)
        out = tmp_path / "o.csv"
        blocked = tmp_path / ("o.csv" + suffix)
        blocked.mkdir()
        before = sorted(os.listdir(tmp_path))
        argv, _ = self.COMMANDS[command]
        assert run(argv.format(d=tmp_path, out=out).split()) == 1
        assert capsys.readouterr().err == f"error: cannot write {blocked}: it is a directory\n"
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(blocked) == []


class TestFreedHeap:
    """cli.main keeps glibc's freed heap mapped, once per process, where
    libc has ``mallopt``; the outputs do not depend on it."""

    @pytest.fixture(autouse=True)
    def untuned(self):
        cli._keep_freed_heap.cache_clear()
        yield
        cli._keep_freed_heap.cache_clear()  # the next main tunes the real libc

    @staticmethod
    def counting_libc(calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        def open_libc(name):
            calls.append(("open", name))
            return types.SimpleNamespace(mallopt=mallopt)

        return open_libc, mallopt

    @staticmethod
    def generate(out):
        return run(["generate", "--model", "ba", "--m", "2", "--n", "60", "--seed", "3", "--out", out])

    def test_tuning_runs_once_per_process(self, tmp_path, monkeypatch):
        calls = []
        open_libc, mallopt = self.counting_libc(calls)
        monkeypatch.setattr(ctypes, "CDLL", open_libc)
        for i in range(3):
            assert self.generate(str(tmp_path / f"g{i}.csv")) == 0
        keep = cli._HEAP_KEEP
        assert calls == [("open", None), (cli._M_MMAP_THRESHOLD, keep), (cli._M_TRIM_THRESHOLD, keep)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int

    @staticmethod
    def no_mallopt(name):
        return types.SimpleNamespace()  # macOS: libc has no mallopt

    @staticmethod
    def no_libc(name):
        raise OSError("cannot open the process's libc")

    @staticmethod
    def no_process_libc(name):
        raise TypeError("expected str, not NoneType")  # Windows: CDLL(None)

    @pytest.mark.parametrize("libc", ["no_mallopt", "no_libc", "no_process_libc"])
    def test_without_mallopt_main_writes_the_same_files(self, tmp_path, monkeypatch, libc):
        (tmp_path / "nets").mkdir()
        (tmp_path / "nets" / "g.txt").write_text(path_stream(1000))
        written = {}
        for side in ("tuned", libc):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            if side == libc:
                cli._keep_freed_heap.cache_clear()
                monkeypatch.setattr(ctypes, "CDLL", getattr(self, libc))
            assert self.generate("g.csv") == 0
            assert run(["stars", "--dir", "../nets", "--k", "2", "--w", "1",
                        "--interval", "1", "--out", "s.csv"]) == 0
            written[side] = {name: read_bytes(name) for name in sorted(os.listdir("."))}
        assert len(written["tuned"]) == 5 and written[libc] == written["tuned"]

    def test_stars_and_compare_outputs_do_not_depend_on_it(self, tmp_path):
        # a process of its own per side: the tuning cannot be undone in one
        from temponet import TimeDiffFn, TpaParams, make_schedule, tpa_generate

        nets = tmp_path / "nets"
        nets.mkdir()
        for i, kind in enumerate(["polynomial", "sigmoidal"] * 2):
            g = tpa_generate(TpaParams(m=3, schedule=make_schedule(kind, 5, 12),
                                       f=TimeDiffFn.geometric(0.8, 0.2), seed=i))
            records = [[u, v, t + 1000 * (i + 1)] for u, v, t in g.edges]
            records += [[b, a, t + 1] for a, b, t in records[::10]]
            random.Random(i).shuffle(records)
            (nets / f"s{i}.txt").write_text("".join(f"{u} {v} {t}\n" for u, v, t in records))
        (tmp_path / "settings.json").write_text(json.dumps([
            {"label": "grouped_lin", "model": "tpa", "m": 3, "schedule": "linear:10:70", "f": "geom:0.8:0.2"},
            {"label": "ba", "model": "ba", "m": 3, "n": 700},
        ]))
        commands = [
            ["stars", "--dir", "../nets", "--k", "5", "--w", "1", "--interval", "1", "--out", "s.csv"],
            ["compare", "--settings", "../settings.json", "--repeats", "2", "--out", "c.csv"],
        ]
        env = {**os.environ, "PYTHONPATH": SRC}
        written = {}
        for side, patch in (("tuned", ""), ("untuned", "cli._keep_freed_heap = lambda: None")):
            (tmp_path / side).mkdir()
            code = f"import sys\nfrom temponet import cli\n{patch}\nsys.exit(sum(cli.main(a) for a in {commands!r}))"
            subprocess.run([sys.executable, "-c", code], cwd=tmp_path / side, env=env,
                           check=True, capture_output=True, timeout=120)
            written[side] = {name: read_bytes(tmp_path / side / name)
                             for name in sorted(os.listdir(tmp_path / side))}
        assert sorted(written["tuned"]) == ["c.csv", "c.csv.manifest.json", "s.csv", "s.csv.manifest.json"]
        assert written["untuned"] == written["tuned"]
        assert written["tuned"]["s.csv"].count(b"\n") > 1


def test_cli_imports_neither_scipy_nor_networkx(tmp_path):
    # numpy is the one runtime dependency; scipy and networkx are test
    # oracles. Every command runs (generate for every model, analyze on a
    # sidecar file, a raw stream and a deep network whose BFS levels take
    # both the dense and the sparse step, compare and stars) and neither
    # module is loaded after, whether imported eagerly, lazily or guarded
    (tmp_path / "nets").mkdir()
    (tmp_path / "nets" / "raw.txt").write_text(path_stream(1000))
    (tmp_path / "settings.json").write_text(json.dumps([
        {"label": "grouped_lin", "model": "tpa", "m": 3, "schedule": "linear:10:30", "f": "geom:0.8:0.2"},
        {"label": "ba", "model": "ba", "m": 3, "n": 100},
    ]))
    commands = [
        "generate --model tpa --m 3 --schedule 100,200,400 --f exp2 --seed 7 --out nets/tpa.csv",
        "generate --model tpa --m 3 --schedule linear:10:100 --f geom:0.8:0.2 --seed 7 --out deep.csv",
        "generate --model ba --m 3 --n 100 --seed 7 --out ba.csv",
        "generate --model hk --m 3 --n 100 --p-triangle 0.5 --seed 7 --out hk.csv",
        "generate --model ff --n 100 --p-forward 0.3 --seed 7 --out ff.csv",
        "generate --model ws --n 100 --k 4 --p 0.1 --seed 7 --out ws.csv",
        "generate --model nw --n 100 --k 4 --p 0.1 --seed 7 --out nw.csv",
        "analyze --in nets/tpa.csv --interval 1 --out tpa_features.csv",
        "analyze --in nets/raw.txt --interval 1 --out raw_features.csv",
        "analyze --in deep.csv --interval 10 --out deep_features.csv",
        "compare --settings settings.json --repeats 2 --out table.csv",
        "stars --dir nets --k 5 --w 1 --interval 1 --out stars.csv",
    ]
    code = ("import sys\nfrom temponet import cli\n"
            f"failed = [argv for argv in {commands!r} if cli.main(argv.split())]\n"
            "print(failed, sorted({'scipy', 'networkx'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1:] == ["[] []"], done.stderr
    for argv in commands:
        out = argv.split()[-1]
        assert os.path.getsize(tmp_path / out) > 0 and os.path.exists(tmp_path / f"{out}.manifest.json")
