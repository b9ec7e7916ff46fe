"""Command-line driver for reproducible generation and analysis runs.

Every command writes its outputs plus a manifest JSON recording the
resolved parameters, seed, and tool version; re-running with the same
parameters reproduces the outputs byte for byte. Repeat seeds derive
from the base seed as ``base_seed + r``, so published manifests
reproduce averaged tables exactly.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .evolution import (
    classify_vibrancy,
    jrc,
    sparse_star_vector,
    stars_aggregate,
    vibrancy,
)
from .generators import TimeDiffFn, TpaParams, baseline_generate, make_schedule, tpa_generate
from .ingest import normalize_times, read_edge_stream
from .metrics import _ordered_sum, compute_features, k_stars_number, k_stars_vectors
from .temporal_graph import _META_SUFFIX, TemporalGraph, _positive, _replacing, read_edge_list, write_edge_list

_INT_KEYS = ("m", "n", "k", "seed", "retry_limit", "xmin")
_REAL_KEYS = ("p", "p_triangle", "p_forward")
_STAR_SIZES = (1, 5)  # analyze's default --k, and compare's stars_k<k> columns
# glibc's mallopt parameters (malloc.h), and the value given to both: a
# block of up to 32 MiB, the most glibc takes and the ceiling of its own
# adaptive threshold, comes from the heap, and up to 32 MiB of freed heap
# stays mapped. A 64 MiB trim threshold raised peak RSS by a fifth on
# 60k-vertex streams (README.md, CLI).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_KEEP = 32 * 2**20


def _read_text(name: str, text: str, parse):
    """``parse(text)``, whose ``ValueError`` is raised again naming the
    flag or key ``name`` and the ``text`` it could not read."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{name} {text!r}: {exc}") from None


def _require_positive(**values) -> None:
    """Refuse the first of ``values`` below 1, naming it."""
    for name, value in values.items():
        _positive(name, value)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _load_json(path: str):
    """The JSON document in the file ``path``; an error names the file.
    ``NaN`` and ``Infinity``, which strict JSON lacks, are refused, so
    no such value reaches a manifest."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_refuse_constant)
        except ValueError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None


def _parse_schedule(text: str) -> list[int]:
    """Accept '100,200,400' literals or 'polynomial:5:8' style shorthands."""
    if ":" in text:
        kind, *args = text.split(":")
        return make_schedule(kind, *(int(a) for a in args))
    return _int_list(text)


def _int_list(text: str) -> list[int]:
    """A comma list of integers."""
    return [int(x) for x in text.split(",")]


def _write_manifest(args, params: dict, seed):
    manifest = {
        "command": args.command,
        "params": params,
        "seed": seed,
        "tool_version": __version__,
        "outputs": [args.out + suffix for suffix in args.out_suffixes],
    }
    with _replacing(args.out + ".manifest.json") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _load_graph(path: str) -> TemporalGraph:
    if os.path.exists(path + _META_SUFFIX):
        return read_edge_list(path)
    with open(path, errors="surrogateescape") as fh:
        return read_edge_stream(fh)


def _resolve_setting(setting, **overrides) -> dict:
    """One generator setting, for ``generate`` and ``compare`` alike: a
    JSON object, updated by ``overrides``, whose integer and real
    parameters have those types (bools excluded), whose ``schedule``
    and ``f`` are parsed from their string or object forms, and whose
    ``seed`` is 0 unless given."""
    if not isinstance(setting, dict):
        raise ValueError("a generator setting must be a JSON object")
    merged = {"seed": 0, **setting, **overrides}
    if not isinstance(merged.get("model", ""), str):
        raise ValueError("model must be a string")
    for key in _INT_KEYS:
        if key in merged and type(merged[key]) is not int:
            raise ValueError(f"{key} must be an integer, not {merged[key]!r}")
    for key in _REAL_KEYS:
        if key in merged and type(merged[key]) not in (int, float):
            raise ValueError(f"{key} must be a number, not {merged[key]!r}")
    flag = {key: f"--{key}" for key in overrides}  # how an error names a key
    if "schedule" in merged:
        schedule = merged["schedule"]
        if isinstance(schedule, str):
            merged["schedule"] = _read_text(flag.get("schedule", "schedule"), schedule, _parse_schedule)
        elif not (isinstance(schedule, list) and all(type(x) is int for x in schedule)):
            raise ValueError(f"schedule must be a string or a list of integers, not {schedule!r}")
    if isinstance(merged.get("f"), str):
        merged["f"] = _read_text(flag.get("f", "f"), merged["f"], TimeDiffFn.from_config)
    elif "f" in merged:
        merged["f"] = TimeDiffFn.from_config(merged["f"])
    return merged


def _generate_graph(setting: dict) -> TemporalGraph:
    """The graph of one resolved setting; a setting that names no model,
    or lacks a key its model needs, is refused naming the key."""
    if "model" not in setting:
        raise ValueError("setting is missing parameter 'model'")
    model = setting["model"].lower()
    for key in ("m", "schedule", "f") if model == "tpa" else ("n",):
        if key not in setting:
            raise ValueError(f"model {model!r} is missing parameter {key!r}")
    if model == "tpa":
        keys = ("m", "schedule", "f", "seed", "retry_limit")
        return tpa_generate(TpaParams(**{key: setting[key] for key in keys if key in setting}))
    extra = {key: setting[key] for key in ("m", "k", "p", "p_triangle", "p_forward") if key in setting}
    return baseline_generate(model, setting["n"], seed=setting["seed"], **extra)


def cmd_generate(args) -> int:
    cfg = _load_json(args.config) if args.config is not None else {}
    flags = {
        key: getattr(args, key)
        for key in ("model", *_INT_KEYS, *_REAL_KEYS, "schedule", "f")
        if getattr(args, key, None) is not None
    }
    setting = _resolve_setting(cfg, **flags)
    graph = _generate_graph(setting)
    write_edge_list(graph, args.out)

    params = {k: v for k, v in setting.items() if k not in ("seed", "f")}
    if "f" in setting:
        params["f"] = setting["f"].to_config()
    _write_manifest(args, params, setting["seed"])
    skipped = graph.info.get("skipped_edges", 0)
    print(f"vertices={graph.n_vertices} edges={graph.n_edges} skipped={skipped}")
    return 0


def _analysis_rows(graph: TemporalGraph, interval: int, k_values: list[int], x_min: int) -> list[dict]:
    horizons = graph.horizons(interval)
    # lead with the activation time so every interval has a row
    if horizons and horizons[0] > graph.t_min:
        horizons.insert(0, graph.t_min)
    star_vectors = dict(zip(k_values, k_stars_vectors(graph, horizons, k_values)))
    # snapshots are nested prefixes, so a row's snapshot is the one of the
    # row before unless a join or an edge falls between their horizons;
    # the first join falls at row 0
    changed = np.zeros(len(horizons), dtype=bool)
    changed[np.searchsorted(horizons, np.concatenate([graph.join, graph.t]))] = True
    rows = []
    for i, (horizon, new) in enumerate(zip(horizons, changed.tolist())):
        if new:
            features = compute_features(graph.snapshot_at(horizon), gamma_x_min=x_min)
        row = {"t": horizon, **features}
        # joined at or before t; evolution.jrc counts strictly before t_min + t
        row["jrc"] = row["vertices"] / graph.n_vertices
        # new stars count from the stars at the first arrival, row 0, as
        # on a zero-based network. The vectors count from the stars at
        # time 0, none where the network starts later; the stars seen
        # after row 0 are the same either way, so only row 0 differs
        for k in k_values:
            row[f"new_stars_k{k}"] = star_vectors[k][i] if i else 0
        rows.append(row)
    return rows


def _write_rows(rows: list[dict], out: str, fmt: str):
    if fmt == "json":
        with _replacing(out) as fh:
            json.dump(rows, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return
    with _replacing(out, newline="") as fh:
        if rows:  # every row has the first row's keys, in its order
            writer = csv.writer(fh)  # writes None as an empty cell
            writer.writerow(rows[0].keys())
            writer.writerows(map(dict.values, rows))


def cmd_analyze(args) -> int:
    k_values = _read_text("--k", args.k, _int_list) if args.k is not None else _STAR_SIZES
    _require_positive(interval=args.interval, k=min(k_values), x_min=args.xmin)
    try:
        graph = _load_graph(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    rows = _analysis_rows(graph, args.interval, k_values, args.xmin)
    _write_rows(rows, args.out, args.format)
    _write_manifest(
        args,
        {"input": args.input, "interval": args.interval, "k": k_values,
         "xmin": args.xmin, "format": args.format},
        None,
    )
    print(f"rows={len(rows)} out={args.out}")
    return 0


def _setting_features(merged: dict, interval: int) -> dict:
    graph = _generate_graph(merged)
    x_min = merged.get("xmin", merged.get("m", 2))
    features = compute_features(graph, gamma_x_min=x_min)
    horizons = graph.horizons(interval)
    for k, vector in zip(_STAR_SIZES, k_stars_vectors(graph, horizons, _STAR_SIZES)):
        features[f"stars_k{k}"] = k_stars_number(vector)
    features["vibrancy"] = vibrancy(jrc(graph, interval))
    return features


def cmd_compare(args) -> int:
    _require_positive(repeats=args.repeats, interval=args.interval)
    settings = _load_json(args.settings)
    if not (isinstance(settings, list) and settings and all(isinstance(s, dict) for s in settings)):
        raise ValueError("settings file must hold a non-empty JSON list of objects")
    resolved = []
    for idx, setting in enumerate(settings):
        try:
            resolved.append(_resolve_setting(setting))
        except ValueError as exc:
            raise ValueError(f"setting {idx}: {exc}") from None
    rows = []
    for idx, (setting, merged) in enumerate(zip(settings, resolved)):
        label = setting.get("label", f"setting_{idx}")
        try:
            per_seed = [
                _setting_features({**merged, "seed": args.seed + r}, args.interval)
                for r in range(args.repeats)
            ]
        except (ValueError, KeyError) as exc:
            print(f"warning: {label} aborted: {exc}", file=sys.stderr)
            continue
        row = {"setting": label, "repeats": args.repeats}
        for key in per_seed[0]:
            values = [p[key] for p in per_seed if p[key] is not None]
            row[key] = _ordered_sum(values) / len(values) if values else None
        rows.append(row)
    _write_rows(rows, args.out, args.format)
    _write_manifest(
        args,
        {"settings": args.settings, "repeats": args.repeats,
         "interval": args.interval, "format": args.format},
        args.seed,
    )
    print(f"settings={len(rows)}/{len(settings)} out={args.out}")
    return 0


def cmd_stars(args) -> int:
    _require_positive(k=args.k, w=args.w, interval=args.interval)
    if math.isnan(args.threshold):  # it would class every network slow
        raise ValueError("threshold must be a number, not nan")
    out = os.path.realpath(args.out)  # a rerun must not read its own earlier output
    paths = sorted(
        os.path.join(args.dir, name)
        for name in os.listdir(args.dir)
        if not name.endswith((_META_SUFFIX, ".manifest.json"))
        and os.path.realpath(os.path.join(args.dir, name)) != out
    )
    networks = []  # (class, active time, sparse star vector) per readable network
    for path in paths:
        if not os.path.isfile(path):
            print(f"notice: skipping {path}: not a regular file", file=sys.stderr)
            continue
        try:
            # zero-base every network so horizon grids align across the set
            g = normalize_times(_load_graph(path))
        except ValueError as exc:
            print(f"notice: skipping {path}: {exc}", file=sys.stderr)
            continue
        try:
            label = classify_vibrancy(vibrancy(jrc(g, args.interval)), args.threshold)
            vector = sparse_star_vector(g, args.k, args.interval)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        networks.append((label, g.active_time, vector))
        del g  # one network in memory at a time
    if not networks:
        raise ValueError("no readable networks in directory")
    if args.w > len(networks):
        raise ValueError(f"w={args.w} exceeds network count {len(networks)}")

    rows = []
    for label in ("fast", "slow"):
        members = [(active_time, vector) for c, active_time, vector in networks if c == label]
        if not members:
            print(f"notice: no {label} networks", file=sys.stderr)
            continue
        if args.w > len(members):
            raise ValueError(f"w={args.w} exceeds {label} class size {len(members)}")
        total, avg, norm_avg = stars_aggregate(members, args.w, args.interval)
        if not total:
            print(f"notice: {label} networks too short for interval", file=sys.stderr)
            continue
        for i in range(len(total)):
            rows.append({
                "class": label, "t": (i + 1) * args.interval, "networks": len(members),
                "total": total[i], "avg": avg[i], "norm_avg": norm_avg[i],
            })
    _write_rows(rows, args.out, args.format)
    _write_manifest(
        args,
        {"dir": args.dir, "k": args.k, "w": args.w, "interval": args.interval,
         # strict JSON has no infinities: "inf" or "-inf" stand for them
         "threshold": args.threshold if math.isfinite(args.threshold) else str(args.threshold),
         "format": args.format},
        None,
    )
    print(f"rows={len(rows)} out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temponet",
        description="Generate and analyze networks that grow over time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random network")
    gen.add_argument("--model", help="tpa, ba, ws, nw, hk or ff")
    gen.add_argument("--m", type=int, help="edges per joining vertex")
    gen.add_argument("--n", type=int, help="vertex count (baseline models)")
    gen.add_argument("--k", type=int, help="ring degree (ws/nw)")
    gen.add_argument("--p", type=float, help="rewiring/shortcut probability (ws/nw)")
    gen.add_argument("--p-triangle", dest="p_triangle", type=float, help="triad step probability (hk)")
    gen.add_argument("--p-forward", dest="p_forward", type=float, help="burn probability (ff)")
    gen.add_argument("--schedule", help="sizes '100,200,400' or 'polynomial:5:8'")
    gen.add_argument("--f", help="time weight: 'exp2' or 'geom:0.8:0.2'")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--retry-limit", dest="retry_limit", type=int)
    gen.add_argument("--config", help="JSON config mirroring these flags")
    gen.add_argument("--out", required=True)
    # each command writes <out><suffix> for these suffixes, then <out>.manifest.json
    gen.set_defaults(func=cmd_generate, out_suffixes=("", _META_SUFFIX))

    ana = sub.add_parser("analyze", help="per-horizon feature table for one network")
    ana.add_argument("--in", dest="input", required=True)
    ana.add_argument("--interval", type=int, required=True)
    ana.add_argument("--k", help=f"comma list of star sizes (default {','.join(map(str, _STAR_SIZES))})")
    ana.add_argument("--xmin", type=int, default=2, help="tail start for the degree exponent")
    ana.add_argument("--out", required=True)
    ana.add_argument("--format", choices=("csv", "json"), default="csv")
    ana.set_defaults(func=cmd_analyze, out_suffixes=("",))

    cmp_ = sub.add_parser("compare", help="averaged feature table over many settings")
    cmp_.add_argument("--settings", required=True, help="JSON list of generator settings")
    cmp_.add_argument("--repeats", type=int, default=10)
    cmp_.add_argument("--seed", type=int, default=0, help="base seed; repeat r uses base+r")
    cmp_.add_argument("--interval", type=int, default=1)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--format", choices=("csv", "json"), default="csv")
    cmp_.set_defaults(func=cmd_compare, out_suffixes=("",))

    st = sub.add_parser("stars", help="star-emergence vectors per vibrancy class")
    st.add_argument("--dir", required=True, help="directory of edge-list files")
    st.add_argument("--k", type=int, required=True)
    st.add_argument("--w", type=int, required=True)
    st.add_argument("--interval", type=int, required=True)
    st.add_argument("--threshold", type=float, default=0.5)
    st.add_argument("--out", required=True)
    st.add_argument("--format", choices=("csv", "json"), default="csv")
    st.set_defaults(func=cmd_stars, out_suffixes=("",))

    return parser


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed heap mapped for the life of the process, once per
    process: glibc would otherwise hand each network's temporaries back
    to the kernel and fault them in again, zero-filled, for the next.
    Setting either threshold switches off glibc's adaptive ones, so both
    are set. Where libc has no ``mallopt`` (macOS; on Windows there is no
    process-wide libc to open) nothing is done."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        for suffix in (*args.out_suffixes, ".manifest.json"):
            path = args.out + suffix
            if os.path.isdir(path):  # no file can replace it: refuse before writing anything
                raise ValueError(f"cannot write {path}: it is a directory")
        return args.func(args)
    except (OSError, ValueError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
