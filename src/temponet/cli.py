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
import json
import os
import sys

from . import __version__
from .evolution import NetworkCollection, classify_vibrancy, jrc, stars_aggregate, vibrancy, w_max_time
from .generators import TimeDiffFn, TpaParams, baseline_generate, make_schedule, tpa_generate
from .ingest import IngestConfig, StreamRejected, normalize_times, read_edge_stream
from .metrics import compute_features, k_stars_number, k_stars_vector
from .temporal_graph import TemporalGraph, read_edge_list, write_edge_list


def _parse_schedule(text: str) -> list[int]:
    """Accept '100,200,400' literals or 'polynomial:5:8' style shorthands."""
    if ":" in text:
        kind, *args = text.split(":")
        return make_schedule(kind, *(int(a) for a in args))
    return [int(x) for x in text.split(",")]


def _write_manifest(out_path: str, command: str, params: dict, seed, outputs: list[str]):
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "tool_version": __version__,
        "outputs": outputs,
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_graph(path: str) -> TemporalGraph:
    if os.path.exists(path + ".meta.json"):
        return read_edge_list(path)
    with open(path) as fh:
        return read_edge_stream(fh, IngestConfig())


def _generate_graph(model: str, args_dict: dict) -> TemporalGraph:
    model = model.lower()
    seed = args_dict.get("seed", 0)
    if model == "tpa":
        params = TpaParams(
            m=args_dict["m"],
            schedule=args_dict["schedule"],
            f=args_dict["f"],
            seed=seed,
            retry_limit=args_dict.get("retry_limit", 1000),
        )
        return tpa_generate(params)
    n = args_dict["n"]
    extra = {
        key: args_dict[key]
        for key in ("m", "k", "p", "p_triangle", "p_forward")
        if args_dict.get(key) is not None
    }
    return baseline_generate(model, n, seed=seed, **extra)


def cmd_generate(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    model = args.model or cfg.get("model")
    if not model:
        print("error: --model is required (flag or config)", file=sys.stderr)
        return 2
    merged = dict(cfg)
    for key in ("m", "n", "k", "p", "p_triangle", "p_forward", "seed", "retry_limit"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if args.schedule:
        merged["schedule"] = _parse_schedule(args.schedule)
    elif isinstance(merged.get("schedule"), str):
        merged["schedule"] = _parse_schedule(merged["schedule"])
    if args.f:
        merged["f"] = TimeDiffFn.from_config(args.f)
    elif merged.get("f") is not None:
        merged["f"] = TimeDiffFn.from_config(merged["f"])
    merged.setdefault("seed", 0)

    if model.lower() == "tpa" and (merged.get("m") is None or not merged.get("schedule") or merged.get("f") is None):
        print("error: tpa needs --m, --schedule and --f", file=sys.stderr)
        return 2

    graph = _generate_graph(model, merged)
    write_edge_list(graph, args.out)

    params = {k: v for k, v in merged.items() if k not in ("seed", "f")}
    params["model"] = model
    if "f" in merged:
        params["f"] = merged["f"].to_config()
    _write_manifest(args.out, "generate", params, merged["seed"],
                    [args.out, args.out + ".meta.json"])
    skipped = graph.info.get("skipped_edges", 0)
    print(f"vertices={graph.n_vertices} edges={graph.n_edges} skipped={skipped}")
    return 0


def _analysis_rows(graph: TemporalGraph, interval: int, k_values: list[int], x_min: int) -> list[dict]:
    snapshots = graph.snapshot_series(interval)
    # lead with the activation-time snapshot so every interval has a row
    if snapshots and snapshots[0].horizon > graph.t_min:
        snapshots.insert(0, graph.snapshot_at(graph.t_min))
    horizons = [s.horizon for s in snapshots]
    star_vectors = {
        k: k_stars_vector(graph, horizons, k) for k in k_values
    }
    total = graph.n_vertices
    rows = []
    for i, snap in enumerate(snapshots):
        row = {"t": snap.horizon}
        row.update(compute_features(snap, gamma_x_min=x_min).to_dict())
        row["jrc"] = snap.n_vertices / total if total else None
        for k in k_values:
            row[f"new_stars_k{k}"] = star_vectors[k][i]
        rows.append(row)
    return rows


def _write_rows(rows: list[dict], out: str, fmt: str):
    if fmt == "json":
        with open(out, "w") as fh:
            json.dump(rows, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return
    with open(out, "w", newline="") as fh:
        if not rows:
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


def cmd_analyze(args) -> int:
    try:
        graph = _load_graph(args.input)
    except (OSError, ValueError, StreamRejected) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    k_values = [int(x) for x in args.k.split(",")] if args.k else [1, 5]
    rows = _analysis_rows(graph, args.interval, k_values, args.xmin)
    _write_rows(rows, args.out, args.format)
    _write_manifest(
        args.out,
        "analyze",
        {"input": args.input, "interval": args.interval, "k": k_values,
         "xmin": args.xmin, "format": args.format},
        None,
        [args.out],
    )
    print(f"rows={len(rows)} out={args.out}")
    return 0


def _setting_features(setting: dict, seed: int, interval: int) -> dict:
    merged = dict(setting)
    merged["seed"] = seed
    if isinstance(merged.get("schedule"), str):
        merged["schedule"] = _parse_schedule(merged["schedule"])
    if merged.get("f") is not None and not isinstance(merged["f"], TimeDiffFn):
        merged["f"] = TimeDiffFn.from_config(merged["f"])
    graph = _generate_graph(merged["model"], merged)
    x_min = merged.get("xmin") or merged.get("m") or 2
    features = compute_features(graph.snapshot_at(graph.t_end), gamma_x_min=x_min).to_dict()
    horizons = graph.horizons(interval)
    for k in (1, 5):
        features[f"stars_k{k}"] = k_stars_number(k_stars_vector(graph, horizons, k))
    features["vibrancy"] = vibrancy(jrc(graph, interval))
    return features


def cmd_compare(args) -> int:
    if args.repeats <= 0:
        raise ValueError("repeats must be positive")
    with open(args.settings) as fh:
        settings = json.load(fh)
    if not (isinstance(settings, list) and settings and all(isinstance(s, dict) for s in settings)):
        raise ValueError("settings file must hold a non-empty JSON list of objects")
    rows = []
    for idx, setting in enumerate(settings):
        label = setting.get("label", f"setting_{idx}")
        try:
            per_seed = [
                _setting_features(setting, args.seed + r, args.interval)
                for r in range(args.repeats)
            ]
        except (ValueError, KeyError) as exc:
            print(f"warning: {label} aborted: {exc}", file=sys.stderr)
            continue
        keys = [k for k, v in per_seed[0].items() if isinstance(v, (int, float)) or v is None]
        row = {"setting": label, "repeats": args.repeats}
        for key in keys:
            values = [p[key] for p in per_seed if p[key] is not None]
            row[key] = sum(values) / len(values) if values else None
        rows.append(row)
    _write_rows(rows, args.out, args.format)
    _write_manifest(
        args.out,
        "compare",
        {"settings": args.settings, "repeats": args.repeats,
         "interval": args.interval, "format": args.format},
        args.seed,
        [args.out],
    )
    print(f"settings={len(rows)}/{len(settings)} out={args.out}")
    return 0


def cmd_stars(args) -> int:
    paths = sorted(
        os.path.join(args.dir, name)
        for name in os.listdir(args.dir)
        if not name.endswith(".meta.json") and not name.endswith(".manifest.json")
    )
    graphs = []
    for path in paths:
        if not os.path.isfile(path):
            print(f"notice: skipping {path}: not a regular file", file=sys.stderr)
            continue
        try:
            # zero-base every network so horizon grids align across the set
            graphs.append(normalize_times(_load_graph(path)))
        except (ValueError, StreamRejected) as exc:
            print(f"notice: skipping {path}: {exc}", file=sys.stderr)
    if not graphs:
        print("error: no readable networks in directory", file=sys.stderr)
        return 1
    if args.w > len(graphs):
        print(f"error: w={args.w} exceeds network count {len(graphs)}", file=sys.stderr)
        return 1

    classes: dict[str, list] = {"fast": [], "slow": []}
    for g in graphs:
        label = classify_vibrancy(vibrancy(jrc(g, args.interval)), args.threshold)
        classes[label].append(g)

    rows = []
    for label in ("fast", "slow"):
        members = classes[label]
        if not members:
            print(f"notice: no {label} networks", file=sys.stderr)
            continue
        if args.w > len(members):
            print(f"error: w={args.w} exceeds {label} class size {len(members)}", file=sys.stderr)
            return 1
        collection = NetworkCollection.from_graphs(members, args.interval)
        cap = w_max_time(collection, args.w)
        horizons = list(range(args.interval, cap + 1, args.interval))
        if not horizons:
            print(f"notice: {label} networks too short for interval", file=sys.stderr)
            continue
        total, avg, norm_avg = stars_aggregate(collection, args.k, args.w, horizons)
        for i, t in enumerate(horizons):
            rows.append({
                "class": label, "t": t, "networks": len(members),
                "total": total[i], "avg": avg[i], "norm_avg": norm_avg[i],
            })
    _write_rows(rows, args.out, args.format)
    _write_manifest(
        args.out,
        "stars",
        {"dir": args.dir, "k": args.k, "w": args.w, "interval": args.interval,
         "threshold": args.threshold, "format": args.format},
        None,
        [args.out],
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
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="per-horizon feature table for one network")
    ana.add_argument("--in", dest="input", required=True)
    ana.add_argument("--interval", type=int, required=True)
    ana.add_argument("--k", help="comma list of star sizes (default 1,5)")
    ana.add_argument("--xmin", type=int, default=2, help="tail start for the degree exponent")
    ana.add_argument("--out", required=True)
    ana.add_argument("--format", choices=("csv", "json"), default="csv")
    ana.set_defaults(func=cmd_analyze)

    cmp_ = sub.add_parser("compare", help="averaged feature table over many settings")
    cmp_.add_argument("--settings", required=True, help="JSON list of generator settings")
    cmp_.add_argument("--repeats", type=int, default=10)
    cmp_.add_argument("--seed", type=int, default=0, help="base seed; repeat r uses base+r")
    cmp_.add_argument("--interval", type=int, default=1)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--format", choices=("csv", "json"), default="csv")
    cmp_.set_defaults(func=cmd_compare)

    st = sub.add_parser("stars", help="star-emergence vectors per vibrancy class")
    st.add_argument("--dir", required=True, help="directory of edge-list files")
    st.add_argument("--k", type=int, required=True)
    st.add_argument("--w", type=int, required=True)
    st.add_argument("--interval", type=int, required=True)
    st.add_argument("--threshold", type=float, default=0.5)
    st.add_argument("--out", required=True)
    st.add_argument("--format", choices=("csv", "json"), default="csv")
    st.set_defaults(func=cmd_stars)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, OverflowError, StreamRejected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
