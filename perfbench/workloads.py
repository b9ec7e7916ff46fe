"""The benchmark's workloads: their inputs, CLI invocations and output checks.

Inputs are made from the seed by :func:`build`, which ``run.py`` runs in a
process of its own (this file as a script), so input generation's memory never
shows in the peak RSS of the process that runs the workload. Every path
handed to the CLI is relative to the workload's work directory: manifests
record those paths, and relative ones keep output bytes, and so their
digests, independent of where the checkout lives.

This module imports temponet only inside :func:`build`; the checks use numpy
and the stdlib, so they do not trust the code they check.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import numpy as np

WORKED = ["--model", "tpa", "--m", "3", "--schedule", "100,200,400", "--f", "exp2"]
GENERATE_CALLS = 300
WORKED_VERTICES = 700
WORKED_EDGE_SLOTS = 2100  # m * vertices: every slot is placed or skipped
STREAM_DIR = "streams"
STREAMS = 12
DUPLICATE_SHARE = 0.1
LOOPS_PER_STREAM = 200
COMPARE_REPEATS = 10
README_SETTINGS = [
    {"label": "grouped_lin", "model": "tpa", "m": 3, "schedule": "linear:10:70", "f": "geom:0.8:0.2"},
    {"label": "ba", "model": "ba", "m": 3, "n": 700},
]


class Invocation:
    """One CLI call: its argv and the files it must write."""

    def __init__(self, argv: list[str], outputs: list[str]):
        self.argv = argv
        self.outputs = outputs


def _manifested(out: str) -> list[str]:
    return [out, out + ".manifest.json"]


def _read_records(path: str) -> np.ndarray:
    """``source,target,timestamp`` records of an edge-list file as an (E, 3) array."""
    return np.loadtxt(path, delimiter=",", comments="#", dtype=np.int64, ndmin=2).reshape(-1, 3)


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- generate-worked -----------------------------------------------------


def _generate_invocations(seed: int) -> list[Invocation]:
    calls = []
    for i in range(GENERATE_CALLS):
        out = f"gen_{i:03d}.csv"
        argv = ["generate", *WORKED, "--seed", str(seed + i), "--out", out]
        calls.append(Invocation(argv, [out, out + ".meta.json", out + ".manifest.json"]))
    return calls


def _check_generate(call: Invocation, stdout: str) -> str | None:
    try:
        printed = dict(field.split("=") for field in stdout.split())
        vertices, edges, skipped = (int(printed[k]) for k in ("vertices", "edges", "skipped"))
    except (KeyError, ValueError):
        return f"unexpected stdout {stdout!r}"
    out = call.outputs[0]
    records = _read_records(out)
    with open(out + ".meta.json") as fh:
        explicit = [int(v) for v in json.load(fh).get("explicit_join_times", {})]
    ids = np.concatenate([records[:, :2].ravel(), np.array(explicit, dtype=np.int64)])
    file_vertices = int(ids.max()) + 1 if len(ids) else 0
    if vertices != WORKED_VERTICES or file_vertices != WORKED_VERTICES:
        return f"{out}: {vertices} vertices printed, {file_vertices} in files, expected {WORKED_VERTICES}"
    if edges + skipped != WORKED_EDGE_SLOTS:
        return f"{out}: edges {edges} + skipped {skipped} != {WORKED_EDGE_SLOTS}"
    if len(records) != edges:
        return f"{out}: {len(records)} records but {edges} edges printed"
    return None


# -- compare-readme ------------------------------------------------------


def _compare_invocations(seed: int) -> list[Invocation]:
    argv = ["compare", "--settings", "settings.json", "--repeats", str(COMPARE_REPEATS),
            "--seed", str(seed), "--interval", "1", "--out", "table.csv"]
    return [Invocation(argv, _manifested("table.csv"))]


def _check_compare(call: Invocation, stdout: str) -> str | None:
    rows = _read_rows("table.csv")
    labels = [r["setting"] for r in rows]
    if labels != [s["label"] for s in README_SETTINGS]:
        return f"table.csv settings {labels}"
    for r in rows:
        if int(r["repeats"]) != COMPARE_REPEATS or float(r["vertices"]) != WORKED_VERTICES:
            return f"table.csv row {r['setting']}: repeats {r['repeats']}, vertices {r['vertices']}"
    return None


# -- stars-streams -------------------------------------------------------


def _stars_invocations(seed: int) -> list[Invocation]:
    argv = ["stars", "--dir", STREAM_DIR, "--k", "5", "--w", "3", "--interval", "1", "--out", "stars.csv"]
    return [Invocation(argv, _manifested("stars.csv"))]


def _check_stars(call: Invocation, stdout: str) -> str | None:
    by_class: dict[str, list[dict]] = {}
    for r in _read_rows("stars.csv"):
        by_class.setdefault(r["class"], []).append(r)
    if sorted(by_class) != ["fast", "slow"]:
        return f"stars.csv classes {sorted(by_class)}, expected fast and slow"
    networks = 0
    for label, rows in by_class.items():
        if [int(r["t"]) for r in rows] != list(range(1, len(rows) + 1)):
            return f"stars.csv {label}: horizons are not 1..{len(rows)}"
        if len({r["networks"] for r in rows}) != 1:
            return f"stars.csv {label}: network count changes across rows"
        networks += int(rows[0]["networks"])
    if networks != STREAMS:
        return f"stars.csv: {networks} networks classified, expected {STREAMS}"
    return None


class Workload:
    def __init__(self, name, invocations, check):
        self.name = name
        self.invocations = invocations
        self.check = check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("generate-worked", _generate_invocations, _check_generate),
        Workload("compare-readme", _compare_invocations, _check_compare),
        Workload("stars-streams", _stars_invocations, _check_stars),
    )
}


# -- input building (runs in its own process) ----------------------------


def _tpa(kind: str, seed: int):
    from temponet import TimeDiffFn, TpaParams, make_schedule, tpa_generate

    return tpa_generate(TpaParams(m=3, schedule=make_schedule(kind, 5, 16),
                                  f=TimeDiffFn.geometric(0.8, 0.2), seed=seed))


def _write_stream(path: str, graph, rng: np.random.Generator) -> None:
    """A raw stream of ``graph``: shuffled records with later duplicates,
    self-loops, permuted vertex ids and a time offset of its own."""
    edges = np.array(graph.edges, dtype=np.int64)
    join = np.array(graph.join_times, dtype=np.int64)
    picked = rng.choice(len(edges), size=int(len(edges) * DUPLICATE_SHARE), replace=False)
    dups = edges[picked].copy()
    flip = rng.random(len(dups)) < 0.5
    dups[flip, 0], dups[flip, 1] = edges[picked][flip, 1], edges[picked][flip, 0]
    dups[:, 2] += rng.integers(1, 4, len(dups))  # later, so dedupe keeps the original
    loop_v = rng.integers(0, len(join), LOOPS_PER_STREAM)
    loop_t = rng.integers(join[loop_v], graph.t_end + 1)
    loops = np.column_stack([loop_v, loop_v, loop_t])
    records = np.concatenate([edges, dups, loops])[rng.permutation(len(edges) + len(dups) + len(loops))]
    perm = rng.permutation(len(join))
    records[:, :2] = perm[records[:, :2]]
    records[:, 2] += rng.integers(1_000, 100_000)
    np.savetxt(path, records, fmt="%d", delimiter=" ")


def build(workload: str, seed: int) -> None:
    """Write the inputs of ``workload`` for ``seed`` into the current directory."""
    import temponet.cli  # noqa: F401  (compiles the bytecode before imports are timed)

    if workload == "compare-readme":
        with open("settings.json", "w") as fh:
            json.dump(README_SETTINGS, fh, indent=2)
    elif workload == "stars-streams":
        os.mkdir(STREAM_DIR)
        for i in range(STREAMS):
            # alternate growth shapes so both vibrancy classes appear
            kind = "polynomial" if i % 2 == 0 else "sigmoidal"
            stream_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            _write_stream(os.path.join(STREAM_DIR, f"s{i:02d}.txt"), _tpa(kind, stream_seed),
                          np.random.default_rng([seed, i]))


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
