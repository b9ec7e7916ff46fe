"""In-memory spans around the calls into temponet's modules.

:meth:`Tracer.install` wraps every public function of the traced modules and
the constructor and public methods of ``TemporalGraph``, then rebinds each
wrapper wherever a temponet module bound the original by name: ``cli`` does
``from .metrics import compute_features``, so patching ``metrics`` alone would
miss its calls. :meth:`Tracer.uninstall` puts the originals back, so untraced
passes run the unmodified program.

Private helpers (``_undirected_simple_csr``, ``_mean_bfs_distance``,
``_validate``) are not wrapped; their time is part of their caller's self
time. ``fitting`` is on no CLI path and is not traced. In ``cli`` only
``main`` is wrapped, so ``cli.self_s`` is argparse, manifests and row writing.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("generators", "temporal_graph", "metrics", "evolution", "ingest")
GRAPH_METHODS = ("__init__", "snapshot_at", "snapshot_series", "degree_at", "degrees_at")
_RECORD_LINE = re.compile(rb"^[ \t]*[^#\s]", re.M)


def _file_bytes(path: str) -> int:
    return os.path.getsize(path) + os.path.getsize(path + ".meta.json")


def _count_records(source) -> int:
    # Lines read_edge_stream parses, counted outside its span from the file
    # it was handed; the CLI always passes an open file.
    name = getattr(source, "name", None)
    if not isinstance(name, str):
        return 0
    with open(name, "rb") as fh:
        return len(_RECORD_LINE.findall(fh.read()))


def _count_generated(counts, args, result):
    counts["generators.edges_placed"] += result.n_edges
    counts["generators.edges_skipped"] += result.info.get("skipped_edges", 0)


def _count_ingested(counts, args, result):
    counts["ingest.records_in"] += _count_records(args[0])
    counts["ingest.edges_kept"] += result.n_edges


# Counters taken at a span's boundary from its arguments and result.
COUNTERS = {
    "temporal_graph.construct": lambda c, a, r: c.update({"temporal_graph.edges_constructed": len(a[0].edges)}),
    "temporal_graph.write_edge_list": lambda c, a, r: c.update({"temporal_graph.write_bytes": _file_bytes(str(a[1]))}),
    "metrics.avg_shortest_path": lambda c, a, r: c.update({"metrics.avg_shortest_path.vertices": a[0].n_vertices}),
    "evolution.jrc": lambda c, a, r: c.update({"evolution.jrc.samples": len(r.samples)}),
    "generators.tpa_generate": _count_generated,
    "generators.baseline_generate": _count_generated,
    "ingest.read_edge_stream": _count_ingested,
}


class Tracer:
    """Spans ``[id, parent_id, op, name, start, end]`` and counters of one pass.

    ``op`` is the index of the CLI invocation the span belongs to; the
    benchmark sets it before each invocation.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.op, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "temponet" or n.startswith("temponet.")]
        targets = {}  # original function -> span name
        for layer in LAYERS:
            module = sys.modules[f"temponet.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    targets[obj] = f"{layer}.{attr}"
        cli = sys.modules["temponet.cli"]
        targets[cli.main] = "cli"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        graph = sys.modules["temponet.temporal_graph"].TemporalGraph
        for attr in GRAPH_METHODS:
            name = "temporal_graph." + ("construct" if attr == "__init__" else attr)
            self._patch(graph, attr, self._wrap(name, vars(graph)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: inclusive seconds, self seconds and call count.
        Self time is a span minus its child spans."""
        inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
        children = defaultdict(float)
        for _, parent, _, name, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        for sid, _, _, name, start, end in self.spans:
            own[name] += end - start - children[sid]
        return inclusive, own, calls

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of ``BENCHMARK.json``; 0 where a layer did
        no work in this workload."""
        s, own, calls = self.totals()
        c = self.counts

        def ratio(part, whole):
            return part / whole if whole else 0.0

        placed, skipped = c["generators.edges_placed"], c["generators.edges_skipped"]
        return {
            "metrics.avg_shortest_path.s": s["metrics.avg_shortest_path"],
            "metrics.avg_shortest_path.calls": calls["metrics.avg_shortest_path"],
            "metrics.avg_shortest_path.vertices": c["metrics.avg_shortest_path.vertices"],
            "metrics.k_stars_set.s": s["metrics.k_stars_set"],
            "metrics.k_stars_set.calls": calls["metrics.k_stars_set"],
            "metrics.k_stars_vector.self_s": own["metrics.k_stars_vector"],
            "temporal_graph.degrees_at.self_s": own["temporal_graph.degrees_at"],
            "temporal_graph.degrees_at.calls": calls["temporal_graph.degrees_at"],
            "metrics.avg_clustering.s": s["metrics.avg_clustering"],
            "metrics.density.s": s["metrics.density"],
            "metrics.power_law_gamma.s": s["metrics.power_law_gamma"],
            "metrics.compute_features.calls": calls["metrics.compute_features"],
            "ingest.read_edge_stream.self_s": own["ingest.read_edge_stream"],
            "ingest.normalize_times.self_s": own["ingest.normalize_times"],
            "ingest.records_in": c["ingest.records_in"],
            "ingest.edges_kept": c["ingest.edges_kept"],
            "ingest.kept_ratio": ratio(c["ingest.edges_kept"], c["ingest.records_in"]),
            "temporal_graph.construct_s": s["temporal_graph.construct"],
            "temporal_graph.construct_calls": calls["temporal_graph.construct"],
            "temporal_graph.edges_constructed": c["temporal_graph.edges_constructed"],
            "temporal_graph.write_edge_list.s": s["temporal_graph.write_edge_list"],
            "temporal_graph.write_bytes": c["temporal_graph.write_bytes"],
            "temporal_graph.snapshot_at.calls": calls["temporal_graph.snapshot_at"],
            "generators.tpa_generate.self_s": own["generators.tpa_generate"],
            "generators.baseline_generate.self_s": own["generators.baseline_generate"],
            "generators.edges_placed": placed,
            "generators.edges_skipped": skipped,
            "generators.placed_ratio": ratio(placed, placed + skipped),
            "evolution.jrc.s": s["evolution.jrc"],
            "evolution.jrc.samples": c["evolution.jrc.samples"],
            "evolution.vibrancy.s": s["evolution.vibrancy"],
            "evolution.stars_aggregate.self_s": own["evolution.stars_aggregate"],
            "cli.self_s": own["cli"],
            "trace.spans": len(self.spans),
        }
