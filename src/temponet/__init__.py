"""temponet: generate and analyze networks that grow over time."""

__version__ = "0.1.0"

from .temporal_graph import Snapshot, TemporalGraph, read_edge_list, write_edge_list
from .generators import (
    TimeDiffFn,
    TpaParams,
    baseline_generate,
    group_probabilities,
    make_schedule,
    tpa_generate,
)
from .metrics import (
    FeatureVector,
    avg_clustering,
    avg_shortest_path,
    compute_features,
    density,
    k_stars_number,
    k_stars_set,
    k_stars_vector,
    k_stars_vectors,
    power_law_gamma,
)
from .evolution import (
    Jrc,
    classify_vibrancy,
    join_time_diff_prob,
    jrc,
    sparse_star_vector,
    spearman,
    stars_aggregate,
    vibrancy,
    w_max_time,
)
from .fitting import (
    IllConditionedError,
    SeriesFit,
    fit_exp_decay,
    fit_rational_power,
    fit_rational_quadratic,
    polyfit,
    r_squared,
)
from .ingest import EdgeStreamParseError, normalize_times, read_edge_stream

__all__ = [
    "Snapshot",
    "TemporalGraph",
    "read_edge_list",
    "write_edge_list",
    "TimeDiffFn",
    "TpaParams",
    "baseline_generate",
    "group_probabilities",
    "make_schedule",
    "tpa_generate",
    "FeatureVector",
    "avg_clustering",
    "avg_shortest_path",
    "compute_features",
    "density",
    "k_stars_number",
    "k_stars_set",
    "k_stars_vector",
    "k_stars_vectors",
    "power_law_gamma",
    "Jrc",
    "classify_vibrancy",
    "join_time_diff_prob",
    "jrc",
    "sparse_star_vector",
    "spearman",
    "stars_aggregate",
    "vibrancy",
    "w_max_time",
    "IllConditionedError",
    "SeriesFit",
    "fit_exp_decay",
    "fit_rational_power",
    "fit_rational_quadratic",
    "polyfit",
    "r_squared",
    "EdgeStreamParseError",
    "normalize_times",
    "read_edge_stream",
    "__version__",
]
