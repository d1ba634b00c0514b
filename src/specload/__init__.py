"""specload: speculative resource loading for the web, client-side only.

Learn per-website resource graphs from browsing traces, predict the
subresources a page will need from its URL alone, and load them over a
bounded connection pool while the main resource is still in flight.
Includes trace tooling, cache and prefetch baselines, a discrete-event
page-load simulator, and a live fetcher with a fixture server for
controlled timing experiments.
"""

__version__ = "0.1.0"

from .cache import (
    CacheSimReport,
    CacheStore,
    LookupOutcome,
    admit,
    freshness_lifetime,
    lookup,
    page_complete,
    replay_cache_sim,
)
from .errors import (
    BadSpec,
    CorruptRepository,
    EmptyTrace,
    EmptyWindow,
    InsufficientTrace,
    InvalidParams,
    MainResourceFailed,
    MalformedUrl,
    PortInUse,
    SchemaError,
    SpecloadError,
)
from .graph import (
    MetadataRepository,
    RepoStats,
    load_repo,
    repo_stats,
    save_repo,
    trim,
    update,
)
from .live import FetchSession, LoadReport, extract_subresources, fetch_page
from .predict import (
    Prediction,
    VisitClass,
    plan_loads,
    predict,
    replay_predictor,
    score_predictions,
)
from .prefetch import PopularityModel, PrefetchReport, evaluate_prefetch
from .sim import (
    EMPTY,
    EXPIRED,
    FRESH,
    NetworkParams,
    SimResult,
    simulate_page,
    simulate_trace,
)
from .synth import SynthParams, generate_synthetic
from .trace import (
    CacheDirectives,
    PageVisit,
    ResourceRecord,
    Trace,
    load_trace,
    save_trace,
)
from .urls import host_of, normalize_url, website_key

__all__ = [
    "BadSpec",
    "CacheDirectives",
    "CacheSimReport",
    "CacheStore",
    "CorruptRepository",
    "EMPTY",
    "EXPIRED",
    "EmptyTrace",
    "EmptyWindow",
    "FRESH",
    "FetchSession",
    "InsufficientTrace",
    "InvalidParams",
    "LoadReport",
    "LookupOutcome",
    "MainResourceFailed",
    "MalformedUrl",
    "MetadataRepository",
    "NetworkParams",
    "PageVisit",
    "PopularityModel",
    "PortInUse",
    "Prediction",
    "PrefetchReport",
    "RepoStats",
    "ResourceRecord",
    "SchemaError",
    "SimResult",
    "SpecloadError",
    "SynthParams",
    "Trace",
    "VisitClass",
    "admit",
    "evaluate_prefetch",
    "extract_subresources",
    "fetch_page",
    "freshness_lifetime",
    "generate_synthetic",
    "host_of",
    "load_repo",
    "load_trace",
    "lookup",
    "normalize_url",
    "page_complete",
    "plan_loads",
    "predict",
    "repo_stats",
    "replay_cache_sim",
    "replay_predictor",
    "save_repo",
    "save_trace",
    "score_predictions",
    "simulate_page",
    "simulate_trace",
    "trim",
    "update",
]
