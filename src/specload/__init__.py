"""specload: speculative resource loading for the web, client-side only.

Learn per-website resource graphs from browsing traces, predict the
subresources a page will need from its URL alone, and load them over a
bounded connection pool while the main resource is still in flight.
Includes trace tooling, cache and prefetch baselines, a discrete-event
page-load simulator, and a live fetcher with a fixture server for
controlled timing experiments.

Every public name loads its module on first use (PEP 562), so importing
one module, such as ``specload.fixture``, imports only what it needs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "cache": (
        "CacheSimReport",
        "CacheStore",
        "LookupOutcome",
        "admit",
        "freshness_lifetime",
        "lookup",
        "page_complete",
        "replay_cache_sim",
    ),
    "errors": (
        "BadSpec",
        "CorruptRepository",
        "EmptyTrace",
        "EmptyWindow",
        "InsufficientTrace",
        "InvalidParams",
        "MainResourceFailed",
        "MalformedUrl",
        "PortInUse",
        "SchemaError",
        "SpecloadError",
    ),
    "graph": (
        "MetadataRepository",
        "RepoStats",
        "load_repo",
        "repo_stats",
        "save_repo",
        "trim",
        "update",
    ),
    "live": ("FetchSession", "LoadReport", "extract_subresources", "fetch_page"),
    "predict": (
        "Prediction",
        "VisitClass",
        "plan_loads",
        "predict",
        "replay_predictor",
        "score_predictions",
    ),
    "prefetch": ("PrefetchReport", "evaluate_prefetch"),
    "sim": (
        "EMPTY",
        "EXPIRED",
        "FRESH",
        "NetworkParams",
        "SimResult",
        "simulate_page",
        "simulate_trace",
    ),
    "synth": ("SynthParams", "generate_synthetic"),
    "trace": (
        "CacheDirectives",
        "PageVisit",
        "ResourceRecord",
        "Trace",
        "load_trace",
        "save_trace",
    ),
    "urls": ("host_of", "normalize_url", "website_key"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # Not cached: a name reads as its module's binding at the time, also
    # while that binding is patched.
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on its package under its own name;
        # where a public name is the same ("predict"), the name wins.
        if name in _OWNER and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
