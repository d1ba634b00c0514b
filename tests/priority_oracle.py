"""The predictor's priority order, written out independently of
``specload.predict`` so tests can check ``priority_key`` and
``predict`` against it.

More parents first (shared infrastructure), then scripts before
stylesheets before images before the rest, then more visits, then
shorter URLs, and the URL itself as the final tiebreak.
"""

from __future__ import annotations

from dataclasses import dataclass

_KIND_ORDER = ("script", "stylesheet", "image")


@dataclass(frozen=True)
class PredictionCandidate:
    url: str
    resource_kind: str | None
    n_parents: int
    n_visits: int

    def sort_key(self):
        kind = (
            _KIND_ORDER.index(self.resource_kind)
            if self.resource_kind in _KIND_ORDER
            else len(_KIND_ORDER)
        )
        return (-self.n_parents, kind, -self.n_visits, len(self.url), self.url)


def sort_candidates(candidates: list[PredictionCandidate]) -> list[PredictionCandidate]:
    """Total priority order; the URL itself is the final tiebreak."""
    return sorted(candidates, key=PredictionCandidate.sort_key)


def candidate_of(node) -> PredictionCandidate:
    """The candidate a resource-graph node stands for."""
    return PredictionCandidate(
        url=node.url_or_name,
        resource_kind=node.resource_kind,
        n_parents=len(node.parents),
        n_visits=node.n_visits,
    )
