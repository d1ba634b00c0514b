"""Browsing-trace data model and JSONL codec.

A trace is a sequence of page visits.  Each visit carries the main
resource, the subresources the page actually requested, and optional
per-subresource discovery offsets (milliseconds after the main resource
was parsed).  On disk a trace is UTF-8 JSON Lines, one visit per line:

    {"user": "u1", "ts": 1265000000.0,
     "main": {"url": ..., "kind": "html", "size": ..., "cc": {...}, "fetched_at": ...},
     "subs": [...], "offsets": [...]}

``cc`` holds cache-control facts with only the present keys serialized.

Every resource URL in a trace is canonical: lower-case scheme and host,
no default port, no fragment (``urls.normalize_url``).  The form is
established once, at ingest: ``ResourceRecord.from_json`` (and so
``load_trace``), ``har.import_har`` and the live HTML parser normalise,
and ``synth`` emits canonical URLs by construction.  Everything
downstream (the simulator, the graph, the replays, prefetching) uses
``record.url`` as given and never re-normalises it.

``load_trace`` keeps one object per distinct value and shares it between
the records that carry that value; records are frozen and the values
immutable, so sharing is invisible.  Shared are: each raw URL's
canonical form (normalised once), one ``CacheDirectives`` per distinct
``cc`` object, each ``kind`` (as its ``RESOURCE_KINDS`` constant), each
``size_bytes``, each non-zero ``fetched_at`` and ``timestamp`` (zero is
left alone, so that 0.0 and -0.0 stay apart), and each ``user_id``.
Ints and floats are kept apart, since 5 == 5.0.  The memos last for one
load: nothing is kept between calls.  ``from_json`` runs the
constructors' checks itself, in their order, and then fills the slots of
the frozen instance directly instead of going through ``__init__``.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field

from .errors import SchemaError
from .urls import normalize_url

RESOURCE_KINDS = ("html", "script", "stylesheet", "image", "other")
_KINDS = {kind: kind for kind in RESOURCE_KINDS}


@dataclass(frozen=True)
class CacheDirectives:
    """Cache-relevant response facts for one resource.

    ``no_store`` wins over everything else; ``max_age`` is seconds;
    ``expires`` and ``last_modified`` are absolute epoch seconds.
    ``has_validator`` records whether the response carried an ETag or
    Last-Modified header usable for conditional requests.
    """

    no_store: bool = False
    no_cache: bool = False
    max_age: int | None = None
    expires: float | None = None
    has_validator: bool = False
    last_modified: float | None = None

    def to_json(self) -> dict:
        out: dict = {}
        if self.no_store:
            out["no_store"] = True
        if self.no_cache:
            out["no_cache"] = True
        if self.max_age is not None:
            out["max_age"] = self.max_age
        if self.expires is not None:
            out["expires"] = self.expires
        if self.has_validator:
            out["has_validator"] = True
        if self.last_modified is not None:
            out["last_modified"] = self.last_modified
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "CacheDirectives":
        if not isinstance(obj, dict):
            raise ValueError("cc must be an object")
        # A number the cache model can do float arithmetic with: not a
        # bool, a string, nan, an infinity or an int too large for a float.
        for name in ("max_age", "expires", "last_modified"):
            value = obj.get(name)
            if value is None:
                continue
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise ValueError(f"cc {name} must be a finite number, not {value!r}")
        return cls(
            no_store=bool(obj.get("no_store", False)),
            no_cache=bool(obj.get("no_cache", False)),
            max_age=obj.get("max_age"),
            expires=obj.get("expires"),
            has_validator=bool(obj.get("has_validator", False)),
            last_modified=obj.get("last_modified"),
        )


def _directives(cc, memo: dict | None) -> CacheDirectives:
    """``CacheDirectives.from_json(cc)``, shared through ``memo`` by equal ``cc``s.

    The key is one flat tuple of the ``(key, value)`` pairs followed by
    each value's type, so 604800 and 604800.0 stay apart and ``to_json``
    gives back what was read.  A ``cc`` with an unhashable value, or with
    a float zero (-0.0 == 0.0 but prints differently), gets an object of
    its own.
    """
    if memo is None or not isinstance(cc, dict):
        return CacheDirectives.from_json(cc)
    values = cc.values()
    if 0.0 in values and float in map(type, values):
        return CacheDirectives.from_json(cc)
    key = (*cc.items(), *map(type, values))
    try:
        directives = memo.get(key)
    except TypeError:
        return CacheDirectives.from_json(cc)
    if directives is None:
        directives = memo[key] = CacheDirectives.from_json(cc)
    return directives


class _Memo:
    """One ``load_trace``'s shared values (see the module docstring)."""

    __slots__ = ("urls", "directives", "ints", "floats", "users")

    def __init__(self) -> None:
        self.urls: dict[str, str] = {}  # raw URL -> canonical URL
        self.directives: dict[tuple, CacheDirectives] = {}  # ``cc`` key
        self.ints: dict[int, int] = {}
        self.floats: dict[float, float] = {}
        self.users: dict[str, str] = {}


def _check_record(kind, size: int) -> None:
    if kind not in RESOURCE_KINDS:
        raise ValueError(f"unknown resource kind {kind!r}")
    if size < 0:
        raise ValueError("size_bytes must be >= 0")


def _check_visit(timestamp, main, subs: tuple, offsets: tuple) -> None:
    # JSON reads NaN and Infinity: a NaN timestamp leaves the visit
    # order undefined, and a NaN ready time would sit in the simulator's
    # event heap.
    if not math.isfinite(timestamp):
        raise ValueError("timestamp must be finite")
    if main.kind != "html":
        raise ValueError("main resource must be html")
    if len({r.url for r in subs}) != len(subs):
        raise ValueError("duplicate subresource URL within one visit")
    if offsets and len(offsets) != len(subs):
        raise ValueError("discovery_offsets length mismatch")
    if not all(map(math.isfinite, offsets)):
        raise ValueError("discovery offsets must be finite")
    if any(off < 0 for off in offsets):
        raise ValueError("discovery offsets must be >= 0")


# ``from_json`` runs these checks itself, after its conversions (the
# order ``__init__`` gives), then fills the slots of a bare instance.
_new = object.__new__


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One observed resource response.

    ``url`` must be canonical (see the module docstring).  The
    constructor does not normalise it, so that generators which build
    canonical URLs pay nothing; ``from_json`` does.
    """

    url: str
    kind: str
    size_bytes: int
    cache_directives: CacheDirectives = field(default_factory=CacheDirectives)
    fetched_at: float = 0.0

    def __post_init__(self):
        _check_record(self.kind, self.size_bytes)

    def to_json(self) -> dict:
        return {
            "url": self.url,
            "kind": self.kind,
            "size": self.size_bytes,
            "cc": self.cache_directives.to_json(),
            "fetched_at": self.fetched_at,
        }

    @classmethod
    def from_json(cls, obj: dict, _memo: _Memo | None = None) -> "ResourceRecord":
        """Parse one record, sharing its values through ``load_trace``'s
        per-load ``_memo`` when one is given."""
        if not isinstance(obj, dict):
            raise ValueError("resource must be an object")
        try:
            raw_url, kind, size = obj["url"], obj["kind"], obj["size"]
        except KeyError as exc:  # the first missing key, in that order
            raise ValueError(f"resource missing {exc.args[0]!r}") from None
        if _memo is not None and type(raw_url) is str:
            url = _memo.urls.get(raw_url)
            if url is None:
                url = _memo.urls[raw_url] = normalize_url(raw_url)
        else:
            url = normalize_url(raw_url)
        size = int(size)
        directives = _directives(obj.get("cc", {}), None if _memo is None else _memo.directives)
        fetched_at = float(obj.get("fetched_at", 0.0))
        _check_record(kind, size)
        if _memo is not None:
            kind = _KINDS[kind]
            size = _memo.ints.setdefault(size, size)
            if fetched_at:
                fetched_at = _memo.floats.setdefault(fetched_at, fetched_at)
        record = _new(cls)
        _set_url(record, url)
        _set_kind(record, kind)
        _set_size(record, size)
        _set_directives(record, directives)
        _set_fetched_at(record, fetched_at)
        return record


@dataclass(frozen=True, slots=True)
class PageVisit:
    """One page load: main resource plus the subresources it requested.

    ``discovery_offsets`` gives, per subresource, the non-negative
    milliseconds after main-resource parse at which the subresource was
    discovered.  Missing offsets mean all-zero (everything discoverable
    the moment parsing finishes).
    """

    user_id: str
    timestamp: float
    main: ResourceRecord
    subresources: tuple[ResourceRecord, ...]
    discovery_offsets: tuple[float, ...] = ()

    def __post_init__(self):
        _check_visit(self.timestamp, self.main, self.subresources, self.discovery_offsets)

    def to_json(self) -> dict:
        out = {
            "user": self.user_id,
            "ts": self.timestamp,
            "main": self.main.to_json(),
            "subs": [r.to_json() for r in self.subresources],
        }
        if self.discovery_offsets and any(self.discovery_offsets):
            out["offsets"] = list(self.discovery_offsets)
        return out

    @classmethod
    def from_json(cls, obj: dict, _memo: _Memo | None = None) -> "PageVisit":
        if not isinstance(obj, dict):
            raise ValueError("visit must be an object")
        try:
            user, ts, main, subs = obj["user"], obj["ts"], obj["main"], obj["subs"]
        except KeyError as exc:  # the first missing key, in that order
            raise ValueError(f"visit missing {exc.args[0]!r}") from None
        if not isinstance(subs, list):
            raise ValueError("subs must be a list")
        offsets = obj.get("offsets", [])
        if not isinstance(offsets, list):
            raise ValueError("offsets must be a list")
        user = str(user)
        ts = float(ts)
        if _memo is not None:
            user = _memo.users.setdefault(user, user)
            if ts:
                ts = _memo.floats.setdefault(ts, ts)
        parse = ResourceRecord.from_json
        main = parse(main, _memo)
        subs = tuple([parse(s, _memo) for s in subs])
        offsets = tuple(map(float, offsets))
        _check_visit(ts, main, subs, offsets)
        visit = _new(cls)
        _set_user(visit, user)
        _set_timestamp(visit, ts)
        _set_main(visit, main)
        _set_subresources(visit, subs)
        _set_offsets(visit, offsets)
        return visit


# Slot setters of the two frozen classes, for ``from_json``.
_set_url, _set_kind, _set_size, _set_directives, _set_fetched_at = (
    member.__set__
    for member in (
        ResourceRecord.url,
        ResourceRecord.kind,
        ResourceRecord.size_bytes,
        ResourceRecord.cache_directives,
        ResourceRecord.fetched_at,
    )
)
_set_user, _set_timestamp, _set_main, _set_subresources, _set_offsets = (
    member.__set__
    for member in (
        PageVisit.user_id,
        PageVisit.timestamp,
        PageVisit.main,
        PageVisit.subresources,
        PageVisit.discovery_offsets,
    )
)


@dataclass
class Trace:
    """Visits ordered by timestamp."""

    visits: list[PageVisit]


def save_trace(trace: Trace, path) -> None:
    """Write a trace as JSON Lines.  Deterministic byte output."""
    with open(path, "w", encoding="utf-8") as fh:
        for visit in trace.visits:
            fh.write(json.dumps(visit.to_json(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def load_trace(path) -> Trace:
    """Read a JSONL trace, sorting visits by timestamp.

    Ties keep file order.  URLs are canonicalised on the way in.
    Raises SchemaError with the offending line number for records that
    do not parse, including a visit whose subresource URLs collapse to
    the same canonical URL.  The cyclic garbage collector is paused
    while the file is parsed, since parsing makes no reference cycles,
    and left as the caller had it.
    """
    visits: list[PageVisit] = []
    memo = _Memo()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"invalid JSON ({exc.msg})", line=lineno) from exc
                try:
                    visits.append(PageVisit.from_json(obj, memo))
                except (ValueError, TypeError, KeyError) as exc:
                    raise SchemaError(str(exc), line=lineno) from exc
    finally:
        if gc_was_enabled:
            gc.enable()
    visits.sort(key=lambda v: v.timestamp)
    return Trace(visits=visits)
