"""Per-website resource graphs learned from browsing history.

Each website gets a four-level graph: the website node, its subdomains,
their webpages, and the subresources those pages requested.  Edges only
connect adjacent levels.  The repository maps website keys to graphs and
is the sole persistent state the predictor needs.  It learns one visit
at a time (``MetadataRepository.learn``), trims itself once a day when
it has a window, and belongs to one thread at a time.

Webpage-to-subresource edges carry the timestamp of the last visit that
exhibited them.  Trimming drops nodes that have not been visited within
the cutoff window *and* edges that have not been seen within it, which
makes trimming equivalent to rebuilding the graph from only the recent
visits; without edge timestamps, a page that stopped referencing some
subresource would keep advertising it forever.

A daily trim costs what it removes, not the size of the history.  A
graph's first trim builds its age index (``_AgeIndex``): a heap of
``(ts, page_id, rids)`` claims.  From then on ``update`` pushes one
claim per visit, and every trim pops only the claims with
``now - ts > window``.  The index keeps two invariants:

- every page, subresource and page-to-subresource edge whose timestamp
  is not NaN has an unpopped claim at exactly that timestamp, because
  every write of a timestamp pushes one and a popped claim that matches
  removes its target.  So a popped prefix finds every stale node and
  edge, whatever order the timestamps came in and whatever window each
  trim uses.  A claim that no longer matches is skipped: it is only
  checked, never trusted.
- after every ``update`` and ``trim`` it holds at most three ids per
  live page, subresource and edge (``_live``); past that it is rebuilt
  from the graph.

A graph has no parentless subresource and no childless subdomain:
``update`` only adds links, a trim removes what it orphans, and
``loads_repo`` rejects a file that holds either.  So the orphans and
empty subdomains a trim makes can only be the children and parents of
what it removes or unlinks.  A graph that never trims
(``sim-speculative``, ``predict.replay`` without a window) builds no
index.
"""

from __future__ import annotations

import io
import json
import math
import struct
from bisect import bisect_left, insort
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import heapify, heappop, heappush

from .errors import CorruptRepository, InvalidParams
from .trace import PageVisit
from .urls import host_of, website_key

DAY_S = 86400.0


class NodeType(IntEnum):
    WEBSITE = 0
    SUBDOMAIN = 1
    WEBPAGE = 2
    SUBRESOURCE = 3


@dataclass
class GraphNode:
    node_id: int
    node_type: NodeType
    url_or_name: str
    resource_kind: str | None
    last_visit: float
    n_visits: int
    parents: set[int] = field(default_factory=set)
    children: set[int] = field(default_factory=set)


_KIND_RANK = {"script": 0, "stylesheet": 1, "image": 2}


def priority_key(node: GraphNode) -> tuple:
    """Total priority order over graph nodes: more parents first (shared
    infrastructure), then scripts before stylesheets before images before
    the rest, then more visits, then shorter URLs; the URL itself is the
    final tiebreak."""
    return (
        -len(node.parents),
        _KIND_RANK.get(node.resource_kind or "", 3),
        -node.n_visits,
        len(node.url_or_name),
        node.url_or_name,
    )


class ResourceGraph:
    def __init__(self, site: str):
        self.site = site
        self.nodes: dict[int, GraphNode] = {}
        self.subdomain_index: dict[str, int] = {}
        self.page_index: dict[str, int] = {}
        self.sub_index: dict[str, int] = {}
        # (webpage_id, subresource_id) -> timestamp of the last visit
        # in which the page requested that subresource.
        self.edge_seen: dict[tuple[int, int], float] = {}
        self._next_id = 0
        # The number of page-to-subresource edges, in the whole graph and
        # under each subdomain (kept by ``_link``, ``_unlink`` and
        # ``_remove_node``), so a scope's mean fan-out costs no scan.
        self._page_edges = 0
        self._page_edges_under: dict[int, int] = {}
        # The subresources' priority keys in order, and the ids of the
        # subresources taken out of it because their key may have changed.
        # Both stay None until ``ranked_subresources`` is first called.
        # Invariant once built: every subresource node is either in
        # ``_unranked`` or in ``_ranking`` under its current key.
        self._ranking: list[tuple] | None = None
        self._unranked: set[int] | None = None
        # The age index (see the module docstring); None until the
        # graph's first trim.
        self._age: _AgeIndex | None = None
        self.website_id = self._add_node(NodeType.WEBSITE, site, None, 0.0)

    def page_edges(self, subdomain_id: int | None = None) -> int:
        """The page-to-subresource edges of the whole graph, or of the
        pages under ``subdomain_id``."""
        if subdomain_id is None:
            return self._page_edges
        return self._page_edges_under[subdomain_id]

    def _count_page_edges(self, page: GraphNode, delta: int) -> None:
        """Add ``delta`` edges of ``page`` to the graph's and its
        subdomains' totals."""
        self._page_edges += delta
        under = self._page_edges_under
        for sid in page.parents:
            under[sid] += delta

    def ranked_subresources(self) -> Iterator[GraphNode]:
        """Every subresource node, in ``priority_key`` order.

        The order is built by one sort on first use and kept after that:
        a node whose key may change is taken out of it first, and put
        back here.  The graph must not change while it is being iterated.
        """
        nodes, sub_index, ranking = self.nodes, self.sub_index, self._ranking
        if ranking is None:
            ranking = self._ranking = sorted(
                priority_key(nodes[nid]) for nid in sub_index.values()
            )
            self._unranked = set()
        elif self._unranked:
            for nid in self._unranked:
                node = nodes.get(nid)
                if node is not None:
                    insort(ranking, priority_key(node))
            self._unranked.clear()
        for key in ranking:
            yield nodes[sub_index[key[-1]]]

    def _unrank(self, node: GraphNode) -> None:
        """Take a subresource out of the kept order before its key
        changes or it is removed; a no-op until the order is built."""
        unranked = self._unranked
        if (
            unranked is None
            or node.node_type is not NodeType.SUBRESOURCE
            or node.node_id in unranked
        ):
            return
        ranking = self._ranking
        del ranking[bisect_left(ranking, priority_key(node))]
        unranked.add(node.node_id)

    def _add_node(
        self, node_type: NodeType, key: str, kind: str | None, ts: float
    ) -> int:
        nid = self._next_id
        self._next_id += 1
        node = GraphNode(
            node_id=nid,
            node_type=node_type,
            url_or_name=key,
            resource_kind=kind,
            last_visit=ts,
            n_visits=0,
            parents=set(),
            children=set(),
        )
        self._put(node)
        return nid

    def _put(self, node: GraphNode) -> None:
        """Register a new, unlinked node under its id and key."""
        nid, node_type = node.node_id, node.node_type
        self.nodes[nid] = node
        index = self._index_of(node_type)
        if index is not None:
            index[node.url_or_name] = nid
        if node_type is NodeType.SUBDOMAIN:
            self._page_edges_under[nid] = 0
        if self._unranked is not None and node_type is NodeType.SUBRESOURCE:
            self._unranked.add(nid)

    def _index_of(self, node_type: NodeType) -> dict[str, int] | None:
        """The key -> node id index for ``node_type``; None for the website."""
        if node_type is NodeType.SUBRESOURCE:
            return self.sub_index
        if node_type is NodeType.WEBPAGE:
            return self.page_index
        if node_type is NodeType.SUBDOMAIN:
            return self.subdomain_index
        return None

    def _link(self, parent_id: int, child_id: int) -> None:
        child = self.nodes[child_id]
        self._unrank(child)
        parent = self.nodes[parent_id]
        if child_id in parent.children:
            return
        parent.children.add(child_id)
        child.parents.add(parent_id)
        self._count_edge(parent, child, 1)

    def _unlink(self, parent_id: int, child_id: int) -> None:
        child = self.nodes[child_id]
        self._unrank(child)
        parent = self.nodes[parent_id]
        self.edge_seen.pop((parent_id, child_id), None)
        if child_id not in parent.children:
            return
        parent.children.discard(child_id)
        child.parents.discard(parent_id)
        self._count_edge(parent, child, -1)

    def _count_edge(self, parent: GraphNode, child: GraphNode, delta: int) -> None:
        """Keep the page-edge totals right as one edge comes or goes."""
        if parent.node_type is NodeType.WEBPAGE:
            self._count_page_edges(parent, delta)
        elif parent.node_type is NodeType.SUBDOMAIN:
            self._page_edges_under[parent.node_id] += delta * len(child.children)

    def _remove_node(self, nid: int) -> None:
        node = self.nodes.pop(nid)
        self._unrank(node)
        node_type = node.node_type
        if node_type is NodeType.WEBPAGE:
            self._count_page_edges(node, -len(node.children))
        elif node_type is NodeType.SUBRESOURCE:
            for pid in node.parents:
                self._count_page_edges(self.nodes[pid], -1)
        elif node_type is NodeType.SUBDOMAIN:
            del self._page_edges_under[nid]
        for pid in list(node.parents):
            self.nodes[pid].children.discard(nid)
            self.edge_seen.pop((pid, nid), None)
        for cid in list(node.children):
            child = self.nodes[cid]
            self._unrank(child)
            child.parents.discard(nid)
            self.edge_seen.pop((nid, cid), None)
        index = self._index_of(node.node_type)
        if index is not None:
            index.pop(node.url_or_name, None)


class _AgeIndex:
    """A graph's pages, subresources and edges by age, for ``trim``.

    ``heap`` holds entries ``(ts, page_id, rids)``: a claim that the page
    ``page_id``, each subresource in ``rids`` and each edge
    ``(page_id, rid)`` may have been last touched at ``ts``.  Claims go
    stale when a later ``update`` touches the same ids again; they are
    checked against the graph when popped, never trusted.  ``size``
    counts the ids held: one per entry plus its ``rids``.
    """

    __slots__ = ("heap", "size")

    def __init__(self, graph: ResourceGraph):
        self.rebuild(graph)

    def rebuild(self, graph: ResourceGraph) -> None:
        """One claim per live edge, page and subresource, grouped by
        (timestamp, page): at most ``2 * _live(graph)`` ids.  A NaN
        timestamp is never stale, so it gets no claim."""
        nodes = graph.nodes
        groups: dict[tuple[float, int], list[int]] = {}
        for (pid, cid), ts in graph.edge_seen.items():
            if ts == ts:
                groups.setdefault((ts, pid), []).append(cid)
        for pid in graph.page_index.values():
            ts = nodes[pid].last_visit
            if ts == ts:
                groups.setdefault((ts, pid), [])
        # -1 names no page here; a claim is only ever a hint.
        for rid in graph.sub_index.values():
            ts = nodes[rid].last_visit
            if ts == ts:
                groups.setdefault((ts, -1), []).append(rid)
        self.heap = [(ts, pid, rids) for (ts, pid), rids in groups.items()]
        heapify(self.heap)
        self.size = len(groups) + sum(len(rids) for rids in groups.values())

    def add(self, graph: ResourceGraph, ts: float, page_id: int, rids: list[int]) -> None:
        """Record one ``update`` of ``page_id`` and ``rids`` at ``ts``;
        rebuild once the index holds more than ``3 * _live(graph)`` ids."""
        if ts != ts:
            return
        heappush(self.heap, (ts, page_id, rids))
        self.size += 1 + len(rids)
        if self.size > 3 * _live(graph):
            self.rebuild(graph)

    def pop_stale(self, now: float, window: float) -> Iterator[tuple[int, list[int]]]:
        """Pop every entry with ``now - ts > window``.  Those are a prefix
        of the heap order, since ``now - ts`` never rises as ``ts`` does."""
        heap = self.heap
        while heap and now - heap[0][0] > window:
            _, page_id, rids = heappop(heap)
            self.size -= 1 + len(rids)
            yield page_id, rids


def _live(graph: ResourceGraph) -> int:
    """The pages, subresources and page-to-subresource edges of ``graph``."""
    return len(graph.page_index) + len(graph.sub_index) + len(graph.edge_seen)


class MetadataRepository:
    """website key -> ResourceGraph, learned one visit at a time.

    A repository belongs to one thread at a time; nothing in it is locked.
    ``learn`` folds a visit in with ``update``.  With ``trim_days`` set,
    a visit on a later day (``timestamp // DAY_S``) than the last trim,
    or than the first visit, then trims the repository with ``now`` at
    that visit's timestamp.  ``graph build --trim-days``, ``predict.replay``
    and what is built on it, and ``live.FetchSession`` share this rule.
    """

    def __init__(self, trim_days: float | None = None):
        if trim_days is not None:
            _check_window(trim_days)
        self.graphs: dict[str, ResourceGraph] = {}
        self.trim_days = trim_days
        self._day: int | None = None

    def learn(self, visit: PageVisit) -> None:
        # The module-level ``update`` and ``trim``, looked up at each call:
        # perfbench's tracer wraps them by name and counts every learn.
        update(self, visit)
        if self.trim_days is None:
            return
        day = int(visit.timestamp // DAY_S)
        if self._day is None:
            self._day = day
        elif day > self._day:
            trim(self, now=visit.timestamp, max_age_days=self.trim_days)
            self._day = day

    def structure(self) -> dict:
        """Canonical (type, key) node and edge sets, for equality checks.

        Deliberately ignores visit counters and timestamps: two repos
        built from different histories can agree structurally.
        """
        out: dict = {}
        for site in sorted(self.graphs):
            graph = self.graphs[site]
            nodes = sorted(
                (int(n.node_type), n.url_or_name) for n in graph.nodes.values()
            )
            edges = sorted(
                (
                    int(graph.nodes[p].node_type),
                    graph.nodes[p].url_or_name,
                    graph.nodes[c].url_or_name,
                )
                for p in graph.nodes
                for c in graph.nodes[p].children
            )
            out[site] = {"nodes": nodes, "edges": edges}
        return out


def update(repo: MetadataRepository, visit: PageVisit) -> None:
    """Fold one visit into the repository.

    Creates any missing website/subdomain/webpage/subresource nodes and
    edges, then bumps n_visits and last_visit on every node the visit
    touched.  Subresources attach to the webpage node; their own host
    does not matter, third-party resources included.  The visit's URLs
    are taken as canonical (see ``trace``).
    """
    main_url = visit.main.url
    site = website_key(main_url)
    host = host_of(main_url)
    ts = visit.timestamp
    graph = repo.graphs.get(site)
    if graph is None:
        graph = ResourceGraph(site)
        repo.graphs[site] = graph
    sub_id = graph.subdomain_index.get(host)
    if sub_id is None:
        sub_id = graph._add_node(NodeType.SUBDOMAIN, host, None, ts)
    graph._link(graph.website_id, sub_id)
    page_id = graph.page_index.get(main_url)
    if page_id is None:
        page_id = graph._add_node(NodeType.WEBPAGE, main_url, "html", ts)
    graph._link(sub_id, page_id)
    rids = []
    for record in visit.subresources:
        rid = graph.sub_index.get(record.url)
        if rid is None:
            rid = graph._add_node(NodeType.SUBRESOURCE, record.url, record.kind, ts)
        graph._link(page_id, rid)
        graph.edge_seen[(page_id, rid)] = ts
        rids.append(rid)
    # ``_link`` took every touched subresource out of the kept order,
    # so bumping ``n_visits`` here leaves that order valid.
    for nid in (graph.website_id, sub_id, page_id, *rids):
        node = graph.nodes[nid]
        node.last_visit = ts
        node.n_visits += 1
    if graph._age is not None:
        graph._age.add(graph, ts, page_id, rids)


def _check_window(days: float) -> None:
    # A NaN or infinite window would silently never trim, and a negative
    # one would forget visits from the future.
    if not 0 <= days < math.inf:
        raise InvalidParams(f"a history window must be finite and >= 0 days, not {days}")


def trim(repo: MetadataRepository, now: float, max_age_days: float = 30.0) -> int:
    """Drop graph state not exercised within the cutoff window.

    Removes webpage and subresource nodes unvisited for more than
    ``max_age_days``, page-to-subresource edges not seen in that window,
    subresources left parentless, then childless subdomains and empty
    website graphs.  Returns the number of nodes removed (cascades
    included).  A node exactly at the threshold survives.

    A graph's first trim builds its age index; every trim pops only the
    index entries that crossed the window.
    Raises ``InvalidParams`` unless ``max_age_days`` is finite and >= 0.
    """
    _check_window(max_age_days)
    window = max_age_days * DAY_S
    removed = 0
    for site in list(repo.graphs):
        graph = repo.graphs[site]
        if graph._age is None:
            graph._age = _AgeIndex(graph)
        removed += _trim_graph(graph, now, window)
        if not graph.nodes[graph.website_id].children:
            del repo.graphs[site]
            removed += 1
    return removed


def _trim_graph(graph: ResourceGraph, now: float, window: float) -> int:
    """Trim one graph through its age index; returns the number of
    nodes removed.

    The candidates are what the popped claims name, and only the
    children and parents of what goes can become orphans or empty
    subdomains, as the graph has none to begin with.
    """
    webpage, subresource, subdomain = (
        NodeType.WEBPAGE, NodeType.SUBRESOURCE, NodeType.SUBDOMAIN
    )
    nodes, edge_seen, age = graph.nodes, graph.edge_seen, graph._age
    candidates, edges = set(), []
    for page_id, rids in age.pop_stale(now, window):
        candidates.add(page_id)
        candidates.update(rids)
        edges.extend((page_id, rid) for rid in rids)
    stale = [
        nid
        for nid in candidates
        if (node := nodes.get(nid)) is not None
        and now - node.last_visit > window
        and (node.node_type is webpage or node.node_type is subresource)
    ]
    children: set[int] = set()
    parents: set[int] = set()
    for nid in stale:
        node = nodes[nid]
        children |= node.children
        parents |= node.parents
        graph._remove_node(nid)
    for edge in edges:
        ts = edge_seen.get(edge)
        if ts is not None and now - ts > window:
            graph._unlink(*edge)
            children.add(edge[1])
            parents.add(edge[0])
    orphans = [
        nid
        for nid in children
        if (node := nodes.get(nid)) is not None
        and not node.parents
        and node.node_type is subresource
    ]
    for nid in orphans:
        graph._remove_node(nid)
    empty_subdomains = [
        nid
        for nid in parents
        if (node := nodes.get(nid)) is not None
        and not node.children
        and node.node_type is subdomain
    ]
    for nid in empty_subdomains:
        graph._remove_node(nid)
    if age.size > 3 * _live(graph):
        age.rebuild(graph)
    return len(stale) + len(orphans) + len(empty_subdomains)


_MAGIC = b"SLRepo1\n"


def dumps_repo(repo: MetadataRepository) -> bytes:
    """Serialize: magic, graph count, then length-prefixed JSON per graph."""
    out = io.BytesIO()
    out.write(_MAGIC)
    sites = sorted(repo.graphs)
    out.write(struct.pack(">I", len(sites)))
    for site in sites:
        graph = repo.graphs[site]
        nodes = []
        for nid in sorted(graph.nodes):
            node = graph.nodes[nid]
            nodes.append(
                {
                    "i": nid,
                    "y": int(node.node_type),
                    "u": node.url_or_name,
                    "k": node.resource_kind or "",
                    "v": node.n_visits,
                    "t": node.last_visit,
                }
            )
        edges = []
        for pid in sorted(graph.nodes):
            for cid in sorted(graph.nodes[pid].children):
                edges.append([pid, cid, graph.edge_seen.get((pid, cid))])
        payload = json.dumps(
            {"site": site, "nodes": nodes, "edges": edges},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        out.write(struct.pack(">I", len(payload)))
        out.write(payload)
    return out.getvalue()


def save_repo(repo: MetadataRepository, path) -> int:
    """Write ``dumps_repo(repo)`` to ``path``; returns its size in bytes."""
    data = dumps_repo(repo)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def loads_repo(data: bytes) -> MetadataRepository:
    if not data.startswith(_MAGIC):
        raise CorruptRepository("bad magic: not a repository file")
    view = memoryview(data)[len(_MAGIC):]
    if len(view) < 4:
        raise CorruptRepository("truncated header")
    (count,) = struct.unpack(">I", view[:4])
    view = view[4:]
    repo = MetadataRepository()
    for _ in range(count):
        if len(view) < 4:
            raise CorruptRepository("truncated graph length")
        (length,) = struct.unpack(">I", view[:4])
        view = view[4:]
        if len(view) < length:
            raise CorruptRepository("truncated graph payload")
        try:
            payload = json.loads(bytes(view[:length]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptRepository(f"unreadable graph payload: {exc}") from exc
        view = view[length:]
        _load_graph(repo, payload)
    return repo


def load_repo(path) -> MetadataRepository:
    with open(path, "rb") as fh:
        return loads_repo(fh.read())


def _load_graph(repo: MetadataRepository, payload: dict) -> None:
    site = payload.get("site")
    if not isinstance(site, str) or not site:
        raise CorruptRepository("graph without site key")
    if site in repo.graphs:
        raise CorruptRepository(f"duplicate graph for site {site}")
    # The file numbers every node, the website included.
    graph = ResourceGraph(site)
    graph.nodes.clear()
    websites = 0
    for item in payload.get("nodes", []):
        try:
            node = GraphNode(
                node_id=int(item["i"]),
                node_type=NodeType(int(item["y"])),
                url_or_name=str(item["u"]),
                resource_kind=str(item["k"]) or None,
                last_visit=float(item["t"]),
                n_visits=int(item["v"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptRepository(f"bad node record: {exc}") from exc
        if node.n_visits < 0:
            raise CorruptRepository("negative n_visits")
        if not math.isfinite(node.last_visit):
            # ``update`` never writes one, and a NaN would be the newest
            # timestamp ``graph trim`` takes for ``now``: nothing is stale.
            raise CorruptRepository(f"non-finite node timestamp {node.last_visit}")
        if node.node_id in graph.nodes:
            raise CorruptRepository("duplicate node id")
        index = graph._index_of(node.node_type)
        if index is None:
            websites += 1
            graph.website_id = node.node_id
        elif node.url_or_name in index:
            # Each key names one node; a second one would be shadowed in
            # the index while still ranked and linked.
            raise CorruptRepository(f"duplicate {node.node_type.name} {node.url_or_name}")
        graph._put(node)
    if websites != 1:
        raise CorruptRepository(f"graph for {site} has {websites} website nodes")
    graph._next_id = max(graph.nodes) + 1
    for edge in payload.get("edges", []):
        try:
            pid, cid = int(edge[0]), int(edge[1])
            ts = None if edge[2] is None else float(edge[2])
        except (ValueError, TypeError, IndexError) as exc:
            raise CorruptRepository(f"bad edge record: {exc}") from exc
        if pid not in graph.nodes or cid not in graph.nodes:
            raise CorruptRepository("edge references unknown node")
        ptype = graph.nodes[pid].node_type
        ctype = graph.nodes[cid].node_type
        if int(ctype) != int(ptype) + 1:
            raise CorruptRepository(
                f"edge crosses non-adjacent levels {ptype.name}->{ctype.name}"
            )
        if ts is not None:
            # ``dumps_repo`` times page->subresource edges only.
            if ctype is not NodeType.SUBRESOURCE:
                raise CorruptRepository(f"timed edge {ptype.name}->{ctype.name}")
            if not math.isfinite(ts):
                raise CorruptRepository(f"non-finite edge timestamp {ts}")
            graph.edge_seen[(pid, cid)] = ts
        graph._link(pid, cid)
    # No parentless subresource or childless subdomain: ``dumps_repo``
    # writes none, and ``trim`` looks for them only next to what it removes.
    for node in graph.nodes.values():
        if (node.node_type is NodeType.SUBRESOURCE and not node.parents) or (
            node.node_type is NodeType.SUBDOMAIN and not node.children
        ):
            raise CorruptRepository(f"unlinked {node.node_type.name} {node.url_or_name}")
    repo.graphs[site] = graph


@dataclass
class RepoStats:
    n_websites: int
    n_subdomains: int
    n_webpages: int
    n_subresources: int
    serialized_size_bytes: int


def repo_stats(
    repo: MetadataRepository, serialized_size_bytes: int | None = None
) -> RepoStats:
    """Count the nodes of each type.  The serialized size is measured
    with ``dumps_repo`` unless the caller already has it, as ``save_repo``
    returns it."""
    counts = {t: 0 for t in NodeType}
    for graph in repo.graphs.values():
        for node in graph.nodes.values():
            counts[node.node_type] += 1
    if serialized_size_bytes is None:
        serialized_size_bytes = len(dumps_repo(repo))
    return RepoStats(
        n_websites=counts[NodeType.WEBSITE],
        n_subdomains=counts[NodeType.SUBDOMAIN],
        n_webpages=counts[NodeType.WEBPAGE],
        n_subresources=counts[NodeType.SUBRESOURCE],
        serialized_size_bytes=serialized_size_bytes,
    )
