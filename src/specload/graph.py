"""Per-website resource graphs learned from browsing history.

Each website gets a four-level graph: the website node, its subdomains,
their webpages, and the subresources those pages requested.  Edges only
connect adjacent levels.  The repository maps website keys to graphs and
is the sole persistent state the predictor needs.

Webpage-to-subresource edges carry the timestamp of the last visit that
exhibited them.  Trimming drops nodes that have not been visited within
the cutoff window *and* edges that have not been seen within it, which
makes trimming equivalent to rebuilding the graph from only the recent
visits; without edge timestamps, a page that stopped referencing some
subresource would keep advertising it forever.
"""

from __future__ import annotations

import io
import json
import struct
import threading
from bisect import bisect_left, insort
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum

from .errors import CorruptRepository
from .trace import PageVisit
from .urls import host_of, normalize_url, website_key


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
        self._init_ranking()
        self.website_id = self._add_node(NodeType.WEBSITE, site, None, 0.0)

    def _init_ranking(self) -> None:
        # The subresources' priority keys in order, and the ids of the
        # subresources taken out of it because their key may have changed.
        # Both stay None until ``ranked_subresources`` is first called.
        # Invariant once built: every subresource node is either in
        # ``_unranked`` or in ``_ranking`` under its current key.
        self._ranking: list[tuple] | None = None
        self._unranked: set[int] | None = None

    def ranked_subresources(self) -> Iterator[GraphNode]:
        """Every subresource node, in ``priority_key`` order.

        The order is built by one sort on first use and kept after that:
        a node whose key may change is taken out of it first, and put
        back here.  The caller holds the repository lock while iterating.
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
        self.nodes[nid] = GraphNode(
            node_id=nid,
            node_type=node_type,
            url_or_name=key,
            resource_kind=kind,
            last_visit=ts,
            n_visits=0,
            parents=set(),
            children=set(),
        )
        index = self._index_of(node_type)
        if index is not None:
            index[key] = nid
        if self._unranked is not None and node_type is NodeType.SUBRESOURCE:
            self._unranked.add(nid)
        return nid

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
        self.nodes[parent_id].children.add(child_id)
        child.parents.add(parent_id)

    def _unlink(self, parent_id: int, child_id: int) -> None:
        child = self.nodes[child_id]
        self._unrank(child)
        self.nodes[parent_id].children.discard(child_id)
        child.parents.discard(parent_id)
        self.edge_seen.pop((parent_id, child_id), None)

    def _remove_node(self, nid: int) -> None:
        node = self.nodes.pop(nid)
        self._unrank(node)
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


@dataclass
class UpdateDelta:
    nodes_added: int
    nodes_touched: int


class MetadataRepository:
    """website key -> ResourceGraph, with a lock for writer/reader safety."""

    def __init__(self):
        self.graphs: dict[str, ResourceGraph] = {}
        self.lock = threading.RLock()

    def structure(self) -> dict:
        """Canonical (type, key) node and edge sets, for equality checks.

        Deliberately ignores visit counters and timestamps: two repos
        built from different histories can agree structurally.
        """
        out: dict = {}
        with self.lock:
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


def update(repo: MetadataRepository, visit: PageVisit) -> UpdateDelta:
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
    added = 0
    with repo.lock:
        graph = repo.graphs.get(site)
        if graph is None:
            graph = ResourceGraph(site)
            repo.graphs[site] = graph
            added += 1
        sub_id = graph.subdomain_index.get(host)
        if sub_id is None:
            sub_id = graph._add_node(NodeType.SUBDOMAIN, host, None, ts)
            added += 1
        graph._link(graph.website_id, sub_id)
        page_id = graph.page_index.get(main_url)
        if page_id is None:
            page_id = graph._add_node(NodeType.WEBPAGE, main_url, "html", ts)
            added += 1
        graph._link(sub_id, page_id)
        touched = [graph.website_id, sub_id, page_id]
        for record in visit.subresources:
            rid = graph.sub_index.get(record.url)
            if rid is None:
                rid = graph._add_node(NodeType.SUBRESOURCE, record.url, record.kind, ts)
                added += 1
            graph._link(page_id, rid)
            graph.edge_seen[(page_id, rid)] = ts
            touched.append(rid)
        # ``_link`` took every touched subresource out of the kept order,
        # so bumping ``n_visits`` here leaves that order valid.
        for nid in touched:
            node = graph.nodes[nid]
            node.last_visit = ts
            node.n_visits += 1
    return UpdateDelta(nodes_added=added, nodes_touched=len(touched))


def trim(repo: MetadataRepository, now: float, max_age_days: float = 30.0) -> int:
    """Drop graph state not exercised within the cutoff window.

    Removes webpage and subresource nodes unvisited for more than
    ``max_age_days``, page-to-subresource edges not seen in that window,
    subresources left parentless, then childless subdomains and empty
    website graphs.  Returns the number of nodes removed (cascades
    included).  A node exactly at the threshold survives.
    """
    window = max_age_days * 86400.0
    removed = 0
    # Locals compared with ``is``, and the cheap test first: each scan
    # visits every node of every graph on every trim.
    webpage, subresource, subdomain = (
        NodeType.WEBPAGE, NodeType.SUBRESOURCE, NodeType.SUBDOMAIN
    )
    with repo.lock:
        for site in list(repo.graphs):
            graph = repo.graphs[site]
            nodes = graph.nodes
            stale = [
                nid
                for nid, node in nodes.items()
                if now - node.last_visit > window
                and (node.node_type is webpage or node.node_type is subresource)
            ]
            for nid in stale:
                graph._remove_node(nid)
            removed += len(stale)
            stale_edges = [
                edge for edge, ts in graph.edge_seen.items() if now - ts > window
            ]
            for pid, cid in stale_edges:
                graph._unlink(pid, cid)
            orphans = [
                nid
                for nid, node in nodes.items()
                if not node.parents and node.node_type is subresource
            ]
            for nid in orphans:
                graph._remove_node(nid)
            removed += len(orphans)
            empty_subdomains = [
                nid
                for nid, node in nodes.items()
                if not node.children and node.node_type is subdomain
            ]
            for nid in empty_subdomains:
                graph._remove_node(nid)
            removed += len(empty_subdomains)
            if not nodes[graph.website_id].children:
                del repo.graphs[site]
                removed += 1
    return removed


def get_webpage_node(repo: MetadataRepository, url: str) -> GraphNode | None:
    url = normalize_url(url)
    graph = repo.graphs.get(website_key(url))
    if graph is None:
        return None
    nid = graph.page_index.get(url)
    return graph.nodes[nid] if nid is not None else None


def get_subdomain_node(repo: MetadataRepository, url: str) -> GraphNode | None:
    url = normalize_url(url)
    graph = repo.graphs.get(website_key(url))
    if graph is None:
        return None
    nid = graph.subdomain_index.get(host_of(url))
    return graph.nodes[nid] if nid is not None else None


_MAGIC = b"SLRepo1\n"


def dumps_repo(repo: MetadataRepository) -> bytes:
    """Serialize: magic, graph count, then length-prefixed JSON per graph."""
    out = io.BytesIO()
    out.write(_MAGIC)
    with repo.lock:
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


def save_repo(repo: MetadataRepository, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps_repo(repo))


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
    graph = ResourceGraph.__new__(ResourceGraph)
    graph.site = site
    graph.nodes = {}
    graph.subdomain_index = {}
    graph.page_index = {}
    graph.sub_index = {}
    graph.edge_seen = {}
    graph._init_ranking()
    graph.website_id = -1
    websites = 0
    for item in payload.get("nodes", []):
        try:
            nid = int(item["i"])
            node_type = NodeType(int(item["y"]))
            node = GraphNode(
                node_id=nid,
                node_type=node_type,
                url_or_name=str(item["u"]),
                resource_kind=str(item["k"]) or None,
                last_visit=float(item["t"]),
                n_visits=int(item["v"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptRepository(f"bad node record: {exc}") from exc
        if node.n_visits < 0:
            raise CorruptRepository("negative n_visits")
        if nid in graph.nodes:
            raise CorruptRepository("duplicate node id")
        graph.nodes[nid] = node
        index = graph._index_of(node_type)
        if index is None:
            websites += 1
            graph.website_id = nid
        elif node.url_or_name in index:
            # Each key names one node; a second one would be shadowed in
            # the index while still ranked and linked.
            raise CorruptRepository(f"duplicate {node_type.name} {node.url_or_name}")
        else:
            index[node.url_or_name] = nid
    if websites != 1:
        raise CorruptRepository(f"graph for {site} has {websites} website nodes")
    graph._next_id = max(graph.nodes) + 1 if graph.nodes else 0
    for edge in payload.get("edges", []):
        try:
            pid, cid, ts = int(edge[0]), int(edge[1]), edge[2]
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
        graph._link(pid, cid)
        if ts is not None:
            graph.edge_seen[(pid, cid)] = float(ts)
    repo.graphs[site] = graph


@dataclass
class RepoStats:
    n_websites: int
    n_subdomains: int
    n_webpages: int
    n_subresources: int
    serialized_size_bytes: int


def repo_stats(repo: MetadataRepository) -> RepoStats:
    counts = {t: 0 for t in NodeType}
    with repo.lock:
        for graph in repo.graphs.values():
            for node in graph.nodes.values():
                counts[node.node_type] += 1
        size = len(dumps_repo(repo))
    return RepoStats(
        n_websites=counts[NodeType.WEBSITE],
        n_subdomains=counts[NodeType.SUBDOMAIN],
        n_webpages=counts[NodeType.WEBPAGE],
        n_subresources=counts[NodeType.SUBRESOURCE],
        serialized_size_bytes=size,
    )
