"""``graph.trim`` as it was written before its scans were tuned.

Kept as the reference the property test in ``test_graph.py`` compares
the tuned ``trim`` against: the same removals, in the same order, with
the same count.
"""

from __future__ import annotations

from specload.graph import MetadataRepository, NodeType


def reference_trim(repo: MetadataRepository, now: float, max_age_days: float = 30.0) -> int:
    window = max_age_days * 86400.0
    removed = 0
    for site in list(repo.graphs):
        graph = repo.graphs[site]
        stale = [
            nid
            for nid, node in graph.nodes.items()
            if node.node_type in (NodeType.WEBPAGE, NodeType.SUBRESOURCE)
            and now - node.last_visit > window
        ]
        for nid in stale:
            graph._remove_node(nid)
        removed += len(stale)
        for (pid, cid), ts in list(graph.edge_seen.items()):
            if now - ts > window:
                graph._unlink(pid, cid)
        orphans = [
            nid
            for nid, node in graph.nodes.items()
            if node.node_type is NodeType.SUBRESOURCE and not node.parents
        ]
        for nid in orphans:
            graph._remove_node(nid)
        removed += len(orphans)
        empty_subdomains = [
            nid
            for nid, node in graph.nodes.items()
            if node.node_type is NodeType.SUBDOMAIN and not node.children
        ]
        for nid in empty_subdomains:
            graph._remove_node(nid)
        removed += len(empty_subdomains)
        if not graph.nodes[graph.website_id].children:
            del repo.graphs[site]
            removed += 1
    return removed
