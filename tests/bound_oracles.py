"""Per-link reference implementations of the shared-group lower bounds.

These are the direct readings of the counting arguments behind
:func:`repro.queries.aggregate.groupby_lower_bound` and
:func:`repro.graphs.components.components_lower_bound`: for every link,
collect the groups held on each side and intersect.  The production
bounds count all links at once through the Steiner identity; the tests
pin them against these loops.
"""

from __future__ import annotations

import numpy as np

from repro.core.common import LowerBound
from repro.data.distribution import Distribution
from repro.graphs.model import DEFAULT_EDGE_TAG, decode_edges
from repro.graphs.reference import reference_components
from repro.queries.tuples import DEFAULT_PAYLOAD_BITS, decode_tuples
from repro.topology.tree import TreeTopology, node_sort_key


def reference_groupby_bound(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    tag: str = "R",
    payload_bits: int = DEFAULT_PAYLOAD_BITS,
) -> LowerBound:
    """``max_e |keys(V-e) ∩ keys(V+e)| / (2 w_e)`` by one intersection per link."""
    tree.require_symmetric("the group-by lower bound")
    computes = sorted(tree.compute_nodes, key=node_sort_key)
    node_keys = {}
    for v in computes:
        keys, _ = decode_tuples(
            distribution.fragment(v, tag), payload_bits=payload_bits
        )
        node_keys[v] = np.unique(keys)
    per_edge: dict = {}
    for edge in tree.undirected_edges():
        a_side, b_side = tree.compute_sides(edge)
        a_keys = [node_keys[v] for v in a_side if len(node_keys.get(v, ()))]
        b_keys = [node_keys[v] for v in b_side if len(node_keys.get(v, ()))]
        if not a_keys or not b_keys:
            per_edge[edge] = 0.0
            continue
        shared = np.intersect1d(
            np.concatenate(a_keys), np.concatenate(b_keys)
        )
        per_edge[edge] = len(shared) / (
            2.0 * tree.undirected_bandwidth(edge)
        )
    return LowerBound.from_per_edge(
        per_edge, "per-link shared-key counting (group-by)"
    )


def reference_components_bound(
    tree: TreeTopology,
    distribution: Distribution,
    *,
    tag: str = DEFAULT_EDGE_TAG,
) -> LowerBound:
    """``max_e |components spanning e| / (2 w_e)`` by set unions per link."""
    tree.require_symmetric("the connectivity lower bound")
    computes = sorted(tree.compute_nodes, key=node_sort_key)
    fragments = {v: distribution.fragment(v, tag) for v in computes}
    all_edges = [f for f in fragments.values() if len(f)]
    if not all_edges:
        return LowerBound.from_per_edge(
            {edge: 0.0 for edge in tree.undirected_edges()},
            "per-link spanning-component counting (connectivity)",
        )
    src, dst = decode_edges(np.concatenate(all_edges))
    component_of = reference_components(np.stack([src, dst], axis=1))
    node_components: dict = {}
    for v, fragment in fragments.items():
        if not len(fragment):
            node_components[v] = frozenset()
            continue
        s, d = decode_edges(fragment)
        node_components[v] = frozenset(
            component_of[int(u)] for u in np.unique(np.concatenate([s, d]))
        )
    per_edge: dict = {}
    for edge in tree.undirected_edges():
        a_side, b_side = tree.compute_sides(edge)
        a_comps = frozenset().union(
            *(node_components.get(v, frozenset()) for v in a_side)
        )
        b_comps = frozenset().union(
            *(node_components.get(v, frozenset()) for v in b_side)
        )
        per_edge[edge] = len(a_comps & b_comps) / (
            2.0 * tree.undirected_bandwidth(edge)
        )
    return LowerBound.from_per_edge(
        per_edge, "per-link spanning-component counting (connectivity)"
    )
