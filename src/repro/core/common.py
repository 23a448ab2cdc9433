"""Shared result type for the closed-form lower bounds.

Every lower bound in the paper has the shape "maximize some per-link
expression over the links of the tree" (Theorems 1, 3, 6) or a global
expression (Theorem 4).  :class:`LowerBound` keeps the per-link values
alongside the maximum so reports can show *which* link is the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np

from repro.topology.artifacts import resolve_artifacts
from repro.topology.tree import TreeTopology


@dataclass(frozen=True)
class LowerBound:
    """A lower bound on the cost of any correct algorithm for one instance.

    Attributes
    ----------
    value:
        The bound, in element units (the same units as
        :attr:`repro.sim.protocol.ProtocolResult.cost`).
    bottleneck_edge:
        The canonical undirected link achieving the maximum, or ``None``
        for bounds that are not per-link maxima (Theorem 4) or when the
        bound is zero.
    per_edge:
        Per-link bound values (empty for non-per-link bounds).
    description:
        Which theorem the bound instantiates.
    """

    value: float
    bottleneck_edge: tuple | None = None
    per_edge: dict = field(default_factory=dict)
    description: str = ""

    @staticmethod
    def from_per_edge(per_edge: dict, description: str) -> "LowerBound":
        """Build the max-over-links bound from per-link values."""
        if not per_edge:
            return LowerBound(0.0, None, {}, description)
        bottleneck = max(per_edge, key=lambda e: per_edge[e])
        return LowerBound(
            value=float(per_edge[bottleneck]),
            bottleneck_edge=bottleneck,
            per_edge=dict(per_edge),
            description=description,
        )

    def ratio_of(self, cost: float) -> float:
        """``cost / value``; infinity when the bound is zero but cost is not."""
        if self.value > 0:
            return cost / self.value
        return 0.0 if cost == 0 else float("inf")


def shared_group_bound(
    tree: TreeTopology,
    node_groups: Mapping[Hashable, np.ndarray],
    description: str,
) -> LowerBound:
    """The per-link bound ``max_e |groups spanning e| / (2 w_e)``.

    ``node_groups`` maps compute nodes to the group ids they hold
    (repeats allowed); a group spans link ``e`` when it is held on both
    sides of ``e``.  That is exactly when ``e`` lies on the Steiner
    tree of the group's holders, so every link's count comes out of one
    :meth:`~repro.topology.steiner.RoutingIndex.spanning_counts` call on
    the tree's shared routing index.  The tree must be symmetric;
    ``per_edge`` lists every link in ``tree.undirected_edges()`` order.
    """
    routing = resolve_artifacts(tree).oracle.routing_index
    holders = np.repeat(
        np.array([routing.index_of[v] for v in node_groups], dtype=np.intp),
        [len(groups) for groups in node_groups.values()],
    )
    groups = np.concatenate(
        [np.asarray(g, dtype=np.int64) for g in node_groups.values()]
        or [np.empty(0, dtype=np.int64)]
    )
    counts = routing.spanning_counts(groups, holders)
    per_edge = dict(
        zip(routing.links, (counts / (2.0 * routing.link_width)).tolist())
    )
    return LowerBound.from_per_edge(per_edge, description)
