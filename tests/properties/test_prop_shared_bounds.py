"""The shared-group lower bounds against their per-link oracles.

``groupby_lower_bound`` and ``components_lower_bound`` count, for every
link at once, the groups (keys, components) held on both sides of the
link.  These properties pin them bit for bit against the per-link loops
in :mod:`tests.bound_oracles`, then check metamorphic invariants of the
bounds themselves: power-of-two width scaling, node relabeling, and
monotonicity under added input.

Keys and vertices come from a small domain so that groups actually
cross links (random 62-bit keys almost never collide).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.distribution import Distribution
from repro.errors import TopologyError
from repro.graphs.components import components_lower_bound
from repro.graphs.model import DEFAULT_EDGE_TAG, encode_edges
from repro.queries.aggregate import groupby_lower_bound
from repro.queries.tuples import encode_tuples
from repro.topology.tree import TreeTopology
from tests.bound_oracles import (
    reference_components_bound,
    reference_groupby_bound,
)
from tests.strategies import tree_topologies

DOMAIN = 16

KEYS = st.integers(0, DOMAIN - 1)
EDGES = st.tuples(KEYS, KEYS).filter(lambda e: e[0] != e[1])


@st.composite
def placed_items(draw, items, *, max_items: int = 40):
    """A random tree plus per-compute-node lists of ``items``.

    Placements are random, all on one node, or one home node per
    distinct item (every group single-holder); empty fragments occur
    in all three.
    """
    tree = draw(tree_topologies(max_nodes=10))
    computes = sorted(tree.compute_nodes, key=str)
    values = draw(st.lists(items, max_size=max_items))
    mode = draw(st.sampled_from(("random", "one-node", "single-holder")))
    if mode == "random":
        holders = [draw(st.sampled_from(computes)) for _ in values]
    elif mode == "one-node":
        holders = [draw(st.sampled_from(computes))] * len(values)
    else:
        home = {
            value: draw(st.sampled_from(computes))
            for value in sorted(set(values))
        }
        holders = [home[value] for value in values]
    placed = {v: [] for v in computes}
    for value, holder in zip(values, holders):
        placed[holder].append(value)
    return tree, placed


def key_distribution(placed: dict) -> Distribution:
    return Distribution(
        {
            v: {
                "R": encode_tuples(
                    np.array(keys, dtype=np.int64),
                    np.arange(len(keys), dtype=np.int64),
                )
            }
            for v, keys in placed.items()
        }
    )


def edge_distribution(placed: dict) -> Distribution:
    return Distribution(
        {
            v: {
                DEFAULT_EDGE_TAG: encode_edges(
                    np.array([e[0] for e in edges], dtype=np.int64),
                    np.array([e[1] for e in edges], dtype=np.int64),
                )
            }
            for v, edges in placed.items()
        }
    )


def groupby_bound(tree, placed):
    return groupby_lower_bound(tree, key_distribution(placed))


def components_bound(tree, placed):
    return components_lower_bound(tree, edge_distribution(placed))


BOUNDS = {
    "groupby": (KEYS, groupby_bound),
    "components": (EDGES, components_bound),
}


def assert_identical(got, want):
    assert list(got.per_edge) == list(want.per_edge)
    assert got.per_edge == want.per_edge
    assert all(type(value) is float for value in got.per_edge.values())
    assert got.value == want.value
    assert got.bottleneck_edge == want.bottleneck_edge
    assert got.description == want.description


class TestAgainstPerLinkOracles:
    @given(data=placed_items(KEYS))
    @settings(max_examples=120, deadline=None)
    def test_groupby_bound_matches_intersection_loop(self, data):
        tree, placed = data
        dist = key_distribution(placed)
        assert_identical(
            groupby_lower_bound(tree, dist), reference_groupby_bound(tree, dist)
        )

    @given(data=placed_items(EDGES))
    @settings(max_examples=120, deadline=None)
    def test_components_bound_matches_union_loop(self, data):
        tree, placed = data
        dist = edge_distribution(placed)
        assert_identical(
            components_lower_bound(tree, dist),
            reference_components_bound(tree, dist),
        )


def _relabeled(tree: TreeTopology, rename: dict) -> TreeTopology:
    return TreeTopology(
        {
            (rename[u], rename[v]): w
            for (u, v), w in tree.directed_edges.items()
        },
        [rename[v] for v in tree.compute_nodes],
    )


class TestMetamorphic:
    @given(
        kind=st.sampled_from(sorted(BOUNDS)),
        data=st.data(),
        k=st.integers(-3, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_width_scaling_divides_every_link_exactly(self, kind, data, k):
        items, bound = BOUNDS[kind]
        tree, placed = data.draw(placed_items(items))
        scale = 2.0**k
        scaled = TreeTopology(
            {e: w * scale for e, w in tree.directed_edges.items()},
            tree.compute_nodes,
        )
        base, after = bound(tree, placed), bound(scaled, placed)
        assert list(after.per_edge) == list(base.per_edge)
        for edge, value in base.per_edge.items():
            assert after.per_edge[edge] == value / scale
        assert after.value == base.value / scale

    @given(
        kind=st.sampled_from(sorted(BOUNDS)),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_relabeling_nodes_keeps_the_bound(self, kind, data, seed):
        items, bound = BOUNDS[kind]
        tree, placed = data.draw(placed_items(items))
        # a random renaming moves the canonical root and edge order
        nodes = sorted(tree.nodes, key=str)
        order = np.random.default_rng(seed).permutation(len(nodes))
        rename = {v: f"x{int(i)}" for v, i in zip(nodes, order)}
        image = _relabeled(tree, rename)
        base = bound(tree, placed)
        after = bound(image, {rename[v]: vs for v, vs in placed.items()})
        assert after.value == base.value
        for (u, v), value in base.per_edge.items():
            image_edge = image.canonical_edge(rename[u], rename[v])
            assert after.per_edge[image_edge] == value

    @given(data=placed_items(KEYS), extra=st.data())
    @settings(max_examples=80, deadline=None)
    def test_adding_tuples_never_lowers_a_link(self, data, extra):
        tree, placed = data
        computes = sorted(placed, key=str)
        grown = {v: list(keys) for v, keys in placed.items()}
        for key, node in extra.draw(
            st.lists(st.tuples(KEYS, st.sampled_from(computes)), min_size=1)
        ):
            grown[node].append(key)
        base, after = groupby_bound(tree, placed), groupby_bound(tree, grown)
        for edge, value in base.per_edge.items():
            assert after.per_edge[edge] >= value

    @given(data=placed_items(EDGES, max_items=25), extra=st.data())
    @settings(max_examples=80, deadline=None)
    def test_adding_edges_never_lowers_a_link(self, data, extra):
        # Added edges copy an existing edge or hang a fresh vertex off
        # an existing one: a component's holder set only grows.  (An
        # edge joining two components may lower the count, since two
        # spanning components become one.)
        tree, placed = data
        existing = sorted({e for edges in placed.values() for e in edges})
        if not existing:
            return
        computes = sorted(placed, key=str)
        grown = {v: list(edges) for v, edges in placed.items()}
        additions = extra.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(existing),
                    st.sampled_from(computes),
                    st.booleans(),
                ),
                min_size=1,
            )
        )
        for fresh, ((u, v), node, new_vertex) in enumerate(additions):
            grown[node].append((u, DOMAIN + fresh) if new_vertex else (u, v))
        base = components_bound(tree, placed)
        after = components_bound(tree, grown)
        for edge, value in base.per_edge.items():
            assert after.per_edge[edge] >= value


class _NoFragments:
    """A distribution stand-in that fails on any data access."""

    def fragment(self, node, tag):
        raise AssertionError("the bound read data before checking symmetry")


class TestBoundaries:
    BOUND_FUNCTIONS = (groupby_lower_bound, components_lower_bound)

    def _star(self):
        return TreeTopology.from_undirected(
            {("a", "r"): 1.0, ("b", "r"): 2.0, ("c", "r"): 4.0},
            ["a", "b", "c"],
        )

    def test_asymmetric_tree_raises_before_reading_data(self):
        tree = self._star().with_bandwidths({("a", "r"): 3.0})
        for bound in self.BOUND_FUNCTIONS:
            with pytest.raises(TopologyError, match="symmetric"):
                bound(tree, _NoFragments())

    def test_empty_distribution_lists_every_link_at_zero(self):
        tree = self._star()
        for bound in self.BOUND_FUNCTIONS:
            result = bound(tree, Distribution({}))
            assert list(result.per_edge) == tree.undirected_edges()
            assert set(result.per_edge.values()) == {0.0}
            assert result.value == 0.0

    def test_tree_without_links_has_no_per_link_values(self):
        tree = TreeTopology({}, ["solo"])
        keys = Distribution(
            {"solo": {"R": encode_tuples(np.array([1, 1, 2]), np.zeros(3))}}
        )
        edges = Distribution(
            {"solo": {DEFAULT_EDGE_TAG: encode_edges([0, 1], [1, 2])}}
        )
        for bound, dist in (
            (groupby_lower_bound, keys),
            (components_lower_bound, edges),
        ):
            result = bound(tree, dist)
            assert (result.value, result.bottleneck_edge, result.per_edge) == (
                0.0,
                None,
                {},
            )
