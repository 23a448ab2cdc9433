"""Unit tests for the path/Steiner oracle (multicast deduplication)."""

import numpy as np
import pytest

from repro.topology.builders import two_level
from repro.topology.steiner import PathOracle, RoutingIndex
from repro.topology.tree import node_sort_key


class TestPathOracle:
    def setup_method(self):
        self.tree = two_level([2, 3])
        self.oracle = PathOracle(self.tree)

    def test_path_matches_tree(self):
        assert self.oracle.path_edges("v1", "v3") == self.tree.path_edges(
            "v1", "v3"
        )

    def test_path_to_self_empty(self):
        assert self.oracle.path_edges("v2", "v2") == ()

    def test_steiner_single_destination_is_path(self):
        assert set(self.oracle.steiner_edges("v1", ["v4"])) == set(
            self.tree.path_edges("v1", "v4")
        )

    def test_steiner_dedups_shared_prefix(self):
        # v1 -> {v3, v4}: the shared segment v1..w2 must appear once.
        edges = self.oracle.steiner_edges("v1", ["v3", "v4"])
        assert edges.count(("v1", "w1")) == 1
        assert edges.count(("w1", "core")) == 1
        assert ("w2", "v3") in edges
        assert ("w2", "v4") in edges
        assert len(edges) == 5

    def test_steiner_covers_union_of_paths(self):
        destinations = ["v2", "v3", "v5"]
        edges = set(self.oracle.steiner_edges("v1", destinations))
        union = set()
        for destination in destinations:
            union |= set(self.tree.path_edges("v1", destination))
        assert edges == union

    def test_steiner_to_self_only(self):
        assert self.oracle.steiner_edges("v1", ["v1"]) == ()

    def test_destination_order_irrelevant(self):
        forward = self.oracle.steiner_edges("v1", ["v3", "v4"])
        backward = self.oracle.steiner_edges("v1", ["v4", "v3"])
        assert set(forward) == set(backward)

    def test_memoisation_counts(self):
        oracle = PathOracle(self.tree)
        oracle.steiner_edges("v1", ["v3", "v4"])
        oracle.steiner_edges("v1", ["v4", "v3"])  # same key
        assert oracle.cache_info()["steiner"] == 1

    def test_edges_directed_away_from_source(self):
        for (u, v) in self.oracle.steiner_edges("v5", ["v1", "v2"]):
            # every edge points from the v5 side toward the destinations
            assert self.tree.path_nodes("v5", v).index(v) > self.tree.path_nodes(
                "v5", u
            ).index(u)


class TestSpanningCounts:
    """``RoutingIndex.spanning_counts``: groups held on both sides per link."""

    def setup_method(self):
        # the benchmark's fat-tree(8x8): 8 racks of 8 under one core
        self.tree = two_level([8] * 8, leaf_bandwidth=2.0, uplink_bandwidth=4.0)
        self.routing = RoutingIndex(self.tree)
        self.computes = sorted(self.tree.compute_nodes, key=node_sort_key)

    def _side_counts(self, holders: dict) -> list:
        """Per link, groups with a holder on each compute side."""
        counts = []
        for link in self.routing.links:
            a_side, b_side = self.tree.compute_sides(link)
            counts.append(
                sum(
                    1
                    for nodes in holders.values()
                    if nodes & a_side and nodes & b_side
                )
            )
        return counts

    def test_links_follow_undirected_edges(self):
        assert list(self.routing.links) == self.tree.undirected_edges()
        assert len(self.routing.link_child) == 72

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_compute_side_counts(self, seed):
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, 60, size=400)
        nodes = rng.integers(0, len(self.computes), size=400)
        holders: dict = {}
        for group, node in zip(groups.tolist(), nodes.tolist()):
            holders.setdefault(group, set()).add(self.computes[node])
        index = np.array(
            [self.routing.index_of[self.computes[n]] for n in nodes.tolist()]
        )
        counts = self.routing.spanning_counts(groups, index)
        assert counts.dtype == np.int64
        assert counts.tolist() == self._side_counts(holders)
        assert counts.any()

    def test_repeats_and_single_holders_count_nothing_extra(self):
        v = [self.routing.index_of[node] for node in self.computes]
        # group 7 sits on one node (twice); group 3 spans two racks
        groups = np.array([7, 7, 3, 3, 3])
        index = np.array([v[0], v[0], v[0], v[63], v[63]])
        counts = self.routing.spanning_counts(groups, index)
        assert counts.tolist() == self._side_counts(
            {3: {self.computes[0], self.computes[63]}}
        )
        assert counts.sum() == 4  # leaf, uplink, uplink, leaf

    def test_empty_input_gives_all_zeros(self):
        counts = self.routing.spanning_counts(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp)
        )
        assert counts.tolist() == [0] * len(self.routing.links)
        assert counts.dtype == np.int64
