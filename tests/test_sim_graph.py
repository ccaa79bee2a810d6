"""DistributedGraph: identifiers, topology access, distance helpers."""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.graph import DistributedGraph


class TestConstruction:
    def test_rejects_empty_graph(self):
        with pytest.raises(ConfigurationError):
            DistributedGraph(nx.Graph())

    def test_uids_unique_and_in_range(self):
        g = DistributedGraph(nx.path_graph(20), uid_seed=1)
        uids = [g.uid(v) for v in g.nodes()]
        assert len(set(uids)) == 20
        assert all(1 <= u <= 20 ** 3 for u in uids)

    def test_explicit_uids(self):
        g = DistributedGraph(nx.path_graph(3), uids=[10, 20, 30])
        assert [g.uid(v) for v in g.nodes()] == [10, 20, 30]
        assert g.index_of_uid(20) == 1

    def test_explicit_uids_validated(self):
        with pytest.raises(ConfigurationError):
            DistributedGraph(nx.path_graph(3), uids=[1, 1, 2])
        with pytest.raises(ConfigurationError):
            DistributedGraph(nx.path_graph(3), uids=[1, 2])

    def test_uid_bits_is_logarithmic(self):
        g = DistributedGraph(nx.path_graph(100), uid_seed=2)
        assert g.uid_bits() <= 3 * 7 + 2  # 3 log2(100) + slack

    def test_labels_preserved(self):
        raw = nx.Graph([("a", "b"), ("b", "c")])
        g = DistributedGraph(raw)
        assert sorted(g.labels) == ["a", "b", "c"]

    def test_same_seed_same_uids(self):
        g1 = DistributedGraph(nx.path_graph(10), uid_seed=7)
        g2 = DistributedGraph(nx.path_graph(10), uid_seed=7)
        assert [g1.uid(v) for v in g1.nodes()] == [g2.uid(v) for v in g2.nodes()]


class TestTopology:
    def test_neighbors_sorted(self):
        g = DistributedGraph(nx.star_graph(5))
        assert g.neighbors(0) == [1, 2, 3, 4, 5]

    def test_degree_and_max_degree(self):
        g = DistributedGraph(nx.star_graph(5))
        assert g.degree(0) == 5
        assert g.degree(1) == 1
        assert g.max_degree() == 5

    def test_edges_canonical(self):
        g = DistributedGraph(nx.cycle_graph(4))
        for u, v in g.edges():
            assert u < v

    def test_ball_distances(self):
        g = DistributedGraph(nx.path_graph(10))
        ball = g.ball(5, 2)
        assert ball == {5: 0, 4: 1, 6: 1, 3: 2, 7: 2}

    def test_distance(self):
        g = DistributedGraph(nx.path_graph(10))
        assert g.distance(0, 9) == 9
        assert g.distance(3, 3) == 0

    def test_distance_disconnected_is_none(self):
        raw = nx.Graph()
        raw.add_edge(0, 1)
        raw.add_node(2)
        g = DistributedGraph(raw)
        assert g.distance(0, 2) is None

    def test_connected_components(self):
        raw = nx.Graph([(0, 1)])
        raw.add_node(2)
        g = DistributedGraph(raw)
        comps = g.connected_components()
        assert sorted(map(sorted, comps)) == [[0, 1], [2]]

    def test_subgraph_diameter(self):
        g = DistributedGraph(nx.path_graph(10))
        assert g.subgraph_diameter([2, 3, 4]) == 2
        assert g.subgraph_diameter([5]) == 0

    def test_subgraph_diameter_rejects_disconnected_set(self):
        g = DistributedGraph(nx.cycle_graph(8))
        # {0, 4} is at distance 4 in G but disconnected in G[{0, 4}].
        with pytest.raises(ConfigurationError):
            g.subgraph_diameter([0, 4])
        assert g.subgraph_diameter([0, 1, 2, 3, 4]) == 4

    def test_weak_diameter_uses_g_distances(self):
        g = DistributedGraph(nx.cycle_graph(8))
        # 0 and 4 are opposite; weak diameter through G is 4 even though
        # the induced subgraph {0, 4} is disconnected.
        assert g.weak_diameter([0, 4]) == 4

    def test_weak_diameter_rejects_cross_component(self):
        raw = nx.Graph([(0, 1)])
        raw.add_node(2)
        g = DistributedGraph(raw)
        with pytest.raises(ConfigurationError):
            g.weak_diameter([0, 2])


class TestPowerGraph:
    def test_power_graph_edges(self):
        g = DistributedGraph(nx.path_graph(6), uid_seed=1)
        g2 = g.power_graph(2)
        assert g2.nx.has_edge(0, 2)
        assert g2.nx.has_edge(0, 1)
        assert not g2.nx.has_edge(0, 3)

    def test_power_preserves_uids(self):
        g = DistributedGraph(nx.path_graph(6), uid_seed=1)
        g2 = g.power_graph(3)
        assert [g2.uid(v) for v in g2.nodes()] == [g.uid(v) for v in g.nodes()]

    def test_power_validates(self):
        g = DistributedGraph(nx.path_graph(3))
        with pytest.raises(ConfigurationError):
            g.power_graph(0)

    @given(r=st.integers(1, 4))
    def test_power_distance_semantics(self, r):
        g = DistributedGraph(nx.cycle_graph(11))
        gr = g.power_graph(r)
        for u in range(11):
            for v in range(u + 1, 11):
                expected = g.distance(u, v) <= r
                assert gr.nx.has_edge(u, v) == expected


class TestReprAndBounds:
    def test_repr_mentions_size(self):
        g = DistributedGraph(nx.path_graph(5))
        assert "n=5" in repr(g)

    def test_eccentricity_bound(self):
        g = DistributedGraph(nx.path_graph(5))
        assert g.eccentricity_bound() >= 4
