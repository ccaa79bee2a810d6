"""The bit-parallel multi-source BFS and the top-two reduction built on it.

``multi_source_distances`` must equal one ``bfs_distances`` per source
(and, with an ``alive`` mask, BFS on the induced subgraph).
``shifted_top_two`` and the phase loops built on it must reproduce the
per-center BFS with a sorted top-two list per node that they replaced;
that old algorithm is kept below, in this file only, as the reference.
"""

import random
from typing import Dict, Hashable, List, Set, Tuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import (
    en_phases_on_nx,
    phase_epoch_decomposition,
)
from repro.core.decomposition.elkin_neiman import shifted_top_two
from repro.errors import ConfigurationError
from repro.sim.batch.csr import bfs_distances, multi_source_distances, nx_to_csr
from repro.sim.graph import DistributedGraph
from repro.sim.metrics import RunReport
from repro.structures import Decomposition

#: Source counts on both sides of the 64-bit word boundaries.
SOURCE_COUNTS = (1, 63, 64, 65, 130)


@st.composite
def graphs(draw, max_nodes: int = 30) -> nx.Graph:
    """Random simple graphs, isolated nodes and edgeless graphs included."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n,
                          unique=True)) if pairs else []
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def stacked_bfs(offsets, indices, sources, cutoff):
    return np.stack([bfs_distances(offsets, indices, int(s), cutoff)
                     for s in sources])


def induced_bfs(graph: nx.Graph, alive: List[bool], sources, cutoff):
    """Reference for ``alive``: BFS on G[alive]; a dead source sees itself."""
    sub = graph.subgraph([v for v in graph if alive[v]])
    rows = np.full((len(sources), graph.number_of_nodes()), -1)
    for i, s in enumerate(sources):
        rows[i, s] = 0
        if alive[s]:
            lengths = nx.single_source_shortest_path_length(sub, s, cutoff)
            for v, d in lengths.items():
                rows[i, v] = d
    return rows


class TestMultiSourceDistances:
    @given(graph=graphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_stacked_single_source_bfs(self, graph, data):
        offsets, indices, _labels = nx_to_csr(graph)
        n = graph.number_of_nodes()
        count = data.draw(st.sampled_from(SOURCE_COUNTS))
        sources = data.draw(st.lists(st.integers(0, n - 1),
                                     min_size=count, max_size=count))
        cutoff = data.draw(st.none() | st.integers(0, 6))
        dist = multi_source_distances(offsets, indices, sources, cutoff)
        assert dist.dtype == np.int32
        np.testing.assert_array_equal(
            dist, stacked_bfs(offsets, indices, sources, cutoff))

    @given(graph=graphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_alive_mask_is_bfs_on_induced_subgraph(self, graph, data):
        offsets, indices, _labels = nx_to_csr(graph)
        n = graph.number_of_nodes()
        count = data.draw(st.sampled_from(SOURCE_COUNTS))
        sources = data.draw(st.lists(st.integers(0, n - 1),
                                     min_size=count, max_size=count))
        alive = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        cutoff = data.draw(st.none() | st.integers(0, 6))
        dist = multi_source_distances(offsets, indices, sources, cutoff,
                                      alive=np.array(alive))
        np.testing.assert_array_equal(
            dist, induced_bfs(graph, alive, sources, cutoff))

    @pytest.mark.parametrize("count", SOURCE_COUNTS)
    def test_edgeless_graph_reaches_only_the_sources(self, count):
        graph = nx.empty_graph(7)
        offsets, indices, _labels = nx_to_csr(graph)
        sources = [i % 7 for i in range(count)]
        dist = multi_source_distances(offsets, indices, sources)
        expected = np.full((count, 7), -1)
        expected[np.arange(count), sources] = 0
        np.testing.assert_array_equal(dist, expected)

    @pytest.mark.parametrize("count", SOURCE_COUNTS)
    def test_path_distances_across_word_boundaries(self, count):
        graph = nx.path_graph(count + 5)
        offsets, indices, _labels = nx_to_csr(graph)
        sources = np.arange(count)
        dist = multi_source_distances(offsets, indices, sources)
        nodes = np.arange(count + 5)
        np.testing.assert_array_equal(
            dist, np.abs(nodes[None, :] - sources[:, None]))

    def test_no_sources(self):
        offsets, indices, _labels = nx_to_csr(nx.path_graph(4))
        assert multi_source_distances(offsets, indices, []).shape == (0, 4)


# ----------------------------------------------------------------------
# The replaced top-two computations, kept verbatim as references.
# ----------------------------------------------------------------------
def reference_top_two_shifted(graph: nx.Graph, live: Set[Hashable],
                              radii: Dict[Hashable, int]):
    """Elkin–Neiman: one truncated BFS per live center with r > 0."""
    best: Dict[Hashable, List[Tuple[int, Hashable]]] = {}

    def offer(u, value, center):
        entries = best.setdefault(u, [])
        for i, (val, c) in enumerate(entries):
            if c == center:
                if value > val:
                    entries[i] = (value, center)
                    entries.sort(key=lambda e: (-e[0], repr(e[1])))
                return
        entries.append((value, center))
        entries.sort(key=lambda e: (-e[0], repr(e[1])))
        del entries[2:]

    for center in live:
        r = radii[center]
        if r <= 0:
            continue
        dist = {center: 0}
        frontier = [center]
        offer(center, r, center)
        depth = 0
        while frontier and depth < r:
            depth += 1
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y in live and y not in dist:
                        dist[y] = depth
                        nxt.append(y)
                        offer(y, r - depth, center)
            frontier = nxt
    return best


def reference_top_two(graph: DistributedGraph, available: Set[int],
                      radii: Dict[int, int]):
    """Theorem 3.6 epochs: one truncated BFS per center, UID tie-break."""
    best: Dict[int, List[Tuple[int, int]]] = {}

    def offer(v, value, center):
        entries = best.setdefault(v, [])
        for i, (val, c) in enumerate(entries):
            if c == center:
                if value > val:
                    entries[i] = (value, center)
                    entries.sort(key=lambda e: (-e[0], graph.uid(e[1])))
                return
        entries.append((value, center))
        entries.sort(key=lambda e: (-e[0], graph.uid(e[1])))
        del entries[2:]

    for center, reach in radii.items():
        dist = {center: 0}
        frontier = [center]
        offer(center, reach, center)
        depth = 0
        while frontier and depth < reach:
            depth += 1
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y in available and y not in dist:
                        dist[y] = depth
                        nxt.append(y)
                        offer(y, reach - depth, center)
            frontier = nxt
    return best


def reference_en_phases(graph, draw_radius, phases, cap, min_gap=1):
    live = set(graph.nodes())
    assignment = {}
    for phase in range(phases):
        if not live:
            break
        radii = {v: draw_radius(v, phase) for v in live}
        best = reference_top_two_shifted(graph, live, radii)
        newly = []
        for u in live:
            entries = best.get(u, [])
            if not entries:
                continue
            m1, center = entries[0]
            m2 = entries[1][0] if len(entries) > 1 else 0
            if m1 - m2 > min_gap:
                assignment[u] = (phase, center)
                newly.append(u)
        live.difference_update(newly)
    return assignment, live


def reference_phase_epoch(graph, elect, radius_draw, max_phases, epochs,
                          cap, strict=True):
    step = cap + 2
    live = set(graph.nodes())
    cluster_of, color_of, trees, members_of = {}, {}, {}, {}
    phase_log = []
    phases_run = 0
    for phase in range(max_phases):
        if not live:
            break
        phases_run += 1
        available = set(live)
        set_aside = set()
        clustered_this_phase = 0
        for epoch in range(1, epochs + 1):
            if not available:
                break
            base = (epochs - epoch) * step
            centers = {v for v in available if elect(v, phase, epoch, epochs)}
            if not centers:
                continue
            radii = {u: base + radius_draw(u, phase, epoch) for u in centers}
            best = reference_top_two(graph, available, radii)
            joined = {}
            for v in available:
                entries = best.get(v)
                if not entries:
                    continue
                m1, center = entries[0]
                m2 = entries[1][0] if len(entries) > 1 else 0
                if m1 - m2 > 1:
                    joined[v] = center
                else:
                    set_aside.add(v)
            for v in set_aside:
                available.discard(v)
            new_clusters = {}
            for v, center in joined.items():
                new_clusters.setdefault(center, set()).add(v)
                available.discard(v)
            for center, members in new_clusters.items():
                cid = len(color_of)
                color_of[cid] = phase
                members_of[cid] = members
                for v in members:
                    cluster_of[v] = cid
                trees[cid] = reference_tree(graph, members, center)
                clustered_this_phase += len(members)
        live -= set(cluster_of)
        phase_log.append({"phase": phase, "clustered": clustered_this_phase,
                          "set_aside": len(set_aside)})
    report = RunReport(
        rounds=phases_run * epochs * (epochs * step + 2), accounted=True,
        model="CONGEST",
        notes=[f"phase/epoch carving: {phases_run} phases x {epochs} epochs x "
               f"O(R_1) = {epochs * step} rounds each; top-2 messages are "
               f"O(log n) bits"])
    extra = {"unclustered": set(live), "phases_run": phases_run,
             "phase_log": phase_log, "max_radius": epochs * step + cap}
    if live and strict:
        return None, report, extra
    if live:
        next_color = (max(color_of.values()) + 1) if color_of else 0
        for v in sorted(live):
            cid = len(color_of)
            cluster_of[v] = cid
            color_of[cid] = next_color
            trees[cid] = []
            next_color += 1
        report.annotate(f"{len(live)} leftovers parked as singletons")
    decomposition = Decomposition(cluster_of=cluster_of, color_of=color_of,
                                  trees=trees).normalize_colors()
    return decomposition, report, extra


def reference_tree(graph, members, center):
    edges, seen, frontier = [], {center}, [center]
    while frontier:
        nxt = []
        for x in frontier:
            for y in graph.neighbors(x):
                if y in members and y not in seen:
                    seen.add(y)
                    edges.append((x, y))
                    nxt.append(y)
        frontier = nxt
    return edges


def relabel(graph: nx.Graph, kind: str) -> nx.Graph:
    """Integer, string or tuple labels (the cluster graph's are arbitrary)."""
    if kind == "int":
        return graph
    if kind == "str":
        return nx.relabel_nodes(graph, {v: f"v{v}" for v in graph})
    return nx.relabel_nodes(graph, {v: (v % 3, str(v)) for v in graph})


def vectorized_top_two(graph: nx.Graph, live: Set[Hashable],
                       radii: Dict[Hashable, int]):
    """``shifted_top_two`` over labels, with EN's ``r > 0`` center filter."""
    offsets, indices, labels = nx_to_csr(graph)
    index_of = {label: i for i, label in enumerate(labels)}
    alive = np.array([label in live for label in labels])
    centers = [index_of[v] for v in live if radii[v] > 0]
    if not centers:
        none = np.full(len(labels), -1)
        return labels, index_of, none, none, none, np.array(centers)
    centers = np.array(centers)
    r = np.array([radii[labels[c]] for c in centers])
    m1, best, second = shifted_top_two(offsets, indices, centers, r, alive)
    return labels, index_of, m1, best, second, centers


class TestShiftedTopTwo:
    @given(graph=graphs(max_nodes=24), data=st.data(),
           kind=st.sampled_from(["int", "str", "tuple"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_center_bfs(self, graph, data, kind):
        graph = relabel(graph, kind)
        nodes = list(graph.nodes())
        live = {v for v in nodes if data.draw(st.booleans())}
        # Small radii force tied values and centers with r <= 0.
        radii = {v: data.draw(st.integers(-1, 4)) for v in live}
        reference = reference_top_two_shifted(graph, live, radii)
        labels, index_of, m1, best, second, centers = vectorized_top_two(
            graph, live, radii)
        for u in live:
            entries = reference.get(u, [])
            i = index_of[u]
            assert m1[i] == (entries[0][0] if entries else -1)
            assert second[i] == (entries[1][0] if len(entries) > 1 else -1)
            if entries and m1[i] > second[i]:
                # A unique maximum is the only case the gap rule reads.
                assert labels[centers[best[i]]] == entries[0][1]

    @given(graph=graphs(max_nodes=24), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_uid_tie_broken_epoch_top_two(self, graph, data):
        dgraph = DistributedGraph(graph, uid_seed=data.draw(st.integers(0, 9)))
        available = {v for v in dgraph.nodes() if data.draw(st.booleans())}
        centers = {v for v in available if data.draw(st.booleans())}
        if not centers:
            return
        radii = {u: data.draw(st.integers(0, 4)) for u in centers}
        reference = reference_top_two(dgraph, available, radii)
        offsets, indices = dgraph.csr_arrays()
        alive = np.zeros(dgraph.n, dtype=bool)
        alive[list(available)] = True
        center_at = np.array(list(radii))
        m1, best, second = shifted_top_two(
            offsets, indices, center_at, np.array(list(radii.values())), alive)
        for v in available:
            entries = reference.get(v, [])
            assert m1[v] == (entries[0][0] if entries else -1)
            assert second[v] == (entries[1][0] if len(entries) > 1 else -1)
            if entries and m1[v] > second[v]:
                assert center_at[best[v]] == entries[0][1]


class TestPhaseLoopsMatchReference:
    @given(graph=graphs(max_nodes=30), seed=st.integers(0, 10 ** 6),
           kind=st.sampled_from(["int", "str", "tuple"]),
           min_gap=st.sampled_from([0, 1]), spread=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_en_phases_on_nx(self, graph, seed, kind, min_gap, spread):
        graph = relabel(graph, kind)

        def draw(v, phase):
            return random.Random(f"{seed}/{v!r}/{phase}").randint(0, spread)

        got = en_phases_on_nx(graph, draw, phases=6, cap=8, min_gap=min_gap)
        want = reference_en_phases(graph, draw, 6, 8, min_gap=min_gap)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]

    def test_bulk_draws_match_per_node_draws(self):
        graph = nx.grid_2d_graph(6, 6)  # tuple labels

        def draw(v, phase):
            return random.Random(f"{v!r}/{phase}").randint(1, 4)

        def draw_all(nodes, phase):
            return {v: draw(v, phase) for v in nodes}

        bulk = en_phases_on_nx(graph, None, 8, 8, draw_radii=draw_all)
        assert bulk == reference_en_phases(graph, draw, 8, 8)

    def test_negative_min_gap_is_rejected(self):
        with pytest.raises(ConfigurationError):
            en_phases_on_nx(nx.path_graph(3), lambda v, p: 1, 2, 4, min_gap=-1)

    @given(graph=graphs(max_nodes=30), seed=st.integers(0, 10 ** 6),
           strict=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_phase_epoch_decomposition(self, graph, seed, strict):
        dgraph = DistributedGraph(graph, uid_seed=seed)
        epochs, cap = 3, 3

        def elect(v, phase, epoch, total):
            rng = random.Random(f"{seed}/e/{v}/{phase}/{epoch}")
            return epoch == total or rng.random() < 0.3

        def radius_draw(v, phase, epoch):
            return random.Random(f"{seed}/r/{v}/{phase}/{epoch}").randint(1, cap)

        got = phase_epoch_decomposition(dgraph, elect, radius_draw, 4,
                                        epochs, cap, strict=strict)
        want = reference_phase_epoch(dgraph, elect, radius_draw, 4, epochs,
                                     cap, strict=strict)
        assert got[1] == want[1]
        assert got[2] == want[2]
        if want[0] is None:
            assert got[0] is None
            return
        for field in ("cluster_of", "color_of", "trees"):
            assert (list(getattr(got[0], field).items())
                    == list(getattr(want[0], field).items()))


class TestDiameters:
    @given(graph=graphs(max_nodes=24), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_subgraph_and_weak_diameter_match_networkx(self, graph, data):
        dgraph = DistributedGraph(graph)
        members = {v for v in dgraph.nodes() if data.draw(st.booleans())}
        sub = dgraph.induced(members)
        if len(members) > 1 and not nx.is_connected(sub):
            with pytest.raises(ConfigurationError):
                dgraph.subgraph_diameter(members)
        else:
            expected = nx.diameter(sub) if len(members) > 1 else 0
            assert dgraph.subgraph_diameter(members) == expected
        component = next(iter(nx.connected_components(dgraph.nx)))
        inside = [v for v in component if v in members] or [min(component)]
        far = max(nx.single_source_shortest_path_length(dgraph.nx, v)[u]
                  for v in inside for u in inside)
        assert dgraph.weak_diameter(inside) == far
