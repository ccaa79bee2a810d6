"""Solution structures shared by algorithms, checkers, and experiments.

The central object is :class:`Decomposition` — the paper's network
decomposition (Section 2): a partition of V into clusters, a color per
cluster such that adjacent clusters get different colors, and (optionally)
a spanning tree per cluster, whose diameter realizes the weak-diameter
bound and whose overlaps define the congestion.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from .errors import ConfigurationError
from .sim.graph import DistributedGraph


@dataclasses.dataclass
class Decomposition:
    """A (c(n), d(n))-network decomposition.

    Attributes
    ----------
    cluster_of:
        Node index -> cluster id. Every node belongs to exactly one
        cluster (the partition).
    color_of:
        Cluster id -> color in {0, 1, ...}.
    trees:
        Optional cluster id -> list of edges of a tree in G spanning the
        cluster's nodes (the tree may use Steiner nodes outside the
        cluster, which is what makes the decomposition weak-diameter and
        gives it a congestion).
    """

    cluster_of: Dict[int, int]
    color_of: Dict[int, int]
    trees: Optional[Dict[int, List[Tuple[int, int]]]] = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def clusters(self) -> Dict[int, Set[int]]:
        """Cluster id -> member node set."""
        out: Dict[int, Set[int]] = {}
        for v, c in self.cluster_of.items():
            out.setdefault(c, set()).add(v)
        return out

    def num_colors(self) -> int:
        """Number of distinct colors used."""
        return len(set(self.color_of.values()))

    def colors_used(self) -> List[int]:
        """Sorted list of distinct colors."""
        return sorted(set(self.color_of.values()))

    def color_of_node(self, v: int) -> int:
        """Color of the cluster containing v."""
        return self.color_of[self.cluster_of[v]]

    # ------------------------------------------------------------------
    # Quality metrics
    # ------------------------------------------------------------------
    def max_strong_diameter(self, graph: DistributedGraph) -> int:
        """Max diameter of G[C] over clusters C (inf -> n as sentinel)."""
        worst = 0
        for members in self.clusters().values():
            sub = graph.induced(members)
            if not nx.is_connected(sub):
                return graph.n  # disconnected cluster: strong diameter is broken
            worst = max(worst, self._diameter(sub))
        return worst

    def max_weak_diameter(self, graph: DistributedGraph) -> int:
        """Max over clusters of the max G-distance between members."""
        worst = 0
        for members in self.clusters().values():
            worst = max(worst, graph.weak_diameter(members))
        return worst

    def max_tree_diameter(self) -> Optional[int]:
        """Max diameter over the recorded cluster trees, if any."""
        if self.trees is None:
            return None
        worst = 0
        for edges in self.trees.values():
            if not edges:
                continue
            t = nx.Graph(edges)
            worst = max(worst, self._diameter(t))
        return worst

    def congestion(self) -> int:
        """Max, over (node, color), of clusters of that color using the node.

        A *strong-diameter* decomposition (trees inside clusters) has
        congestion 1. Without trees, the partition itself has congestion 1
        by definition, and that is what we report.
        """
        if self.trees is None:
            return 1
        load: Dict[Tuple[int, int], int] = {}
        for cid, edges in self.trees.items():
            color = self.color_of[cid]
            members: Set[int] = set()
            for a, b in edges:
                members.add(a)
                members.add(b)
            if not edges:
                members = {v for v, c in self.cluster_of.items() if c == cid}
            for v in members:
                key = (v, color)
                load[key] = load.get(key, 0) + 1
        return max(load.values()) if load else 1

    @staticmethod
    def _diameter(sub: nx.Graph) -> int:
        if sub.number_of_nodes() <= 1:
            return 0
        return max(
            max(lengths.values())
            for _, lengths in nx.all_pairs_shortest_path_length(sub)
        )

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def violations(self, graph: DistributedGraph,
                   max_colors: Optional[int] = None,
                   max_diameter: Optional[int] = None,
                   strong: bool = False) -> List[str]:
        """All ways this object fails to be a valid decomposition.

        Empty list == valid. ``max_colors`` / ``max_diameter`` add the
        quantitative (c(n), d(n)) requirements; ``strong`` checks strong
        rather than weak diameter.
        """
        problems: List[str] = []
        missing = [v for v in graph.nodes() if v not in self.cluster_of]
        if missing:
            problems.append(f"{len(missing)} nodes unassigned (e.g. {missing[:3]})")
            return problems
        for cid in set(self.cluster_of.values()):
            if cid not in self.color_of:
                problems.append(f"cluster {cid} has no color")
        for u, v in graph.edges():
            cu, cv = self.cluster_of[u], self.cluster_of[v]
            if cu != cv and self.color_of.get(cu) == self.color_of.get(cv):
                problems.append(
                    f"adjacent clusters {cu},{cv} share color {self.color_of.get(cu)}"
                )
        if max_colors is not None and self.num_colors() > max_colors:
            problems.append(
                f"{self.num_colors()} colors used, bound is {max_colors}"
            )
        if max_diameter is not None:
            measured = (self.max_strong_diameter(graph) if strong
                        else self.max_weak_diameter(graph))
            if measured > max_diameter:
                kind = "strong" if strong else "weak"
                problems.append(
                    f"{kind} diameter {measured} exceeds bound {max_diameter}"
                )
        return problems

    def is_valid(self, graph: DistributedGraph, **kwargs) -> bool:
        """True iff :meth:`violations` is empty."""
        return not self.violations(graph, **kwargs)

    def normalize_colors(self) -> "Decomposition":
        """Remap colors onto the contiguous range 0..c-1 (order-preserving).

        Constructions that color by phase number can leave gaps (phases
        where nothing clustered); checkers and palette bounds expect
        colors in [0, num_colors). Returns self for chaining.
        """
        ranks = {c: i for i, c in enumerate(sorted(set(self.color_of.values())))}
        for cid in self.color_of:
            self.color_of[cid] = ranks[self.color_of[cid]]
        return self

    @classmethod
    def single_cluster(cls, graph: DistributedGraph) -> "Decomposition":
        """The trivial decomposition: everything in one cluster, color 0.

        Valid whenever the graph is connected; its diameter is the
        graph's. Used as a degenerate baseline in tests.
        """
        return cls(cluster_of={v: 0 for v in graph.nodes()}, color_of={0: 0})


@dataclasses.dataclass
class SplittingInstance:
    """An instance of the splitting problem of [GKM17] (Lemma 3.4).

    A bipartite graph H = (U, V, E) where every u in U has at least
    ``min_degree`` neighbors in V; the task is to 2-color V so every u
    sees both colors.
    """

    u_side: List[int]
    v_side: List[int]
    adjacency: Dict[int, List[int]]  # u -> its V-neighbors
    min_degree: int

    def __post_init__(self) -> None:
        v_set = set(self.v_side)
        for u in self.u_side:
            nbrs = self.adjacency.get(u, [])
            if len(nbrs) < self.min_degree:
                raise ConfigurationError(
                    f"U-node {u} has degree {len(nbrs)} < promised "
                    f"minimum {self.min_degree}"
                )
            bad = [x for x in nbrs if x not in v_set]
            if bad:
                raise ConfigurationError(
                    f"U-node {u} has neighbors outside V: {bad[:3]}"
                )

    def is_satisfied(self, coloring: Dict[int, int]) -> bool:
        """Does the red/blue coloring of V give every u both colors?"""
        return not self.violated_nodes(coloring)

    def satisfied_by(self, colorings: np.ndarray) -> np.ndarray:
        """:meth:`is_satisfied` for many colorings at once.

        ``colorings`` is an ``(S x |V|)`` matrix whose columns follow
        ``v_side`` order; row s is one coloring. Returns a bool per row:
        every u sees two colors, i.e. the min and max over its neighbor
        columns differ. A U-node with no neighbors violates every row.
        """
        colorings = np.asarray(colorings)
        if colorings.ndim != 2 or colorings.shape[1] != len(self.v_side):
            raise ConfigurationError(
                f"expected an (S x {len(self.v_side)}) coloring matrix, "
                f"got shape {colorings.shape}"
            )
        columns = self._neighbor_columns
        if columns is None:
            return np.zeros(len(colorings), dtype=bool)
        if not self.u_side:
            return np.ones(len(colorings), dtype=bool)
        seen = colorings[:, columns]
        return (seen.min(axis=2) != seen.max(axis=2)).all(axis=1)

    @functools.cached_property
    def _neighbor_columns(self) -> Optional[np.ndarray]:
        """``(|U| x max degree)`` v_side positions of each u's neighbors.

        Short rows are padded with their own first neighbor, which
        changes no min or max. ``None`` if some u has no neighbors.
        """
        position = {x: j for j, x in enumerate(self.v_side)}
        rows = [[position[x] for x in self.adjacency.get(u, ())]
                for u in self.u_side]
        if not all(rows):
            return None
        width = max(map(len, rows), default=0)
        return np.array([row + row[:1] * (width - len(row)) for row in rows],
                        dtype=np.intp)

    def violated_nodes(self, coloring: Dict[int, int]) -> List[int]:
        """U-nodes that see only one color."""
        bad: List[int] = []
        for u in self.u_side:
            seen = {coloring[x] for x in self.adjacency[u]}
            if len(seen) < 2:
                bad.append(u)
        return bad


@dataclasses.dataclass
class Hypergraph:
    """A hypergraph over graph nodes, with the paper's size classes.

    Theorem 3.5 works with hypergraphs of poly(n) hyperedges grouped in
    log n classes, class i containing edges of size in [2^(i-1), 2^i).
    """

    vertices: List[int]
    edges: List[frozenset]

    def __post_init__(self) -> None:
        vertex_set = set(self.vertices)
        for e in self.edges:
            if not e:
                raise ConfigurationError("empty hyperedge")
            if not e <= vertex_set:
                raise ConfigurationError(f"hyperedge {sorted(e)[:4]}... leaves V")

    def size_class(self, e: frozenset) -> int:
        """The i with |e| in [2^(i-1), 2^i); singletons are class 1."""
        return max(1, (len(e) - 1).bit_length() + 1) if len(e) > 1 else 1

    def classes(self) -> Dict[int, List[frozenset]]:
        """Group the hyperedges by size class."""
        out: Dict[int, List[frozenset]] = {}
        for e in self.edges:
            out.setdefault(self.size_class(e), []).append(e)
        return out


def conflict_free_ok(hg: Hypergraph, colors: Dict[int, Set[int]]) -> bool:
    """Is ``colors`` a valid conflict-free multi-coloring of ``hg``?

    Every hyperedge must have some color held by exactly one of its
    vertices (Theorem 3.5's objective).
    """
    for e in hg.edges:
        counts: Dict[int, int] = {}
        for v in e:
            for c in colors.get(v, ()):  # vertices may hold many colors
                counts[c] = counts.get(c, 0) + 1
        if not any(k == 1 for k in counts.values()):
            return False
    return True
