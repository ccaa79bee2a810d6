"""Random-shift network decomposition of Elkin–Neiman [EN16] / MPX [MPX13].

This is the randomized construction at the heart of Lemma 3.3,
Theorem 3.6 and Theorem 4.2. The paper's phrasing (proof of Lemma 3.3):

* The construction runs Θ(log n) *phases*; phase i colors some
  non-adjacent family of clusters with color i and removes them.
* Each live node v draws r_v from the Geometric(1/2) distribution
  (the discrete analog of [EN16]'s exponential shifts, footnote 8).
* Every live node u looks at the two best values of
  ``r_v - dist(v, u)`` among live nodes v whose shifted ball reaches u
  (value >= 0). With m1, m2 the best and second best (m2 = 0 when there
  is no second), u joins the best center's cluster iff ``m1 - m2 > 1``;
  otherwise u stays for the next phase.

Clusters formed in one phase are pairwise non-adjacent and each is
connected with radius <= max r_v (see [EN16, Lemma 4], or the gap
argument: walking one hop toward the best center increases m1 - m2), so
one color per phase is legal and the strong diameter is O(log n).
A live node is clustered with constant probability per phase
([EN16, Claim 6], memorylessness), so Θ(log n) phases suffice w.h.p.

Distances are measured through *live* nodes only (removed nodes no
longer relay), which is what a message-passing implementation measures
and what makes the connectivity argument self-contained.

The implementation is *orchestrated* (DESIGN.md Section 5). In CONGEST
each phase is a bounded multi-source BFS carrying the top-two (value,
center) pairs, O(log n)-bit messages; rounds are accounted as
``phases * (cap + 2)``. The simulation computes the same top-two values
in one bit-parallel BFS from every live center with r > 0
(:func:`~repro.sim.batch.csr.multi_source_distances`, cut off at the
largest radius): ``values = r[:, None] - D`` is valid where
``0 <= D <= r``, and per node it takes the best value m1, its argmax
center and the second value. A node joins iff
``m1 >= 0 and m1 - max(second, 0) > 1``. No tie-break between centers
is needed: ``m1 == m2`` never joins, so the argmax is unique whenever a
node joins, and only the second entry's *value* is ever read.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from ...errors import ConfigurationError
from ...randomness.source import RandomSource
from ...sim.batch.csr import multi_source_distances, nx_to_csr
from ...sim.graph import DistributedGraph
from ...sim.metrics import RunReport
from ...structures import Decomposition


def default_phases(n: int) -> int:
    """The 10 log n phase count from the proof of Lemma 3.3."""
    return max(4, 10 * max(1, math.ceil(math.log2(max(2, n)))))


def default_cap(n: int) -> int:
    """Geometric-radius cap: 10 log n bits per draw suffice w.h.p."""
    return max(4, 10 * max(1, math.ceil(math.log2(max(2, n)))))


def en_phases_on_nx(
    graph: nx.Graph,
    draw_radius: Callable[[Hashable, int], int],
    phases: int,
    cap: int,
    draw_radii: Optional[Callable[[List[Hashable], int],
                                  Dict[Hashable, int]]] = None,
    min_gap: int = 1,
) -> Tuple[Dict[Hashable, Tuple[int, Hashable]], Set[Hashable]]:
    """Run the phase loop on an arbitrary networkx graph.

    ``draw_radius(node, phase)`` supplies the Geometric(1/2) value (use a
    :class:`RandomSource`; the indirection is what lets Lemma 3.3 feed
    gathered cluster pools and Theorem 3.5 feed k-wise bits into the same
    construction). ``draw_radii(nodes, phase)``, when given, supplies a
    whole phase's shifts in one bulk call (same values — each node's
    draw is a pure function of its stream — with the sampler's
    validation and dispatch paid once per phase instead of per node).
    A node joins when ``m1 - m2 > min_gap``: 1 is the paper's gap rule,
    0 the ablated rule of :func:`repro.analysis.ablations.a1_gap_rule`.

    Returns ``(assignment, remaining)`` where assignment maps a node to
    ``(phase_color, center)`` and ``remaining`` holds nodes unclustered
    after all phases.
    """
    if phases < 1 or cap < 1:
        raise ConfigurationError("phases and cap must be >= 1")
    if min_gap < 0:
        raise ConfigurationError(f"min_gap must be >= 0, got {min_gap}")
    offsets, indices, labels = nx_to_csr(graph)
    index_of = {label: i for i, label in enumerate(labels)}
    alive = np.ones(len(labels), dtype=bool)
    live: Set[Hashable] = set(graph.nodes())
    assignment: Dict[Hashable, Tuple[int, Hashable]] = {}
    for phase in range(phases):
        if not live:
            break
        order = list(live)
        if draw_radii is not None:
            radii = draw_radii(order, phase)
        else:
            radii = {v: draw_radius(v, phase) for v in live}
        at = np.fromiter((index_of[v] for v in order), dtype=np.int64,
                         count=len(order))
        r = np.fromiter((radii[v] for v in order), dtype=np.int64,
                        count=len(order))
        # A center with r <= 0 reaches nobody, not even itself.
        shifting = r > 0
        if not shifting.any():
            continue
        centers = at[shifting]
        m1, best, second = shifted_top_two(offsets, indices, centers,
                                           r[shifting], alive)
        m1, best, second = m1[at], best[at], second[at]
        joins = np.flatnonzero(
            (m1 >= 0) & (m1 - np.maximum(second, 0) > min_gap))
        newly = [order[i] for i in joins.tolist()]
        for u, center in zip(newly, centers[best[joins]].tolist()):
            assignment[u] = (phase, labels[center])
        alive[at[joins]] = False
        live.difference_update(newly)
    return assignment, live


def shifted_top_two(offsets: np.ndarray, indices: np.ndarray,
                    centers: np.ndarray, radii: np.ndarray,
                    alive: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node, the best and second-best ``r_c - d(c, u)`` over centers c.

    Center c reaches u when ``0 <= d(c, u) <= r_c`` with distances
    through ``alive`` nodes only (one bit-parallel BFS for all centers,
    cut off at the largest radius). Returns ``(m1, best, second)``
    arrays over all nodes: the best value (-1 where no center reaches
    the node), the row in ``centers`` attaining it, and the second value
    (-1 where fewer than two centers reach). Only the second *value* is
    returned: the gap rule never clusters when ``m1 == m2``, so the
    argmax is unique whenever it is used and no tie-break is needed.
    """
    dist = multi_source_distances(offsets, indices, centers,
                                  cutoff=int(radii.max()), alive=alive)
    values = radii[:, None] - dist
    values[(dist < 0) | (values < 0)] = -1
    best = values.argmax(axis=0)
    nodes = np.arange(values.shape[1])
    m1 = values[best, nodes]
    values[best, nodes] = -1
    return m1, best, values.max(axis=0)


def elkin_neiman(
    graph: DistributedGraph,
    source: RandomSource,
    phases: Optional[int] = None,
    cap: Optional[int] = None,
    finish: str = "strict",
    bit_offset: int = 0,
) -> Tuple[Optional[Decomposition], RunReport, Dict[str, object]]:
    """Elkin–Neiman decomposition of a :class:`DistributedGraph`.

    Parameters
    ----------
    source:
        Randomness source; phase p draws node v's radius from bit block
        ``bit_offset + p * cap`` of v's stream, so phases use disjoint,
        fresh bits (as the proof requires).
    finish:
        ``"strict"`` — return ``None`` decomposition if any node is left
        unclustered (used when measuring success probability);
        ``"singletons"`` — park leftovers in fresh singleton clusters with
        fresh colors (a usable decomposition whose quality degrades
        gracefully, used when composing).
    Returns
    -------
    (decomposition | None, report, extra) where extra records the
    unclustered set and per-phase progress.
    """
    if finish not in ("strict", "singletons"):
        raise ConfigurationError(f"unknown finish mode {finish!r}")
    n = graph.n
    phases = phases if phases is not None else default_phases(n)
    cap = cap if cap is not None else default_cap(n)

    consumed_before = source.bits_consumed

    def draw(v: Hashable, phase: int) -> int:
        value, _used = source.geometric(v, cap, bit_offset + phase * cap)
        return value

    def draw_all(nodes: List[Hashable], phase: int) -> Dict[Hashable, int]:
        values, _used = source.geometrics(nodes, cap, bit_offset + phase * cap)
        return dict(zip(nodes, values.tolist()))

    assignment, remaining = en_phases_on_nx(graph.nx, draw, phases, cap,
                                            draw_radii=draw_all)

    report = RunReport(
        rounds=phases * (cap + 2),
        accounted=True,
        model="CONGEST",
        randomness_bits=source.bits_consumed - consumed_before,
        notes=[
            f"EN accounting: phases({phases}) * (cap({cap}) + 2) rounds; "
            f"messages carry top-2 (value, center) pairs = O(log n) bits"
        ],
    )
    extra: Dict[str, object] = {
        "unclustered": set(remaining),
        "phases": phases,
        "cap": cap,
    }

    if remaining and finish == "strict":
        return None, report, extra

    cluster_ids: Dict[Tuple[int, Hashable], int] = {}
    cluster_of: Dict[int, int] = {}
    color_of: Dict[int, int] = {}
    for v, (phase, center) in assignment.items():
        key = (phase, center)
        cid = cluster_ids.setdefault(key, len(cluster_ids))
        cluster_of[v] = cid
        color_of[cid] = phase
    if remaining:
        next_color = (max(color_of.values()) + 1) if color_of else 0
        for v in sorted(remaining):
            cid = max(cluster_of.values(), default=-1) + 1
            cluster_of[v] = cid
            color_of[cid] = next_color
            next_color += 1
        report.annotate(f"{len(remaining)} leftovers parked as singleton clusters")
    decomposition = Decomposition(cluster_of=cluster_of,
                                  color_of=color_of).normalize_colors()
    return decomposition, report, extra
