"""Second- and higher-level cut discovery over cut-graph components.

The first-level cut graph relates single nodes. Its connected components can
themselves be joint-ancestor free as sets, which yields hyperedges between
components (each carrying a genuine cut of the chain) and sum-of-ratio
relations between any two nodes drawn from the linked components. Merging
components along hyperedges and rescanning lifts the construction level by
level.

One lane scan (``product_form._free_lanes``, which also gives the
correctness argument) decides every component pair of a level at once, and
the avoiding-ancestor sides it leaves behind are the cuts of the free pairs.
Level 1 runs it once per biconnected block and reads only each free pair's
crossing edges (``product_form._free_crossings``). One level loop,
``_climb``, merges and rescans from level 2 up, starting from the level-1
components; it skips pairs whose answer is already known, and says which
and why that is exact.

``analyze`` finds all that the command line's ``analyze`` reports and
``verify`` checks: level 1's pairs, the levels above it with their cuts, and
every relation; ``numeric.check`` does ``verify``'s solves and folds.
``higher_level_cut_graph`` enters the same loop from ``cut_graph``.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InvalidArgumentError, ResourceLimitError, check_budget
from .factors import LEVEL_S, FactorExpr, Relation, SumExpr, make_relation, product_of, sum_of
from .graph_core import NodeSet, _components, _descend, _layers
from .product_form import (
    Cut,
    CutGraph,
    FormalChain,
    _crossing_sum,
    _free_crossings,
    _free_lanes,
    _leaving,
    cut_graph,
    is_jaf,
    s_relation,
)

# ---- types ----


@dataclass(frozen=True)
class HyperEdge:
    """A cut between two whole components of the previous level's graph.

    ``comp_i``/``comp_j`` index the scanned partition; the cut's
    ``source_a``/``source_b`` are its actual source nodes, always nonempty
    subsets of the respective components.
    """

    comp_i: int
    comp_j: int
    cut: Cut


@dataclass(frozen=True)
class CutHypergraph:
    """One level of the recursion: its hyperedges and the merged partition."""

    level: int
    hyperedges: tuple[HyperEdge, ...]
    components: tuple[NodeSet, ...]


# ---- discovery ----


def _scan_pairs(c: FormalChain, comps: Sequence[int], settled: set[int]) -> tuple[HyperEdge, ...]:
    """Hyperedges between the pairs of a mask partition, skipping pairs of two ``settled`` masks.

    Lane q's side is the set of nodes whose state holds bit q, found in one
    walk over the states. Its sources are read from its own two components,
    where ``_free_lanes`` shows they lie.
    """
    g = c.graph
    n = g.n
    full = (1 << n) - 1
    edges = []
    for p, _, free, state in _free_lanes(g.in_adj, g.out_adj, comps, settled):
        while free:
            lane = free & -free
            free ^= lane
            q = lane.bit_length() - 1
            side_a = 0
            for v, s in enumerate(state):
                if s & lane:
                    side_a |= 1 << v
            source_a = NodeSet(_leaving(g, comps[p], full ^ side_a), n)
            source_b = NodeSet(_leaving(g, comps[q], side_a), n)
            edges.append(HyperEdge(p, q, Cut(NodeSet(side_a, n), source_a, source_b)))
    return tuple(edges)


def _climb(c: FormalChain, comps: list[int], max_level: int) -> list[CutHypergraph]:
    """Merge and rescan from level 2 up to ``max_level``, from level 1's partition ``comps``.

    Every level settles the components the level before it scanned; level 1
    scanned every single node. A pair of two settled components was found not
    free there, or it would have merged, so skipping it drops no hyperedge
    and the output equals a full rescan of every pair. Stops at the first
    level that finds no hyperedge or leaves one component; levels that find
    nothing are not reported.
    """
    settled = {1 << v for v in range(c.graph.n)}
    levels: list[CutHypergraph] = []
    for level in range(2, max_level + 1):
        if len(comps) <= 1:
            break
        edges = _scan_pairs(c, comps, settled)
        if not edges:
            break
        settled = set(comps)
        comps = _components(comps, [(e.comp_i, e.comp_j) for e in edges])
        merged = tuple(NodeSet(m, c.graph.n) for m in comps)
        levels.append(CutHypergraph(level=level, hyperedges=edges, components=merged))
    return levels


def higher_level_cut_graph(
    c: FormalChain, max_level: int, c1: CutGraph | None = None
) -> list[CutHypergraph]:
    """Run the merge-and-rescan recursion from level 2 up to ``max_level``.

    Level 2 scans the first-level components. A caller holding
    ``cut_graph(c)`` passes it as ``c1``.
    """
    if max_level < 2:
        raise InvalidArgumentError("the recursion starts at level 2")
    if c1 is None:
        c1 = cut_graph(c)
    return _climb(c, [comp.mask for comp in c1.components], max_level)


# ---- sum-of-ratio relations ----

# The factor pair of each ordered first-level edge (a, b): (f_ab, f_ba).
_HopFactors = dict[tuple[int, int], tuple[FactorExpr, FactorExpr]]
# Each crossing sum built so far, keyed by its node and the mask of that node's
# out-neighbours it sums over: relations that need the same sum share one object.
_Sums = dict[tuple[int, int], SumExpr]


def _shared_sum(sums: _Sums, node: int, crossing: int) -> SumExpr:
    """``_crossing_sum(node, crossing)``, built once per key of ``sums``."""
    found = sums.get((node, crossing))
    if found is None:
        found = sums[node, crossing] = _crossing_sum(node, crossing)
    return found


def _hop_factors(n: int, relations: Sequence[Relation]) -> tuple[_HopFactors, list[int]]:
    """Both orientations of every first-level relation's factor pair, and their adjacency masks."""
    hops: _HopFactors = {}
    adj = [0] * n
    for r in relations:
        hops[r.lhs_node, r.rhs_node] = (r.lhs_factor, r.rhs_factor)
        hops[r.rhs_node, r.lhs_node] = (r.rhs_factor, r.lhs_factor)
        adj[r.lhs_node] |= 1 << r.rhs_node
        adj[r.rhs_node] |= 1 << r.lhs_node
    return hops, adj


def _side_factor(
    c: FormalChain,
    adj: list[int],
    hops: _HopFactors,
    sums: _Sums,
    star: int,
    sources: NodeSet,
    side_a: int,
    into_a: bool,
) -> FactorExpr:
    """One side's weighted flow sum, rewritten in ``star``'s weight.

    The sources' edges cross into side A (mask ``side_a``) when ``into_a``,
    else out of it. Each source's weight is carried to ``star`` along a
    shortest first-level path, stepping to the smallest neighbor one level
    closer to ``star``. A side whose only source is ``star`` is its crossing sum itself.
    """
    layers = _layers(adj, 1 << star, -1)
    if sources.mask & ~sum(layers):
        raise InvalidArgumentError("nodes are not connected in the first-level graph")
    terms: list[FactorExpr] = []
    out = c.graph.out_mask
    for node in sorted(sources):
        crossing = _shared_sum(sums, node, out[node] & (side_a if into_a else ~side_a))
        if node == star:
            terms.append(crossing)
            continue
        path = _descend(adj, layers, node)[::-1]
        pairs = [hops[hop] for hop in zip(path, path[1:])]
        term = product_of(
            [(fwd, 1) for fwd, _ in pairs] + [(bwd, -1) for _, bwd in pairs] + [(crossing, 1)]
        )
        terms.append(term)
    if len(terms) == 1 and isinstance(terms[0], SumExpr):
        return terms[0]
    return sum_of(terms)


def _sps_relation(
    c: FormalChain,
    h: HyperEdge,
    i_star: int,
    j_star: int,
    hops: _HopFactors,
    adj: list[int],
    sums: _Sums,
) -> Relation:
    side_a = h.cut.side_a.mask
    lhs = _side_factor(c, adj, hops, sums, i_star, h.cut.source_a, side_a, False)
    rhs = _side_factor(c, adj, hops, sums, j_star, h.cut.source_b, side_a, True)
    return make_relation(i_star, j_star, lhs, rhs)


def sps_relation(c: FormalChain, h: HyperEdge, i_star: int, j_star: int) -> Relation:
    """The two-node relation a component-pair cut induces between chosen members.

    The cut equation of ``h`` balances one weighted flow sum per side; every
    source node's weight is rewritten in terms of the chosen member's weight
    through ratios of first-level cut factors along a shortest path in the
    first-level graph (the chosen member's own ratio collapses away). The
    result is a sum-of-ratio-products identity between ``i_star`` and
    ``j_star`` alone; with singleton sources equal to the chosen members it
    degenerates to a plain width-level relation.
    """
    c1 = cut_graph(c)
    comps = c1.components
    if not (0 <= h.comp_i < len(comps) and 0 <= h.comp_j < len(comps)):
        raise InvalidArgumentError("hyperedge does not reference first-level components")
    if i_star not in comps[h.comp_i] or j_star not in comps[h.comp_j]:
        raise InvalidArgumentError(
            "the chosen members must belong to the hyperedge's two components"
        )
    # First-level paths stay inside their component, so only these two need factors.
    linked = comps[h.comp_i] | comps[h.comp_j]
    hops, adj = _hop_factors(c.graph.n, [s_relation(c, a, b) for a, b in c1.edges if a in linked])
    return _sps_relation(c, h, i_star, j_star, hops, adj, {})


# ---- the analysis pipeline ----


@dataclass(frozen=True)
class Analysis:
    """Everything ``analyze`` reports and ``verify`` checks, before formatting.

    Level 1 is held as its cut-graph edges ``pairs``, each (i, j) with i < j
    and sorted by their label pairs, and its ``components``; it holds no cut,
    and ``sourced_cut(c, i, j)`` gives a pair's. ``higher`` holds levels 2 and
    up. ``relations`` lists the first-level ones in pair order, then the
    level-2 ones in hyperedge order.
    """

    pairs: tuple[tuple[int, int], ...]
    components: tuple[NodeSet, ...]
    higher: list[CutHypergraph]
    relations: list[Relation]


def analyze(c: FormalChain, max_level: int) -> Analysis:
    """Levels 1 to ``max_level``, and every first- and second-level relation.

    Level 1 is the all-singletons partition: its pairs are the cut-graph
    edges, each with the crossing edges of its sourced cut read from the lane
    scan; ``_climb`` merges and rescans from there. The level-2 relations
    take their per-hop factors from the first-level relations. Every relation
    that needs the same crossing sum holds the same object, so there are at
    most as many distinct S factors as (node, crossing out-neighbours) pairs.
    """
    if max_level < 1:
        raise InvalidArgumentError(f"max_level must be at least 1, got {max_level}")
    g = c.graph
    # Labels are unique, so label ranks order the pairs as their sorted label pairs would.
    rank = {v: r for r, v in enumerate(sorted(range(g.n), key=g.labels.__getitem__))}
    first = sorted(
        _free_crossings(g),
        key=lambda t: (a, b) if (a := rank[t[0]]) < (b := rank[t[1]]) else (b, a),
    )
    pairs = tuple((i, j) for i, j, _, _ in first)
    comps = _components([1 << v for v in range(g.n)], pairs)
    higher = _climb(c, comps, max_level)
    sums: _Sums = {}
    # Each equals s_relation(c, i, j): i < j, and both sides are sums of atoms, so the rank is S.
    relations = [
        Relation(i, j, _shared_sum(sums, i, across_i), _shared_sum(sums, j, across_j), LEVEL_S)
        for i, j, across_i, across_j in first
    ]
    if higher:
        hops, adj = _hop_factors(g.n, relations)
        relations.extend(
            _sps_relation(c, h, min(h.cut.source_a), min(h.cut.source_b), hops, adj, sums)
            for h in higher[0].hyperedges
        )
    return Analysis(pairs, tuple(NodeSet(m, g.n) for m in comps), higher, relations)


# ---- broad search ----


def broad_cut_search(c: FormalChain, k1: NodeSet, k2: NodeSet) -> list[tuple[NodeSet, NodeSet]]:
    """Every free pair of nonempty subsets (I, J) with I within k1 and J within k2.

    Exhaustive over both powersets, so the two sets together may span at most
    the nodes that ``BUDGETS`` allows subset search; larger inputs are refused
    outright, not truncated. Results are sorted by (I, J) masks for determinism.
    """
    if not k1 or not k2 or not k1.isdisjoint(k2):
        raise InvalidArgumentError("component sets must be nonempty and disjoint")
    check_budget("subset search", len(k1) + len(k2))
    n = c.graph.n
    found: list[tuple[NodeSet, NodeSet]] = []
    # Each walk visits every nonempty submask once in decreasing order, so the
    # reversed list is sorted by (I, J).
    i_mask = k1.mask
    while i_mask:
        i_set = NodeSet(i_mask, n)
        j_mask = k2.mask
        while j_mask:
            j_set = NodeSet(j_mask, n)
            if is_jaf(c, i_set, j_set):
                found.append((i_set, j_set))
            j_mask = (j_mask - 1) & k2.mask
        i_mask = (i_mask - 1) & k1.mask
    found.reverse()
    return found


@dataclass(frozen=True)
class BroadPair:
    """The free subset pairs of one component pair, with what they say about two conjectures.

    Conjecture 1: a component pair with members is itself free
    (``components_free``). Conjecture 2: every member other than the full
    pair grows by one node into another member; ``stranded`` lists those that
    do not.
    """

    comp_i: NodeSet
    comp_j: NodeSet
    members: list[tuple[NodeSet, NodeSet]]
    components_free: bool
    stranded: list[tuple[NodeSet, NodeSet]]


def broad_pair_scan(
    c: FormalChain,
) -> tuple[list[BroadPair], list[tuple[NodeSet, NodeSet]]]:
    """Subset search over every pair of first-level components.

    Returns the pairs that have members, and the pairs skipped because
    ``broad_cut_search`` refuses them as over its node budget.
    """
    comps = cut_graph(c).components
    found: list[BroadPair] = []
    skipped: list[tuple[NodeSet, NodeSet]] = []
    for k1, k2 in itertools.combinations(comps, 2):
        try:
            members = broad_cut_search(c, k1, k2)
        except ResourceLimitError:
            skipped.append((k1, k2))
            continue
        if not members:
            continue
        masks = {(i.mask, j.mask) for i, j in members}
        stranded = [
            (i, j)
            for i, j in members
            if (i, j) != (k1, k2)
            and not any((i.mask | 1 << v, j.mask) in masks for v in k1 - i)
            and not any((i.mask, j.mask | 1 << v) in masks for v in k2 - j)
        ]
        found.append(BroadPair(k1, k2, members, is_jaf(c, k1, k2), stranded))
    return found, skipped

