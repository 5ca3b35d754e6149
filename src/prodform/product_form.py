"""Formal Markov chains, sourced cuts, the cut graph, and clique analysis.

A formal chain is a strongly connected digraph whose edge rates stay symbolic.
A *cut* is a bipartition (A, B) of the nodes; its *sources* are the nodes of A
with an edge into B and vice versa. Two nodes i, j are in a width-level
product-form relationship exactly when the cut sourced at ({i}, {j}) exists,
which happens exactly when their mutually avoiding ancestor sets are disjoint.

Level 1 is decided per block (biconnected component) of the undirected graph
under the chain, by this lemma. Let p, q be two nodes of a strongly connected
chain. Then {p, q} is free exactly when no part (connected component) of the
undirected graph without p and q has edges into both p and q. Proof: a path
from a part leaves it first into p or q, so a part with edges into p alone
holds no node that reaches q while avoiding p, and p and q are no joint
ancestors; so the pair is free. Conversely, if it is free, its cut (A, V - A)
has sources exactly p and q (see ``_free_lanes``). So no edge joins A - p and
V - A - q, every part lies on one side, and an edge from a part inside A - p
into q would make a second source of A.

Three facts follow. (1) Each block is strongly connected: every edge lies on
a directed cycle, and a cycle lies inside one block. (2) A free pair lies in
one block: otherwise an articulation point a, not p or q, separates them.
After its last visit to a, a path from a to p stays in the part of the
graph without a that holds p, which misses q; so a reaches p while avoiding
q, and q while avoiding p alike. (3) For p, q in block B, every node x
outside B hangs off one articulation point w of B: every path between x and
B passes w. A path that leaves B returns through the node it left by, so
avoiding-ancestor sets inside B are those of the induced subgraph G[B]; and
x reaches p or q first exactly when w does (w is p or q itself, or holds
that verdict). So the pair is free in G exactly when it is free in G[B].
Its crossing edges lie inside B: if p has an edge to a node x outside B,
x hangs off p itself (the edge joins x to B at p), so every path from x to q
passes p; x is on p's side, and the edge does not cross. Likewise for q.
Blocks cost O(|V| + |E|) to find (Hopcroft & Tarjan 1973), so level 1
costs the sum of |B| |E_B| over blocks rather than |V| |E|, and it builds
no cut side.
"""
from __future__ import annotations

import enum
import functools
import reprlib
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass

from .errors import InvalidArgumentError, NotStronglyConnectedError
from .factors import Relation, SumExpr, RateAtom, chain_relations, make_relation
from .graph_core import (
    DirectedGraph,
    NodeSet,
    _blocks,
    _closure,
    _components,
    ancestors_avoiding,
    connectivity_witness,
)

# ---- chain ----


class ChainKind(enum.Enum):
    CTMC = "ctmc"
    DTMC = "dtmc"


class FormalChain:
    """A strongly connected digraph with symbolic rates, tagged CTMC or DTMC.

    The kind only matters when rates are instantiated (DTMC rows are
    probability distributions); every structural query is kind-agnostic.
    """

    __slots__ = ("graph", "kind")

    def __init__(self, graph: DirectedGraph, kind: ChainKind = ChainKind.CTMC):
        witness = connectivity_witness(graph)
        if witness is not None:
            u, v = witness
            raise NotStronglyConnectedError((graph.labels[u], graph.labels[v]))
        self.graph = graph
        self.kind = kind

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        return f"FormalChain({self.graph.n} nodes, {self.graph.edge_count} edges, {self.kind.value})"


# ---- cuts ----


@dataclass(frozen=True)
class Cut:
    """A bipartition (``side_a`` and its complement) with its crossing sources on each side."""

    side_a: NodeSet
    source_a: NodeSet
    source_b: NodeSet


@dataclass(frozen=True)
class CutGraph:
    """The undirected graph of node pairs admitting a sourced cut, plus its components."""

    edges: frozenset[tuple[int, int]]
    components: tuple[NodeSet, ...]


def mutually_avoiding_ancestors(
    c: FormalChain, i_set: NodeSet, j_set: NodeSet
) -> tuple[NodeSet, NodeSet]:
    """Ancestors of each seed set inside the subgraph avoiding the other.

    Seeds must be nonempty and disjoint (``ancestors_avoiding`` checks). The
    results always cover V (every node reaches one seed before the other
    blocks it); they are disjoint exactly when the pair is joint-ancestor free.
    """
    return (
        ancestors_avoiding(c.graph, i_set, j_set),
        ancestors_avoiding(c.graph, j_set, i_set),
    )


def is_jaf(c: FormalChain, i_set: NodeSet, j_set: NodeSet) -> bool:
    """True when the two seed sets have no joint ancestor (their MAA sets are disjoint)."""
    a, b = mutually_avoiding_ancestors(c, i_set, j_set)
    return a.isdisjoint(b)


def _leaving(g: DirectedGraph, within: int, into: int) -> int:
    """The nodes of ``within`` with an edge into ``into``, as a mask."""
    found = 0
    m = within
    while m:
        low = m & -m
        if g.out_mask[low.bit_length() - 1] & into:
            found |= low
        m ^= low
    return found


def _sources(g: DirectedGraph, a_mask: int, b_mask: int) -> tuple[int, int]:
    return _leaving(g, a_mask, b_mask), _leaving(g, b_mask, a_mask)


def _crossing_sum(node: int, crossing: int) -> SumExpr:
    """The rates of ``node``'s edges into the nodes of mask ``crossing``."""
    assert crossing, "a cut source must have at least one crossing edge"
    atoms = []
    while crossing:
        low = crossing & -crossing
        atoms.append(RateAtom(node, low.bit_length() - 1))
        crossing ^= low
    return SumExpr(tuple(atoms))


def cut_source(c: FormalChain, side_a: NodeSet) -> tuple[NodeSet, NodeSet]:
    """The source nodes of the bipartition (side_a, V - side_a), both directions."""
    g = c.graph
    if side_a.universe != g.n:
        raise InvalidArgumentError("side set belongs to a different graph")
    full = (1 << g.n) - 1
    if side_a.mask == 0 or side_a.mask == full:
        raise InvalidArgumentError("a cut side must be a nonempty proper subset")
    src_a, src_b = _sources(g, side_a.mask, full & ~side_a.mask)
    return NodeSet(src_a, g.n), NodeSet(src_b, g.n)


def sourced_cut(c: FormalChain, i: int, j: int) -> Cut | None:
    """The unique cut sourced at ({i}, {j}), or None when the pair shares an ancestor."""
    g = c.graph
    if i == j or not (0 <= i < g.n and 0 <= j < g.n):
        raise InvalidArgumentError("a sourced cut needs two distinct valid nodes")
    seed_i, seed_j = NodeSet(1 << i, g.n), NodeSet(1 << j, g.n)
    side_a, side_b = mutually_avoiding_ancestors(c, seed_i, seed_j)
    if not side_a.isdisjoint(side_b):
        return None
    assert len(side_a) + len(side_b) == g.n, "disjoint avoiding-ancestor sets must cover all nodes"
    src_a, src_b = _sources(g, side_a.mask, side_b.mask)
    assert src_a == 1 << i and src_b == 1 << j, (
        f"cut from nodes ({g.labels[i]}, {g.labels[j]}) has sources "
        f"{bin(src_a)}/{bin(src_b)}; expected exactly the defining pair"
    )
    return Cut(side_a, seed_i, seed_j)


def s_factors(c: FormalChain, i: int, j: int) -> tuple[SumExpr, SumExpr] | None:
    """The factor pair (f_ij, f_ji) of the cut sourced at ({i}, {j}), or None.

    f_ij sums the rates of i's edges into j's cut side, so
    ``pi[i] * f_ij = pi[j] * f_ji`` is the cut equation of the sourced cut.
    """
    cut = sourced_cut(c, i, j)
    if cut is None:
        return None
    side_a = cut.side_a.mask
    out = c.graph.out_mask
    return _crossing_sum(i, out[i] & ~side_a), _crossing_sum(j, out[j] & side_a)


def s_relation(c: FormalChain, i: int, j: int) -> Relation | None:
    """The width-level relation of a cut-graph edge, oriented by node index."""
    pair = s_factors(c, i, j)
    if pair is None:
        return None
    return make_relation(i, j, pair[0], pair[1])


def compose_ps(path: Sequence[int], chain: FormalChain) -> Relation:
    """Relation between the endpoints of a path in the cut graph.

    Chains the per-hop relations with ``chain_relations``: with hops
    ``k_1, ..., k_{d+1}`` the identity is
    ``pi[k_1] * prod_p f(k_p, k_{p+1}) = pi[k_{d+1}] * prod_p f(k_{p+1}, k_p)``,
    whose far side lists its factors from the last hop back. Consecutive path
    nodes must be joint-ancestor free; one hop gives that edge's S relation.

    The caller is responsible for passing a shortest cut-graph path when the
    closed-form circuit-size guarantee (depth 2, size 1 + d + total width) is
    wanted; longer valid paths still give correct relations.
    """
    if len(path) < 2:
        raise InvalidArgumentError("a path relation needs at least two nodes")
    if len(set(path)) != len(path):
        raise InvalidArgumentError("path nodes must be distinct")
    hops: list[Relation] = []
    for a, b in zip(path, path[1:]):
        hop = s_relation(chain, a, b)
        if hop is None:
            raise InvalidArgumentError(
                f"nodes {reprlib.repr(chain.graph.labels[a])} and {reprlib.repr(chain.graph.labels[b])} "
                "share a joint ancestor; consecutive path nodes must be cut-graph neighbors"
            )
        hops.append(hop)
    return functools.reduce(chain_relations, hops)


def _free_lanes(
    in_adj: Sequence[Sequence[int]],
    out_adj: Sequence[Sequence[int]],
    comps: Sequence[int],
    settled: Collection[int] = (),
) -> Iterator[tuple[int, int, int, list[int]]]:
    """Decide every pair of a node partition in one worklist pass per first component.

    The graph is given by its adjacency lists, so a block's induced subgraph
    needs no ``DirectedGraph``. ``comps`` is a partition of its nodes as
    masks. For each component ``p`` this yields ``(p, lanes, free, state)``.
    Bit ``q`` of ``lanes`` is set for every later component ``q`` unless both
    masks are in ``settled``; each such "lane" decides the pair (p, q). Bit ``q`` of ``state[v]`` holds exactly when
    v is in ``ancestors_avoiding(K_p, K_q)``, and bit ``q`` of ``free`` says
    whether the pair is joint-ancestor free. A ``p`` without lanes is skipped.

    The states are the least fixpoint of "K_p holds every lane; any other node
    holds the union of its successors' lanes, minus its own component's lane".
    The update is monotone, so a worklist reaches that fixpoint whatever the
    visiting order (Kam & Ullman 1976); the lanes are the avoided sets of a
    multi-source bit-parallel traversal (Then et al., PVLDB 8(4), 2014).

    Let A be lane q's side. In a strongly connected chain every node reaches
    K_p or K_q before the other, so V - A lies inside K_q's avoiding-ancestor
    set. A node of A outside K_p with an edge out of A therefore reaches K_q
    while avoiding K_p, a joint ancestor; and any joint ancestor in A leaves
    A on its way to K_q through such an edge. So the pair is free exactly when
    every source of A lies in K_p, and then the cut is (A, V - A). Every
    source of V - A lies in K_q: a node of V - A outside K_q with an edge into
    A would reach K_p while avoiding K_q, so it would be in A. A node
    outside K_p spoils every lane it holds that one of its successors lacks.
    """
    n = len(in_adj)
    comp_of = [0] * n
    for q, mask in enumerate(comps):
        for v in NodeSet(mask, n):
            comp_of[v] = q
    everything = (1 << len(comps)) - 1
    # A node never holds its own component's lane.
    keep = [everything ^ 1 << q for q in comp_of]
    unsettled = sum(1 << q for q, mask in enumerate(comps) if mask not in settled)
    for p, mask in enumerate(comps):
        lanes = everything >> p + 1 << p + 1
        if mask in settled:
            lanes &= unsettled
        if not lanes:
            continue
        state = [0] * n
        queued = [False] * n
        # Members of K_p hold every lane from the start, so they never re-enter.
        queue = list(NodeSet(mask, n))
        for v in queue:
            state[v] = lanes
        # A FIFO worklist: the loop also visits the nodes appended while it runs.
        for v in queue:
            queued[v] = False
            sv = state[v]
            for u in in_adj[v]:
                su = state[u]
                s = su | sv & keep[u]
                if s != su:
                    state[u] = s
                    if not queued[u]:
                        queued[u] = True
                        queue.append(u)
        bad = 0
        for sv, succ, q in zip(state, out_adj, comp_of):
            if sv and q != p:
                held = sv
                for w in succ:
                    held &= state[w]
                bad |= sv ^ held
        yield p, lanes, lanes & ~bad, state


def _free_crossings(g: DirectedGraph) -> Iterator[tuple[int, int, int, int]]:
    """Every free pair of single nodes with the crossing edges of its cut, block by block.

    Yields ``(i, j, across_i, across_j)`` with i < j: ``across_i`` is the
    mask of i's out-neighbours outside i's cut side, and ``across_j`` that of
    j's out-neighbours inside it. The cut's sources are exactly i and j. Each
    block is decided on its own (see the module docstring): a chain that is
    one block is scanned as it is, a two-node block is a free pair, and a
    larger block is scanned as its induced subgraph. Node t is on i's side
    exactly when bit j of its lane state is set, so each mask is read from
    the states of i's and j's out-neighbours in the block; those outside it
    are never crossed into. The blocks come in search order.
    """
    n = g.n
    for block in _blocks(g):
        if block.bit_count() == 2:
            i = (block & -block).bit_length() - 1
            j = block.bit_length() - 1
            yield i, j, 1 << j, 1 << i
            continue
        if block == (1 << n) - 1:
            nodes = range(n)
            in_adj, out_adj = g.in_adj, g.out_adj
        else:
            nodes = list(NodeSet(block, n))
            local = {v: k for k, v in enumerate(nodes)}
            in_adj = [[local[u] for u in g.in_adj[v] if block >> u & 1] for v in nodes]
            out_adj = [[local[w] for w in g.out_adj[v] if block >> w & 1] for v in nodes]
        bits = [1 << v for v in nodes]
        for p, _, free, state in _free_lanes(in_adj, out_adj, [1 << k for k in range(len(nodes))]):
            out_p = out_adj[p]
            while free:
                lane = free & -free
                free ^= lane
                q = lane.bit_length() - 1
                across_p = across_q = 0
                for w in out_p:
                    if not state[w] & lane:
                        across_p |= bits[w]
                for w in out_adj[q]:
                    if state[w] & lane:
                        across_q |= bits[w]
                yield nodes[p], nodes[q], across_p, across_q


def cut_graph(c: FormalChain) -> CutGraph:
    """Find every unordered node pair with a sourced cut and bundle the results.

    The pairs are those ``_free_crossings`` finds: a free pair of single
    nodes has exactly those two nodes as sources, so its cut is the one
    sourced at them. ``sourced_cut`` keeps the per-pair closures as an
    independent route. Components are computed eagerly, ordered by their
    lowest node, and every node appears in one, isolated nodes as singletons.
    """
    n = c.graph.n
    edges = [(i, j) for i, j, _, _ in _free_crossings(c.graph)]
    components = _components([1 << v for v in range(n)], edges)
    return CutGraph(frozenset(edges), tuple(NodeSet(m, n) for m in components))


# ---- cliques ----


@dataclass(frozen=True)
class CliqueAnalysis:
    """A verified cut-graph clique: its territories and the quotient cycle over them.

    ``territories`` lists (member, territory) pairs sorted by member index; the
    territories partition V. ``cycle_order`` walks the quotient cycle starting
    at the smallest member.
    """

    clique: NodeSet
    territories: tuple[tuple[int, NodeSet], ...]
    quotient_edges: frozenset[tuple[int, int]]
    cycle_order: tuple[int, ...]


def clique_check(c: FormalChain, k: NodeSet) -> CliqueAnalysis | None:
    """Decide whether ``k`` is a clique of the cut graph, via territories.

    Each member's territory is the set of nodes that reach it before reaching
    any other member. ``k`` is a clique exactly when the territories are
    pairwise disjoint (hence partition V) and the quotient graph over them is
    one directed cycle through every member. Cheaper than |k|^2 pair checks
    and additionally yields every pairwise sourced cut via the quotient.
    """
    g = c.graph
    if k.universe != g.n:
        raise InvalidArgumentError("clique set belongs to a different graph")
    members = sorted(k)
    if len(members) < 2:
        raise InvalidArgumentError("a clique needs at least two nodes")
    full = (1 << g.n) - 1
    territories: list[int] = []
    union = 0
    for i in members:
        t = _closure(g.in_mask, 1 << i, full & ~k.mask)
        if union & t:
            return None
        territories.append(t)
        union |= t
    assert union == full, "territories of a strongly connected chain must cover all nodes"
    # quotient graph: an edge m1 -> m2 when any edge leaves m1's territory into m2's
    succ: dict[int, int] = {}
    for m1, t1 in zip(members, territories):
        outs = [m2 for m2, t2 in zip(members, territories) if m2 != m1 and _leaving(g, t1, t2)]
        if len(outs) != 1:
            return None
        succ[m1] = outs[0]
    # The quotient of a strongly connected chain is strongly connected, so with
    # one edge out of every member it is a single cycle through all of them.
    order = [members[0]]
    while (here := succ[order[-1]]) != order[0]:
        order.append(here)
    assert len(order) == len(members), "a strongly connected quotient must be one cycle"
    return CliqueAnalysis(
        clique=k,
        territories=tuple((m, NodeSet(t, g.n)) for m, t in zip(members, territories)),
        quotient_edges=frozenset(succ.items()),
        cycle_order=tuple(order),
    )


def clique_territory_cut(c: FormalChain, analysis: CliqueAnalysis, i: int, j: int) -> Cut:
    """The (i, j)-sourced cut implied by a verified clique, assembled from territories.

    Side A unions the territories of the quotient-cycle members that reach i
    without passing j: the arc of ``cycle_order`` from j's successor to i.
    Side B is the rest. Equals ``sourced_cut(c, i, j)``.
    """
    territory = dict(analysis.territories)
    if i not in territory or j not in territory or i == j:
        raise InvalidArgumentError("both nodes must be distinct clique members")
    order = analysis.cycle_order
    after_j = order.index(j) + 1
    walk = order[after_j:] + order[:after_j]
    side_a_mask = 0
    for m in walk[: walk.index(i) + 1]:
        side_a_mask |= territory[m].mask
    n = c.graph.n
    src_a, src_b = _sources(c.graph, side_a_mask, (1 << n) - 1 ^ side_a_mask)
    return Cut(NodeSet(side_a_mask, n), NodeSet(src_a, n), NodeSet(src_b, n))
