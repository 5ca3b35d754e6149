"""Formal Markov chains, sourced cuts, the cut graph, and clique analysis.

A formal chain is a strongly connected digraph whose edge rates stay symbolic.
A *cut* is a bipartition (A, B) of the nodes; its *sources* are the nodes of A
with an edge into B and vice versa. Two nodes i, j are in a width-level
product-form relationship exactly when the cut sourced at ({i}, {j}) exists,
which happens exactly when their mutually avoiding ancestor sets are disjoint.
"""
from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InvalidArgumentError, NotStronglyConnectedError
from .factors import FactorExpr, Relation, SumExpr, RateAtom, make_relation, product_of, sum_of
from .graph_core import (
    DirectedGraph,
    NodeSet,
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
    """A bipartition of the node set with its crossing sources on each side."""

    side_a: NodeSet
    side_b: NodeSet
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

    Seeds must be nonempty and disjoint. The two results always cover V
    (every node reaches one seed before the other blocks it); they are
    disjoint exactly when the seed pair is joint-ancestor free.
    """
    if not i_set or not j_set:
        raise InvalidArgumentError("both seed sets must be nonempty")
    if not i_set.isdisjoint(j_set):
        raise InvalidArgumentError("seed sets overlap")
    return (
        ancestors_avoiding(c.graph, i_set, j_set),
        ancestors_avoiding(c.graph, j_set, i_set),
    )


def is_jaf(c: FormalChain, i_set: NodeSet, j_set: NodeSet) -> bool:
    """True when the two seed sets have no joint ancestor (their MAA sets are disjoint)."""
    a, b = mutually_avoiding_ancestors(c, i_set, j_set)
    return a.isdisjoint(b)


def _sources(g: DirectedGraph, a_mask: int, b_mask: int) -> tuple[int, int]:
    src_a = 0
    src_b = 0
    m = a_mask
    while m:
        low = m & -m
        u = low.bit_length() - 1
        if g.out_mask[u] & b_mask:
            src_a |= low
        m ^= low
    m = b_mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if g.out_mask[v] & a_mask:
            src_b |= low
        m ^= low
    return src_a, src_b


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
    full = (1 << g.n) - 1
    a = _closure(g.in_mask, 1 << i, full & ~(1 << j))
    b = _closure(g.in_mask, 1 << j, full & ~(1 << i))
    if a & b:
        return None
    assert a | b == full, "disjoint avoiding-ancestor sets must cover all nodes"
    src_a, src_b = _sources(g, a, b)
    assert src_a == 1 << i and src_b == 1 << j, (
        f"cut from nodes ({g.labels[i]}, {g.labels[j]}) has sources "
        f"{bin(src_a)}/{bin(src_b)}; expected exactly the defining pair"
    )
    return Cut(NodeSet(a, g.n), NodeSet(b, g.n), NodeSet(1 << i, g.n), NodeSet(1 << j, g.n))


def s_factors(
    c: FormalChain, i: int, j: int, cut: Cut | None = None
) -> tuple[SumExpr, SumExpr] | None:
    """The factor pair (f_ij, f_ji) of the cut sourced at ({i}, {j}), or None.

    f_ij sums the rates of i's edges into j's cut side, so
    ``pi[i] * f_ij = pi[j] * f_ji`` is the cut equation of the sourced cut.
    A caller that already holds ``sourced_cut(c, i, j)`` passes it as ``cut``.
    """
    if cut is None:
        cut = sourced_cut(c, i, j)
        if cut is None:
            return None
    g = c.graph
    f_ij = sum_of(RateAtom(i, k) for k in g.out_adj[i] if k in cut.side_b)
    f_ji = sum_of(RateAtom(j, k) for k in g.out_adj[j] if k in cut.side_a)
    return f_ij, f_ji


def s_relation(c: FormalChain, i: int, j: int, cut: Cut | None = None) -> Relation | None:
    """The width-level relation of a cut-graph edge, oriented by node index.

    ``cut``, when given, must be ``sourced_cut(c, i, j)``.
    """
    pair = s_factors(c, i, j, cut)
    if pair is None:
        return None
    return make_relation(i, j, pair[0], pair[1])


def compose_ps(path: Sequence[int], chain: FormalChain) -> Relation:
    """Relation between the endpoints of a path in the cut graph.

    Multiplies the per-hop factor pairs along ``path``: with hops
    ``k_1, ..., k_{d+1}`` the identity is
    ``pi[k_1] * prod_p f(k_p, k_{p+1}) = pi[k_{d+1}] * prod_p f(k_{p+1}, k_p)``.
    Consecutive path nodes must admit a sourced cut (be joint-ancestor free);
    a single hop yields the plain width-level relation of that edge.

    The caller is responsible for passing a shortest cut-graph path when the
    closed-form circuit-size guarantee (depth 2, size 1 + d + total width) is
    wanted; longer valid paths still give correct relations.
    """
    if len(path) < 2:
        raise InvalidArgumentError("a path relation needs at least two nodes")
    if len(set(path)) != len(path):
        raise InvalidArgumentError("path nodes must be distinct")
    forward: list[FactorExpr] = []
    backward: list[FactorExpr] = []
    for a, b in zip(path, path[1:]):
        pair = s_factors(chain, a, b)
        if pair is None:
            raise InvalidArgumentError(
                f"nodes {chain.graph.labels[a]!r} and {chain.graph.labels[b]!r} share a joint "
                "ancestor; consecutive path nodes must be cut-graph neighbors"
            )
        forward.append(pair[0])
        backward.append(pair[1])
    if len(forward) == 1:
        lhs, rhs = forward[0], backward[0]
    else:
        lhs = product_of((f, 1) for f in forward)
        rhs = product_of((f, 1) for f in backward)
    return make_relation(path[0], path[-1], lhs, rhs)


def _dominator_subtree_sizes(
    succ: Sequence[Sequence[int]], pred: Sequence[Sequence[int]], root: int
) -> list[int]:
    """Subtree size of every node in the dominator tree of ``succ`` rooted at ``root``.

    Simple Lengauer-Tarjan (path compression without balancing), written
    iteratively; every node must be reachable from ``root``. Works on 1-based
    DFS preorder numbers so that 0 can stand for "no forest ancestor".
    """
    n = len(succ)
    num = [0] * n  # node -> preorder number, 0 while unvisited
    order = [0]  # preorder number -> node
    parent = [0]
    # Marking nodes when popped, not when pushed, keeps this a depth-first order.
    stack = [(root, 0)]
    while stack:
        v, p = stack.pop()
        if num[v]:
            continue
        num[v] = len(order)
        order.append(v)
        parent.append(p)
        for w in succ[v]:
            if not num[w]:
                stack.append((w, num[v]))
    assert len(order) == n + 1, "every node must be reachable from the dominator-tree root"
    semi = list(range(n + 1))
    label = semi[:]
    ancestor = [0] * (n + 1)
    idom = [0] * (n + 1)
    # Buckets of nodes by semidominator, as linked lists threaded through nxt.
    head = [0] * (n + 1)
    nxt = [0] * (n + 1)

    def compress(v: int) -> None:
        chain = []
        while ancestor[ancestor[v]]:
            chain.append(v)
            v = ancestor[v]
        for x in reversed(chain):
            a = ancestor[x]
            if semi[label[a]] < semi[label[x]]:
                label[x] = label[a]
            ancestor[x] = ancestor[a]

    for w in range(n, 1, -1):
        s = semi[w]
        for v in pred[order[w]]:
            v = num[v]
            if ancestor[ancestor[v]]:
                compress(v)
            u = semi[label[v]]
            if u < s:
                s = u
        semi[w] = s
        nxt[w] = head[s]
        head[s] = w
        p = parent[w]
        ancestor[w] = p
        v = head[p]
        while v:
            if ancestor[ancestor[v]]:
                compress(v)
            u = label[v]
            idom[v] = u if semi[u] < semi[v] else p
            v = nxt[v]
        head[p] = 0
    for w in range(2, n + 1):
        if idom[w] != semi[w]:
            idom[w] = idom[idom[w]]
    size = [1] * (n + 1)
    for w in range(n, 1, -1):
        size[idom[w]] += size[w]
    return [size[k] for k in num]


def cut_graph(c: FormalChain) -> CutGraph:
    """Find every unordered node pair with a sourced cut and bundle the results.

    On the reversed graph rooted at i, a node reaches i while avoiding j in
    the chain exactly when j does not dominate it, so the avoiding-ancestor
    set of i is ``V - Sub_i(j)``, where ``Sub_i(j)`` is j's subtree in the
    dominator tree rooted at i. The pair is free exactly when
    ``Sub_i(j) | Sub_j(i) == V``. The two subtrees never overlap: a node in
    both could reach neither i without passing j nor j without passing i,
    yet a shortest path from it to {i, j} ends at one of them without
    passing the other. So the test
    reduces to the two subtree sizes summing to |V|, which needs n sizes
    per tree rather than n masks. That costs one Lengauer-Tarjan tree per
    root, O(|V| |E| log |V|) in all, plus |V|^2 / 2 additions.
    ``sourced_cut`` keeps the per-pair closures as an independent route.
    Components are computed eagerly, ordered by their lowest node, and every
    node appears in one, isolated nodes as singletons.
    """
    g = c.graph
    n = g.n
    sizes = [_dominator_subtree_sizes(g.in_adj, g.out_adj, root) for root in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if sizes[i][j] + sizes[j][i] == n
    ]
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

    def territory(self, member: int) -> NodeSet:
        for m, t in self.territories:
            if m == member:
                return t
        raise InvalidArgumentError(f"node {member} is not a clique member")


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
    territories: list[tuple[int, NodeSet]] = []
    union = 0
    for i in members:
        others = k.mask & ~(1 << i)
        t = _closure(g.in_mask, 1 << i, full & ~others)
        for _, prev in territories:
            if prev.mask & t:
                return None
        territories.append((i, NodeSet(t, g.n)))
        union |= t
    assert union == full, "territories of a strongly connected chain must cover all nodes"
    # quotient graph: an edge m1 -> m2 when any edge leaves m1's territory into m2's
    quotient: dict[int, set[int]] = {m: set() for m in members}
    for m1, t1 in territories:
        for m2, t2 in territories:
            if m1 == m2:
                continue
            if any(g.out_mask[u] & t2.mask for u in t1):
                quotient[m1].add(m2)
    indeg = {m: 0 for m in members}
    for m1, outs in quotient.items():
        if len(outs) != 1:
            return None
        for m2 in outs:
            indeg[m2] += 1
    if any(d != 1 for d in indeg.values()):
        return None
    # single cycle through every member (not several disjoint cycles)
    start = members[0]
    order = [start]
    here = next(iter(quotient[start]))
    while here != start:
        order.append(here)
        here = next(iter(quotient[here]))
    if len(order) != len(members):
        return None
    return CliqueAnalysis(
        clique=k,
        territories=tuple(territories),
        quotient_edges=frozenset((m1, m2) for m1, outs in quotient.items() for m2 in outs),
        cycle_order=tuple(order),
    )


def clique_territory_cut(c: FormalChain, analysis: CliqueAnalysis, i: int, j: int) -> Cut:
    """The (i, j)-sourced cut implied by a verified clique, assembled from territories.

    Side A unions the territories of the quotient-cycle members that reach i
    without passing j; side B the rest. Equals ``sourced_cut(c, i, j)``.
    """
    members = [m for m, _ in analysis.territories]
    if i not in members or j not in members or i == j:
        raise InvalidArgumentError("both nodes must be distinct clique members")
    index = {m: p for p, m in enumerate(members)}
    quotient = DirectedGraph(
        [str(m) for m in members],
        [(index[a], index[b]) for a, b in sorted(analysis.quotient_edges)],
    )
    reach_i = ancestors_avoiding(
        quotient, NodeSet.of([index[i]], len(members)), NodeSet.of([index[j]], len(members))
    )
    side_a_mask = 0
    for p in reach_i:
        side_a_mask |= analysis.territory(members[p]).mask
    side_a = NodeSet(side_a_mask, c.graph.n)
    side_b = side_a.complement()
    src_a, src_b = _sources(c.graph, side_a.mask, side_b.mask)
    return Cut(side_a, side_b, NodeSet(src_a, c.graph.n), NodeSet(src_b, c.graph.n))
