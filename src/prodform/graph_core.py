"""Dense directed graphs, bitset node sets, and ancestor/reachability queries.

Nodes are dense integer indices ``0..n-1`` carrying string labels; all set-valued
queries work on :class:`NodeSet` bitmasks so the hot loops are integer arithmetic.
Parallel edges are rejected at construction; self-loops are permitted.

One breadth-first walk, ``_layers``, gives a seed's hop-count layers as masks:
closures are their union, and ``_descend`` reads shortest paths off them.
"""
from __future__ import annotations

import reprlib
from collections.abc import Iterable, Iterator, Sequence

from .errors import InvalidArgumentError

# ---- node sets ----


class NodeSet:
    """Immutable set of node indices backed by an integer bitmask.

    ``universe`` is the number of nodes in the owning graph; it guards against
    mixing sets from different graphs.
    """

    __slots__ = ("mask", "universe")

    def __init__(self, mask: int, universe: int):
        if mask < 0 or mask >> universe:
            raise InvalidArgumentError(f"mask {mask:#x} does not fit a {universe}-node universe")
        self.mask = mask
        self.universe = universe

    @classmethod
    def of(cls, indices: Iterable[int], universe: int) -> NodeSet:
        mask = 0
        for i in indices:
            if not 0 <= i < universe:
                raise InvalidArgumentError(f"node index {i} out of range 0..{universe - 1}")
            mask |= 1 << i
        return cls(mask, universe)

    # ---- queries ----

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe and bool(self.mask >> index & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NodeSet)
            and self.mask == other.mask
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.universe))

    def __repr__(self) -> str:
        return f"NodeSet({{{', '.join(map(str, self))}}}, universe={self.universe})"

    def isdisjoint(self, other: NodeSet) -> bool:
        return not self.mask & other.mask

    # ---- algebra ----

    def _check(self, other: NodeSet) -> None:
        if self.universe != other.universe:
            raise InvalidArgumentError("node sets belong to different universes")

    def __or__(self, other: NodeSet) -> NodeSet:
        self._check(other)
        return NodeSet(self.mask | other.mask, self.universe)

    def __and__(self, other: NodeSet) -> NodeSet:
        self._check(other)
        return NodeSet(self.mask & other.mask, self.universe)

    def __sub__(self, other: NodeSet) -> NodeSet:
        self._check(other)
        return NodeSet(self.mask & ~other.mask, self.universe)


# ---- graphs ----


class DirectedGraph:
    """A finite directed graph over labelled, densely indexed nodes.

    Both adjacency directions are materialized once at construction: sorted
    neighbor tuples for ordered traversal and bitmasks for set-valued queries.
    """

    __slots__ = ("labels", "index_of", "out_adj", "in_adj", "out_mask", "in_mask", "edge_list")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        if not labels:
            raise InvalidArgumentError("a graph needs at least one node")
        if len(set(labels)) != len(labels):
            raise InvalidArgumentError("node labels must be unique")
        n = len(labels)
        out_sets: list[set[int]] = [set() for _ in range(n)]
        in_sets: list[set[int]] = [set() for _ in range(n)]
        edge_list: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidArgumentError(f"edge ({u}, {v}) references a missing node")
            if v in out_sets[u]:
                raise InvalidArgumentError(
                    f"parallel edge {reprlib.repr(labels[u])} -> {reprlib.repr(labels[v])}; "
                    "rates must be pre-aggregated"
                )
            out_sets[u].add(v)
            in_sets[v].add(u)
            edge_list.append((u, v))
        self.labels = labels
        self.index_of = {label: i for i, label in enumerate(labels)}
        self.out_adj = tuple(tuple(sorted(s)) for s in out_sets)
        self.in_adj = tuple(tuple(sorted(s)) for s in in_sets)
        self.out_mask = tuple(sum(1 << v for v in s) for s in out_sets)
        self.in_mask = tuple(sum(1 << u for u in s) for s in in_sets)
        self.edge_list = tuple(sorted(edge_list))

    @classmethod
    def from_labeled_edges(cls, labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> DirectedGraph:
        index = {label: i for i, label in enumerate(labels)}
        pairs = []
        for a, b in edges:
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise InvalidArgumentError(f"edge endpoint {reprlib.repr(missing)} is not a declared node")
            pairs.append((index[a], index[b]))
        return cls(labels, pairs)

    # ---- queries ----

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edge_list)

    def __repr__(self) -> str:
        return f"DirectedGraph({self.n} nodes, {self.edge_count} edges)"


# ---- reachability primitives ----


def _gather(mask: int, table: Sequence[int]) -> int:
    """The union of ``table[k]`` over the bits k of ``mask``."""
    found = 0
    while mask:
        low = mask & -mask
        found |= table[low.bit_length() - 1]
        mask ^= low
    return found


def _layers(adj_masks: Sequence[int], seed_mask: int, allowed_mask: int) -> list[int]:
    """The breadth-first layers from ``seed_mask`` along ``adj_masks``, as disjoint masks.

    Layer d holds the nodes d steps from the seed. Only nodes in
    ``allowed_mask`` are entered after the seed itself. Every node enters one
    layer, and its adjacency mask is read once, when its layer is expanded.
    """
    layers = []
    seen = frontier = seed_mask
    while frontier:
        layers.append(frontier)
        frontier = _gather(frontier, adj_masks) & allowed_mask & ~seen
        seen |= frontier
    return layers


def _closure(adj_masks: Sequence[int], seed_mask: int, allowed_mask: int) -> int:
    """Closure of ``seed_mask`` under one adjacency step, restricted to ``allowed_mask``."""
    # The layers are disjoint, so their sum is their union.
    return sum(_layers(adj_masks, seed_mask, allowed_mask))


def _descend(adj_masks: Sequence[int], layers: Sequence[int], here: int) -> list[int]:
    """Walk from ``here`` to the seed, each step to the lowest-index neighbour one layer closer.

    ``layers`` come from ``_layers`` run along the reverse of ``adj_masks``,
    and must hold ``here``.
    """
    depth = next(d for d, layer in enumerate(layers) if layer >> here & 1)
    path = [here]
    for layer in reversed(layers[:depth]):
        step = adj_masks[here] & layer
        here = (step & -step).bit_length() - 1
        path.append(here)
    return path


def ancestors_avoiding(g: DirectedGraph, seed: NodeSet, avoid: NodeSet) -> NodeSet:
    """Ancestors of ``seed`` inside the subgraph induced on ``V - avoid``.

    One closure restricted to the allowed nodes, without materializing the
    subgraph. ``seed`` must be nonempty and disjoint from ``avoid``.
    """
    if seed.universe != g.n or avoid.universe != g.n:
        raise InvalidArgumentError("node sets belong to a different graph")
    if not seed:
        raise InvalidArgumentError("ancestor query requires a nonempty seed")
    if not seed.isdisjoint(avoid):
        raise InvalidArgumentError("seed and avoided set overlap")
    return NodeSet(_closure(g.in_mask, seed.mask, (1 << g.n) - 1 & ~avoid.mask), g.n)


# ---- derived operations ----


def connectivity_witness(g: DirectedGraph) -> tuple[int, int] | None:
    """None if strongly connected, else a pair ``(u, v)`` with ``v`` unreachable from ``u``."""
    full = (1 << g.n) - 1
    fwd = _closure(g.out_mask, 1, full)
    if fwd != full:
        missing = (~fwd & full).bit_length() - 1
        return 0, missing
    rev = _closure(g.in_mask, 1, full)
    if rev != full:
        missing = (~rev & full).bit_length() - 1
        return missing, 0
    return None


# ---- traversal primitives ----


def _blocks(g: DirectedGraph) -> list[int]:
    """The blocks (biconnected components) of the undirected graph under ``g``, as masks.

    Node 0 must reach every node. An iterative depth-first search (Hopcroft &
    Tarjan 1973) closes a block at tree edge (u, v) when nothing below v has
    an edge above u; the block is u plus the nodes found from v that no
    earlier block took. A node's neighbours found before it are its
    ancestors, so its own edges above are read once, when it is found.
    """
    n = g.n
    adj = [o | i for o, i in zip(g.out_mask, g.in_mask)]
    order = [0] * n
    low = [0] * n
    seen = 1
    path = [0]
    open_nodes = [0]
    blocks = []
    while path:
        v = path[-1]
        if rest := adj[v] & ~seen:
            bit = rest & -rest
            w = bit.bit_length() - 1
            order[w] = top = seen.bit_count()
            up = adj[w] & seen
            seen |= bit
            while up:
                b = up & -up
                if order[b.bit_length() - 1] < top:
                    top = order[b.bit_length() - 1]
                up ^= b
            low[w] = top
            path.append(w)
            open_nodes.append(w)
            continue
        path.pop()
        if not path:
            break
        u = path[-1]
        if low[v] < low[u]:
            low[u] = low[v]
        if low[v] >= order[u]:
            members = 1 << u | 1 << v
            while (w := open_nodes.pop()) != v:
                members |= 1 << w
            blocks.append(members)
    return blocks


def _components(masks: Sequence[int], links: Iterable[tuple[int, int]]) -> list[int]:
    """Union of ``masks`` over each connected group of items joined by index ``links``.

    The groups come out ordered by their lowest node.
    """
    adj: list[list[int]] = [[] for _ in masks]
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * len(masks)
    merged = []
    for start in range(len(masks)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        mask = 0
        while stack:
            u = stack.pop()
            mask |= masks[u]
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        merged.append(mask)
    merged.sort(key=lambda m: m & -m)
    return merged
