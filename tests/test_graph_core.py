"""Graph construction, node sets, and reachability queries."""
from __future__ import annotations

import random

import pytest

from prodform.errors import InvalidArgumentError
from prodform.graph_core import (
    DirectedGraph,
    NodeSet,
    ancestors_avoiding,
    connectivity_witness,
)
from prodform.graph_core import _bfs_levels, _descend
from util import (
    birth_death,
    ladder7,
    naive_ancestors,
    nodeset,
    one_way_cycle,
    one_way_cycle_plus,
    random_strongly_connected,
    set_avoiding_subgraph,
    two_way_cycle,
)

# ---- NodeSet ----


def test_nodeset_basic_algebra():
    a = NodeSet.of([0, 2, 5], 8)
    b = NodeSet.of([2, 3], 8)
    assert list(a) == [0, 2, 5]
    assert len(a) == 3
    assert 2 in a and 1 not in a
    assert (a | b) == NodeSet.of([0, 2, 3, 5], 8)
    assert (a & b) == NodeSet.of([2], 8)
    assert (a - b) == NodeSet.of([0, 5], 8)
    assert a.complement() == NodeSet.of([1, 3, 4, 6, 7], 8)
    assert not a.isdisjoint(b)
    assert not NodeSet(0, 8) and NodeSet(0, 8).isdisjoint(a)
    assert NodeSet.of(range(3), 3).mask == 0b111


def test_nodeset_rejects_out_of_range():
    with pytest.raises(InvalidArgumentError):
        NodeSet.of([3], 3)
    with pytest.raises(InvalidArgumentError):
        NodeSet(1 << 4, 4)
    with pytest.raises(InvalidArgumentError):
        NodeSet.of([0], 3) | NodeSet.of([0], 4)


# ---- construction ----


def test_graph_rejects_duplicate_edges_and_labels():
    with pytest.raises(InvalidArgumentError):
        DirectedGraph(["a", "b"], [(0, 1), (0, 1)])
    with pytest.raises(InvalidArgumentError):
        DirectedGraph(["a", "a"], [])
    with pytest.raises(InvalidArgumentError):
        DirectedGraph(["a", "b"], [(0, 2)])
    with pytest.raises(InvalidArgumentError):
        DirectedGraph.from_labeled_edges(["a", "b"], [("a", "c")])


def test_graph_permits_self_loops():
    g = DirectedGraph(["a", "b"], [(0, 0), (0, 1), (1, 0)])
    assert 0 in g.out_adj[0]
    assert connectivity_witness(g) is None


def test_adjacency_is_sorted_and_mirrored():
    g = ladder7()
    for u, v in g.edge_list:
        assert v in g.out_adj[u] and u in g.in_adj[v]
        assert g.out_mask[u] >> v & 1 and g.in_mask[v] >> u & 1
    assert all(g.out_adj[u] == tuple(sorted(g.out_adj[u])) for u in range(g.n))
    assert g.edge_count == 11


# ---- ancestors ----


def _labels(g: DirectedGraph, nodes) -> set[str]:
    return {g.labels[v] for v in nodes}


def test_ancestors_birth_death_with_removed_node():
    g = birth_death(6)
    sub, _ = set_avoiding_subgraph(g, nodeset(g, [3]))
    got = naive_ancestors(sub, {sub.index_of["2"]})
    assert _labels(sub, got) == {"0", "1", "2"}
    # Same query through the mask-based route on the parent graph.
    direct = ancestors_avoiding(g, nodeset(g, [2]), nodeset(g, [3]))
    assert _labels(g, direct) == {"0", "1", "2"}


def test_ancestors_full_seed_is_identity():
    g = ladder7()
    full = nodeset(g, range(g.n))
    assert ancestors_avoiding(g, full, NodeSet(0, g.n)) == full


def test_ancestors_ladder_isolated_by_removal():
    g = ladder7()
    four = nodeset(g, [g.index_of["4"]])
    got = ancestors_avoiding(g, four, nodeset(g, [g.index_of["0"]]))
    assert _labels(g, got) == {"4"}


def test_ancestors_rejects_empty_seed():
    g = birth_death(4)
    with pytest.raises(InvalidArgumentError):
        ancestors_avoiding(g, NodeSet(0, g.n), nodeset(g, [0]))
    with pytest.raises(InvalidArgumentError):
        ancestors_avoiding(g, nodeset(g, [0]), nodeset(g, [0]))


def test_ancestors_matches_naive_fixpoint_on_random_graphs():
    rng = random.Random(20260819)
    for _ in range(120):
        n = rng.randint(2, 8)
        g = random_strongly_connected(rng, n, extra_edge_prob=rng.random() * 0.6)
        avoid = {v for v in range(n) if rng.random() < 0.25}
        seeds = [v for v in range(n) if v not in avoid and rng.random() < 0.5]
        if not seeds:
            continue
        expected = naive_ancestors(g, set(seeds), avoid)
        got = ancestors_avoiding(g, nodeset(g, seeds), nodeset(g, avoid))
        assert set(got) == expected


def test_ancestors_monotone_in_seed():
    rng = random.Random(7)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 7))
        nodes = list(range(g.n))
        small = rng.sample(nodes, rng.randint(1, g.n))
        extra = rng.sample(nodes, rng.randint(0, g.n - 1))
        avoid = nodeset(g, [v for v in nodes if v not in small and v not in extra and rng.random() < 0.3])
        a = ancestors_avoiding(g, nodeset(g, small), avoid)
        b = ancestors_avoiding(g, nodeset(g, set(small) | set(extra)), avoid)
        assert not a - b


# ---- subgraphs ----


def test_subgraph_keeps_exactly_surviving_edges():
    g = ladder7()
    avoid = nodeset(g, [g.index_of["5"]])
    sub, parent_index = set_avoiding_subgraph(g, avoid)
    assert set(sub.labels) == set(g.labels) - {"5"}
    expected = {
        (g.labels[u], g.labels[v])
        for u, v in g.edge_list
        if g.labels[u] != "5" and g.labels[v] != "5"
    }
    got = {(sub.labels[u], sub.labels[v]) for u, v in sub.edge_list}
    assert got == expected
    # parent_index maps back to the original indices
    assert [g.labels[p] for p in parent_index] == list(sub.labels)


def test_subgraph_of_nothing_removed_is_identity():
    g = birth_death(4)
    sub, parent_index = set_avoiding_subgraph(g, NodeSet(0, g.n))
    assert sub.labels == g.labels and sub.edge_list == g.edge_list
    assert parent_index == tuple(range(g.n))


def test_subgraph_rejects_removing_everything():
    g = birth_death(3)
    with pytest.raises(InvalidArgumentError):
        set_avoiding_subgraph(g, nodeset(g, range(g.n)))


# ---- connectivity ----


def test_strong_connectivity_checks():
    assert connectivity_witness(one_way_cycle(5)) is None
    assert connectivity_witness(two_way_cycle(4)) is None
    assert connectivity_witness(ladder7()) is None
    chain = DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    witness = connectivity_witness(chain)
    assert witness is not None
    u, v = witness
    assert u not in naive_ancestors(chain, {v})
    assert connectivity_witness(one_way_cycle(4)) is None


# ---- shortest paths ----


def _shortest_path(g: DirectedGraph, src: int, dst: int, avoid=()) -> list[int] | None:
    """BFS levels toward ``dst`` over in-edges, then the descent from ``src``, as the witness builds paths."""
    dist = _bfs_levels(g.in_adj, dst, ~sum(1 << v for v in avoid))
    return None if dist[src] < 0 else _descend(g.out_adj, dist, src)


def test_shortest_path_absent_when_detour_blocked():
    g = one_way_cycle_plus(5, 3)
    src, dst = g.index_of["1"], g.index_of["4"]
    assert _shortest_path(g, src, dst, [g.index_of["3"]]) is None
    assert _shortest_path(g, src, dst) == [g.index_of[x] for x in ("1", "3", "4")]


def test_shortest_path_prefers_smallest_next_index():
    # Two shortest routes 0->3; the walk must pick node 1 over node 2 at the fork.
    g = DirectedGraph(["0", "1", "2", "3"], [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    assert _shortest_path(g, 0, 3) == [0, 1, 3]
    g2 = DirectedGraph(["0", "1", "2", "3"], [(0, 2), (0, 1), (1, 3), (2, 3), (3, 0)])
    assert _shortest_path(g2, 0, 3) == [0, 1, 3]


def test_shortest_path_trivial_cases():
    g = birth_death(4)
    assert _shortest_path(g, 2, 2) == [2]
    assert _shortest_path(g, 0, 3) == [0, 1, 2, 3]
    assert _bfs_levels(g.out_adj, 0) == [0, 1, 2, 3]
    # Only the start is entered outside ``allowed``.
    assert _bfs_levels(g.out_adj, 0, ~0b1) == [0, 1, 2, 3]
    assert _bfs_levels(g.out_adj, 0, ~0b10) == [0, -1, -1, -1]


def test_shortest_path_lengths_match_bfs_oracle():
    rng = random.Random(5150)
    for _ in range(50):
        g = random_strongly_connected(rng, rng.randint(2, 8), extra_edge_prob=0.4)
        avoid = {v for v in range(g.n) if rng.random() < 0.2}
        src, dst = rng.randrange(g.n), rng.randrange(g.n)
        if src in avoid or dst in avoid:
            continue
        # plain set-based BFS oracle
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.out_adj[u]:
                    if v not in dist and v not in avoid:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        path = _shortest_path(g, src, dst, avoid)
        if dst not in dist:
            assert path is None
        else:
            assert path is not None
            assert len(path) - 1 == dist[dst]
            assert path[0] == src and path[-1] == dst
            assert all(b in g.out_adj[a] for a, b in zip(path, path[1:]))
            assert not any(v in avoid for v in path)
