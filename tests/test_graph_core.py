"""Graph construction, node sets, and reachability queries."""
from __future__ import annotations

import random

import pytest

from prodform.errors import InvalidArgumentError
from prodform.graph_core import (
    DirectedGraph,
    NodeSet,
    ancestors,
    ancestors_avoiding,
    connectivity_witness,
    shortest_path,
)
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
    assert NodeSet.of([2], 8).issubset(a)
    assert NodeSet.empty(8).issubset(a) and not NodeSet.empty(8)
    assert NodeSet.full(3) == NodeSet.of([0, 1, 2], 3)


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
    assert g.has_edge(0, 0)
    assert connectivity_witness(g) is None


def test_adjacency_is_sorted_and_mirrored():
    g = ladder7()
    for u, v in g.edge_list:
        assert v in g.out_adj[u] and u in g.in_adj[v]
        assert g.out_mask[u] >> v & 1 and g.in_mask[v] >> u & 1
    assert all(g.out_adj[u] == tuple(sorted(g.out_adj[u])) for u in range(g.n))
    assert g.edge_count == 11


# ---- ancestors ----


def test_ancestors_birth_death_with_removed_node():
    g = birth_death(6)
    sub, _ = set_avoiding_subgraph(g, nodeset(g, [3]))
    seed = sub.set_of_labels(["2"])
    got = ancestors(sub, seed)
    assert sub.label_set(got) == {"0", "1", "2"}
    # Same query through the mask-based route on the parent graph.
    direct = ancestors_avoiding(g, nodeset(g, [2]), nodeset(g, [3]))
    assert g.label_set(direct) == {"0", "1", "2"}


def test_ancestors_full_seed_is_identity():
    g = ladder7()
    assert ancestors(g, g.full_set()) == g.full_set()


def test_ancestors_ladder_isolated_by_removal():
    g = ladder7()
    four = g.set_of_labels(["4"])
    got = ancestors_avoiding(g, four, g.set_of_labels(["0"]))
    assert g.label_set(got) == {"4"}


def test_ancestors_rejects_empty_seed():
    g = birth_death(4)
    with pytest.raises(InvalidArgumentError):
        ancestors(g, NodeSet.empty(g.n))
    with pytest.raises(InvalidArgumentError):
        ancestors_avoiding(g, NodeSet.empty(g.n), nodeset(g, [0]))
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
        a = ancestors(g, nodeset(g, small))
        b = ancestors(g, nodeset(g, set(small) | set(extra)))
        assert a.issubset(b)


# ---- subgraphs ----


def test_subgraph_keeps_exactly_surviving_edges():
    g = ladder7()
    avoid = g.set_of_labels(["5"])
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
    sub, parent_index = set_avoiding_subgraph(g, NodeSet.empty(g.n))
    assert sub.labels == g.labels and sub.edge_list == g.edge_list
    assert parent_index == tuple(range(g.n))


def test_subgraph_rejects_removing_everything():
    g = birth_death(3)
    with pytest.raises(InvalidArgumentError):
        set_avoiding_subgraph(g, g.full_set())


# ---- connectivity ----


def test_strong_connectivity_checks():
    assert connectivity_witness(one_way_cycle(5)) is None
    assert connectivity_witness(two_way_cycle(4)) is None
    assert connectivity_witness(ladder7()) is None
    chain = DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    witness = connectivity_witness(chain)
    assert witness is not None
    u, v = witness
    assert u not in ancestors(chain, nodeset(chain, [v]))
    assert connectivity_witness(one_way_cycle(4)) is None


# ---- shortest paths ----


def test_shortest_path_absent_when_detour_blocked():
    g = one_way_cycle_plus(5, 3)
    src, dst = g.index_of["1"], g.index_of["4"]
    assert shortest_path(g, src, dst, g.set_of_labels(["3"])) is None
    assert shortest_path(g, src, dst) == [g.index_of[x] for x in ("1", "3", "4")]


def test_shortest_path_prefers_smallest_next_index():
    # Two shortest routes 0->3; the walk must pick node 1 over node 2 at the fork.
    g = DirectedGraph(["0", "1", "2", "3"], [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    assert shortest_path(g, 0, 3) == [0, 1, 3]
    g2 = DirectedGraph(["0", "1", "2", "3"], [(0, 2), (0, 1), (1, 3), (2, 3), (3, 0)])
    assert shortest_path(g2, 0, 3) == [0, 1, 3]


def test_shortest_path_trivial_and_invalid_cases():
    g = birth_death(4)
    assert shortest_path(g, 2, 2) == [2]
    assert shortest_path(g, 0, 3) == [0, 1, 2, 3]
    with pytest.raises(InvalidArgumentError):
        shortest_path(g, 0, 2, nodeset(g, [2]))
    with pytest.raises(InvalidArgumentError):
        shortest_path(g, 0, 9)


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
        path = shortest_path(g, src, dst, nodeset(g, avoid))
        if dst not in dist:
            assert path is None
        else:
            assert path is not None
            assert len(path) - 1 == dist[dst]
            assert path[0] == src and path[-1] == dst
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            assert not any(v in avoid for v in path)
