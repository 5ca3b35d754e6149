"""Joint-ancestor freeness, sourced cuts, cut graphs, and clique analysis."""
from __future__ import annotations

import itertools
import random

import pytest

from prodform import (
    ChainKind,
    DirectedGraph,
    Family,
    FormalChain,
    InvalidArgumentError,
    ModelSpec,
    NotStronglyConnectedError,
    SumExpr,
    clique_check,
    clique_territory_cut,
    cut_graph,
    cut_source,
    expected_fixtures,
    generate,
    is_jaf,
    mutually_avoiding_ancestors,
    s_factors,
    s_relation,
    sourced_cut,
)
from prodform.graph_core import NodeSet, connectivity_witness

from util import (
    atom_edges,
    bipartition_sources,
    birth_death,
    brute_sourced_cuts,
    ladder7,
    naive_ancestors,
    nodeset,
    one_way_cycle,
    random_strongly_connected,
    ring9,
    set_avoiding_subgraph,
    two_way_cycle,
)


def _labels(g: DirectedGraph, s: NodeSet) -> set[str]:
    return {g.labels[v] for v in s}


def _by_labels(g: DirectedGraph, labels) -> NodeSet:
    return NodeSet.of([g.index_of[lab] for lab in labels], g.n)


# ---- chain construction ----


def test_chain_requires_strong_connectivity():
    g = DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2), (2, 1)])
    with pytest.raises(NotStronglyConnectedError) as err:
        FormalChain(g)
    assert "'a'" in str(err.value)
    c = FormalChain(two_way_cycle(4), ChainKind.DTMC)
    assert c.kind is ChainKind.DTMC and c.n == 4


def test_single_node_chain_is_degenerate_but_valid():
    c = FormalChain(DirectedGraph(["only"], [(0, 0)]))
    cg = cut_graph(c)
    assert cg.edges == frozenset()
    assert len(cg.components) == 1
    assert _labels(c.graph, cg.components[0]) == {"only"}


# ---- mutually avoiding ancestors ----


def test_avoiding_ancestor_pair_on_the_ladder():
    c = FormalChain(ladder7())
    g = c.graph
    a, b = mutually_avoiding_ancestors(c, _by_labels(g, ["1"]), _by_labels(g, ["4"]))
    assert _labels(g, a) == {"1", "2", "3", "5", "6"}
    assert _labels(g, b) == {"0", "4"}


def test_avoiding_ancestor_pair_can_intersect():
    c = FormalChain(ladder7())
    g = c.graph
    a, b = mutually_avoiding_ancestors(c, _by_labels(g, ["1"]), _by_labels(g, ["2"]))
    assert g.index_of["4"] in (a & b)
    assert not is_jaf(c, _by_labels(g, ["1"]), _by_labels(g, ["2"]))


def test_avoiding_ancestors_of_node_sets():
    c = FormalChain(ladder7())
    g = c.graph
    a, b = mutually_avoiding_ancestors(c, _by_labels(g, ["1", "4"]), _by_labels(g, ["2", "5"]))
    assert _labels(g, a) == {"0", "1", "4"}
    assert _labels(g, b) == {"2", "3", "5", "6"}


def test_avoiding_ancestors_validate_their_seeds():
    c = FormalChain(ladder7())
    g = c.graph
    with pytest.raises(InvalidArgumentError):
        mutually_avoiding_ancestors(c, NodeSet(0, g.n), _by_labels(g, ["1"]))
    with pytest.raises(InvalidArgumentError):
        mutually_avoiding_ancestors(c, _by_labels(g, ["1", "2"]), _by_labels(g, ["2"]))


def test_avoiding_ancestors_match_subgraph_route():
    rng = random.Random(11)
    for _ in range(80):
        g = random_strongly_connected(rng, rng.randint(3, 8))
        c = FormalChain(g)
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        cut_at = rng.randint(1, len(nodes) - 1)
        i_set = NodeSet.of(nodes[:cut_at][: rng.randint(1, cut_at)], g.n)
        j_pool = nodes[cut_at:]
        j_set = NodeSet.of(j_pool[: rng.randint(1, len(j_pool))], g.n)
        a, b = mutually_avoiding_ancestors(c, i_set, j_set)
        # independent route: delete the avoided set, then take naive ancestors
        sub_j, parent_index = set_avoiding_subgraph(g, j_set)
        seed = {sub_j.index_of[g.labels[v]] for v in i_set}
        via_sub = {parent_index[v] for v in naive_ancestors(sub_j, seed)}
        assert set(a) == via_sub
        assert (a | b).mask == (1 << g.n) - 1  # the two sets always cover V


# ---- joint-ancestor freeness ----


def test_jaf_on_a_reversible_chain():
    c = FormalChain(birth_death(6))
    g = c.graph
    assert is_jaf(c, _by_labels(g, ["2"]), _by_labels(g, ["3"]))
    assert not is_jaf(c, _by_labels(g, ["1"]), _by_labels(g, ["3"]))
    # avoiding both blockers shrinks the left set down to {0, 1}
    a, b = mutually_avoiding_ancestors(c, _by_labels(g, ["1"]), _by_labels(g, ["2", "4"]))
    assert _labels(g, a) == {"0", "1"}
    assert is_jaf(c, _by_labels(g, ["1"]), _by_labels(g, ["2", "4"]))


# ---- sourced cuts ----


def test_sourced_cut_sides_on_the_ladder():
    c = FormalChain(ladder7())
    g = c.graph
    cut = sourced_cut(c, g.index_of["1"], g.index_of["4"])
    assert _labels(g, cut.side_a) == {"1", "2", "3", "5", "6"}
    assert _labels(g, cut.side_b) == {"0", "4"}
    assert _labels(g, cut.source_a) == {"1"}
    assert _labels(g, cut.source_b) == {"4"}


def test_sourced_cut_on_a_one_way_cycle():
    c = FormalChain(one_way_cycle(5))
    g = c.graph
    cut = sourced_cut(c, g.index_of["1"], g.index_of["3"])
    assert _labels(g, cut.side_a) == {"4", "5", "1"}
    assert _labels(g, cut.side_b) == {"2", "3"}


def test_sourced_cut_absent_without_freeness():
    c = FormalChain(two_way_cycle(5))
    for i, j in itertools.combinations(range(5), 2):
        assert sourced_cut(c, i, j) is None
    with pytest.raises(InvalidArgumentError):
        sourced_cut(c, 2, 2)


def test_cut_invariants_on_random_chains():
    rng = random.Random(23)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 8))
        c = FormalChain(g)
        for i, j in itertools.combinations(range(g.n), 2):
            cut = sourced_cut(c, i, j)
            if cut is None:
                continue
            assert cut.side_a.isdisjoint(cut.side_b)
            assert (cut.side_a | cut.side_b) == NodeSet.of(range(c.graph.n), c.graph.n)
            assert not cut.source_a - cut.side_a
            assert not cut.source_b - cut.side_b
            assert bipartition_sources(g, set(cut.side_a)) == ({i}, {j})


# ---- cut factors ----


def test_cut_factors_on_the_ladder():
    c = FormalChain(ladder7())
    g = c.graph
    f41, f14 = s_factors(c, g.index_of["4"], g.index_of["1"])
    assert atom_edges(f41) == {
        (g.index_of["4"], g.index_of["1"]),
        (g.index_of["4"], g.index_of["5"]),
    }
    assert atom_edges(f14) == {(g.index_of["1"], g.index_of["0"])}


def test_cut_factors_on_a_one_way_cycle():
    c = FormalChain(one_way_cycle(5))
    g = c.graph
    for i, j in itertools.combinations(range(5), 2):
        f_ij, f_ji = s_factors(c, i, j)
        assert atom_edges(f_ij) == {(i, (i + 1) % 5)}
        assert atom_edges(f_ji) == {(j, (j + 1) % 5)}


def test_cut_factors_absent_or_invalid():
    c = FormalChain(two_way_cycle(5))
    assert s_factors(c, 0, 2) is None
    assert s_relation(c, 0, 2) is None
    with pytest.raises(InvalidArgumentError):
        s_factors(c, 1, 1)


def test_factor_locality_on_random_chains():
    rng = random.Random(31)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 8))
        c = FormalChain(g)
        for i, j in itertools.combinations(range(g.n), 2):
            pair = s_factors(c, i, j)
            if pair is None:
                continue
            f_ij, f_ji = pair
            assert isinstance(f_ij, SumExpr) and isinstance(f_ji, SumExpr)
            assert all(src == i for src, _ in atom_edges(f_ij))
            assert all(src == j for src, _ in atom_edges(f_ji))
            assert atom_edges(f_ij).isdisjoint(atom_edges(f_ji))
            # the relation is oriented by node index regardless of call order
            r = s_relation(c, i, j)
            assert (r.lhs_node, r.rhs_node) == (i, j)
            assert r.level.name == "S"


# ---- the cut graph ----


def test_cut_graph_of_a_one_way_cycle_is_complete():
    c = FormalChain(one_way_cycle(5))
    cg = cut_graph(c)
    assert cg.edges == frozenset(itertools.combinations(range(5), 2))
    assert len(cg.components) == 1


def test_cut_graph_of_a_two_way_cycle_is_empty():
    c = FormalChain(two_way_cycle(5))
    cg = cut_graph(c)
    assert cg.edges == frozenset()
    assert len(cg.components) == 5
    assert all(len(comp) == 1 for comp in cg.components)


def test_cut_graph_of_a_reversible_chain_is_a_path():
    c = FormalChain(birth_death(6))
    cg = cut_graph(c)
    assert cg.edges == frozenset((i, i + 1) for i in range(5))
    assert len(cg.components) == 1


def test_cut_graph_edges_match_pairwise_freeness():
    rng = random.Random(42)
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randint(2, 8))
        c = FormalChain(g)
        cg = cut_graph(c)
        for i, j in itertools.combinations(range(g.n), 2):
            expected = is_jaf(c, NodeSet.of([i], g.n), NodeSet.of([j], g.n))
            assert ((i, j) in cg.edges) == expected
        # components partition V
        union = NodeSet(0, g.n)
        for comp in cg.components:
            assert union.isdisjoint(comp)
            union = union | comp
        assert union == NodeSet.of(range(g.n), g.n)



def _sourced_cut_pairs(c: FormalChain) -> frozenset[tuple[int, int]]:
    return frozenset(
        (i, j) for i, j in itertools.combinations(range(c.n), 2) if sourced_cut(c, i, j) is not None
    )


def _random_edge_chain(rng: random.Random) -> FormalChain:
    """Every ordered pair (self-loops included) is an edge with one drawn density."""
    while True:
        n = rng.randint(2, 16)
        density = rng.uniform(0.08, 0.5)
        edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
        g = DirectedGraph([str(i) for i in range(n)], edges)
        if connectivity_witness(g) is None:
            return FormalChain(g)


def test_dominator_scan_matches_sourced_cuts_on_random_chains():
    rng = random.Random(2502)
    for k in range(1000):
        if k % 2:
            c = FormalChain(random_strongly_connected(rng, rng.randint(2, 16), rng.uniform(0.08, 0.5)))
        else:
            c = _random_edge_chain(rng)
        assert cut_graph(c).edges == _sourced_cut_pairs(c)


# Every family at its default size, plus the chain sizes the benchmark runs.
_SCAN_SPECS = [ModelSpec(f) for f in Family] + [
    ModelSpec(Family.ONE_WAY_CYCLE, {"n": 40}),
    ModelSpec(Family.ONE_WAY_CYCLE, {"n": 60}),
    ModelSpec(Family.BIRTH_DEATH, {"n": 100}),
    ModelSpec(Family.QBD_TOY, {"blocks": 16, "blocksize": 5}),
    ModelSpec(Family.TREE, {"n": 63}),
    ModelSpec(Family.BATCH_V1, {"multiple": 3, "truncation": 40}),
    ModelSpec(Family.BATCH_V2, {"truncation": 40}),
    ModelSpec(Family.TWO_WAY_CYCLE, {"n": 60}),
]


@pytest.mark.parametrize(
    "spec", _SCAN_SPECS, ids=lambda s: "-".join([s.family.value, *map(str, s.params.values())])
)
def test_dominator_scan_matches_sourced_cuts_on_families(spec):
    c = generate(spec)
    edges = cut_graph(c).edges
    assert edges == _sourced_cut_pairs(c)
    for i, j in sorted(edges)[:20]:
        assert s_relation(c, i, j, sourced_cut(c, i, j)) == s_relation(c, i, j)


@pytest.mark.parametrize("family", [Family.BIRTH_DEATH, Family.ONE_WAY_CYCLE, Family.TWO_WAY_CYCLE])
def test_dominator_scan_keeps_pinned_edges_at_400_nodes(family):
    spec = ModelSpec(family, {"n": 400})
    c = generate(spec)
    labels = c.graph.labels
    edges = frozenset(frozenset((labels[a], labels[b])) for a, b in cut_graph(c).edges)
    assert edges == expected_fixtures(spec).c1_edges


# ---- cut sources ----


def test_cut_source_prefix_of_a_reversible_chain():
    c = FormalChain(birth_death(6))
    g = c.graph
    for i in range(5):
        src_a, src_b = cut_source(c, nodeset(g, range(i + 1)))
        assert _labels(g, src_a) == {str(i)}
        assert _labels(g, src_b) == {str(i + 1)}


def test_cut_source_on_the_ladder():
    c = FormalChain(ladder7())
    g = c.graph
    src_a, src_b = cut_source(c, _by_labels(g, ["0", "4"]))
    assert _labels(g, src_a) == {"4"}
    assert _labels(g, src_b) == {"1"}


def test_cut_source_when_one_side_is_a_sink_neighbor():
    # v receives an edge from every other node, so splitting it off leaves
    # every other node as a source on side A and v alone on side B
    g = DirectedGraph(["a", "b", "v"], [(0, 1), (1, 0), (0, 2), (1, 2), (2, 0), (2, 1)])
    c = FormalChain(g)
    src_a, src_b = cut_source(c, nodeset(g, [0, 1]))
    assert set(src_a) == {0, 1}
    assert set(src_b) == {2}


def test_cut_source_validates_its_side():
    c = FormalChain(birth_death(4))
    with pytest.raises(InvalidArgumentError):
        cut_source(c, NodeSet(0, 4))
    with pytest.raises(InvalidArgumentError):
        cut_source(c, NodeSet.of(range(c.graph.n), c.graph.n))


# ---- structure theorems as properties ----


def test_singleton_freeness_matches_exhaustive_cut_enumeration():
    rng = random.Random(77)
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randint(2, 7))
        c = FormalChain(g)
        found = brute_sourced_cuts(g)
        for i, j in itertools.permutations(range(g.n), 2):
            cuts = found.get((i, j), [])
            assert len(cuts) <= 1  # at most one cut sourced at a given pair
            jaf = is_jaf(c, NodeSet.of([i], g.n), NodeSet.of([j], g.n))
            assert bool(cuts) == jaf
            if cuts:
                cut = sourced_cut(c, i, j)
                assert (set(cut.side_a), set(cut.side_b)) == cuts[0]


def test_avoiding_ancestors_bound_every_sourced_bipartition():
    # for any bipartition with sources (I, J): A_I(G\J) fits inside side A
    # and A_J(G\I) inside side B, and the two avoiding sets always cover V
    rng = random.Random(13)
    for _ in range(25):
        g = random_strongly_connected(rng, rng.randint(2, 6))
        c = FormalChain(g)
        for mask in range(1, (1 << g.n) - 1):
            side_a = {v for v in range(g.n) if mask >> v & 1}
            src_a, src_b = bipartition_sources(g, side_a)
            i_set = NodeSet.of(src_a, g.n)
            j_set = NodeSet.of(src_b, g.n)
            a, b = mutually_avoiding_ancestors(c, i_set, j_set)
            assert (a | b) == NodeSet.of(range(g.n), g.n)
            assert set(a).issubset(side_a)
            assert set(b).issubset(set(range(g.n)) - side_a)


def test_free_set_pairs_produce_nested_sources():
    # when two node sets are joint-ancestor free, the bipartition cut out by
    # their avoiding-ancestor sets has nonempty sources inside each set
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        g = random_strongly_connected(rng, rng.randint(3, 8))
        c = FormalChain(g)
        nodes = rng.sample(range(g.n), rng.randint(2, g.n))
        split = rng.randint(1, len(nodes) - 1)
        i_set = NodeSet.of(nodes[:split], g.n)
        j_set = NodeSet.of(nodes[split:], g.n)
        if not is_jaf(c, i_set, j_set):
            continue
        a, _ = mutually_avoiding_ancestors(c, i_set, j_set)
        src_a, src_b = cut_source(c, a)
        assert src_a and not src_a - i_set
        assert src_b and not src_b - j_set
        checked += 1
    assert checked >= 40


# ---- clique analysis ----


def test_clique_check_accepts_a_one_way_cycle():
    c = FormalChain(one_way_cycle(5))
    g = c.graph
    analysis = clique_check(c, NodeSet.of(range(g.n), g.n))
    assert analysis is not None
    assert all(set(t) == {m} for m, t in analysis.territories)
    assert analysis.cycle_order == (0, 1, 2, 3, 4)
    assert analysis.quotient_edges == frozenset((i, (i + 1) % 5) for i in range(5))


def test_clique_check_rejects_two_way_cycle_pairs():
    c = FormalChain(two_way_cycle(5))
    for i, j in itertools.combinations(range(5), 2):
        assert clique_check(c, nodeset(c.graph, [i, j])) is None


def test_clique_check_on_the_ring_of_territories():
    c = FormalChain(ring9())
    g = c.graph
    hubs = ["1", "5", "6", "8", "9"]
    analysis = clique_check(c, _by_labels(g, hubs))
    assert analysis is not None
    territory = {g.labels[m]: _labels(g, t) for m, t in analysis.territories}
    assert territory == {
        "1": {"1"},
        "5": {"2", "3", "4", "5"},
        "6": {"6"},
        "8": {"7", "8"},
        "9": {"9"},
    }
    order = [g.labels[m] for m in analysis.cycle_order]
    assert order == ["1", "5", "6", "8", "9"]
    cut = clique_territory_cut(c, analysis, g.index_of["5"], g.index_of["8"])
    assert _labels(g, cut.side_a) == {"1", "2", "3", "4", "5", "9"}
    assert _labels(g, cut.side_b) == {"6", "7", "8"}
    assert cut == sourced_cut(c, g.index_of["5"], g.index_of["8"])


def test_clique_check_matches_pairwise_scan_on_random_chains():
    rng = random.Random(53)
    accepted = 0
    for _ in range(150):
        g = random_strongly_connected(rng, rng.randint(3, 7), extra_edge_prob=0.15)
        c = FormalChain(g)
        cg = cut_graph(c)
        k = NodeSet.of(rng.sample(range(g.n), rng.randint(2, g.n)), g.n)
        analysis = clique_check(c, k)
        members = sorted(k)
        pairwise = all(
            (min(a, b), max(a, b)) in cg.edges for a, b in itertools.combinations(members, 2)
        )
        assert (analysis is not None) == pairwise
        if analysis is None:
            continue
        accepted += 1
        union = NodeSet(0, g.n)
        for _, t in analysis.territories:
            assert union.isdisjoint(t)
            union = union | t
        assert union == NodeSet.of(range(g.n), g.n)
        for a, b in itertools.permutations(members, 2):
            assert clique_territory_cut(c, analysis, a, b) == sourced_cut(c, a, b)
    assert accepted >= 10


def test_clique_check_validates_its_input():
    c = FormalChain(one_way_cycle(5))
    with pytest.raises(InvalidArgumentError):
        clique_check(c, nodeset(c.graph, [2]))
    with pytest.raises(InvalidArgumentError):
        clique_territory_cut(
            c, clique_check(c, NodeSet.of(range(c.graph.n), c.graph.n)), 0, 0
        )
