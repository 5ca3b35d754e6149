"""Component-pair cuts, the level recursion, sum-of-ratio relations, broad search."""
from __future__ import annotations

import json
import random

import pytest

from prodform import (
    Family,
    FormalChain,
    InvalidArgumentError,
    ModelSpec,
    ResourceLimitError,
    analyze,
    broad_cut_search,
    chain_relations,
    cut_graph,
    expected_fixtures,
    generate,
    higher_level_cut_graph,
    ancestors_avoiding,
    is_jaf,
    mutually_avoiding_ancestors,
    s_relation,
    sourced_cut,
    sps_relation,
)
from prodform import cli, higher_level, product_form
from prodform.factors import ProductExpr
from prodform.graph_core import DirectedGraph, NodeSet, _blocks, connectivity_witness
from prodform.numeric import random_rates, stationary, verify_relation
from prodform.product_form import _sources

from util import bipartition_sources, glued_chain, random_strongly_connected


def _labels(c: FormalChain, s: NodeSet) -> frozenset[str]:
    return frozenset(c.graph.labels[v] for v in s)


def _by_labels(c: FormalChain, labels) -> NodeSet:
    return NodeSet.of([c.graph.index_of[lab] for lab in labels], c.graph.n)


def _source_pairs(c: FormalChain, hyperedges) -> list[tuple[frozenset[str], frozenset[str]]]:
    return [(_labels(c, h.cut.source_a), _labels(c, h.cut.source_b)) for h in hyperedges]


def _fixture_pairs(pairs) -> list[tuple[frozenset[str], frozenset[str]]]:
    return [(frozenset(a), frozenset(b)) for a, b in pairs]


def _level2_hyperedges(c: FormalChain, c1=None) -> tuple:
    """The level-2 hyperedges of the recursion, empty when it finds none."""
    levels = higher_level_cut_graph(c, 2, c1)
    return levels[0].hyperedges if levels else ()


# ---- narrow component-pair scan ----


def test_batch_v1_second_level_hyperedges():
    spec = ModelSpec(Family.BATCH_V1)
    c = generate(spec)
    fx = expected_fixtures(spec)
    c1 = cut_graph(c)
    hyperedges = _level2_hyperedges(c, c1)
    got = _source_pairs(c, hyperedges)
    expected = _fixture_pairs(fx.level2_sources)
    # The interior hyperedges plus the one at the truncation boundary.
    assert got == expected + [(frozenset({"7", "bar7"}), frozenset({"8"}))]
    for h in hyperedges:
        assert not h.cut.source_a - c1.components[h.comp_i]
        assert not h.cut.source_b - c1.components[h.comp_j]


def test_batch_v2_second_level_hyperedge():
    spec = ModelSpec(Family.BATCH_V2)
    c = generate(spec)
    fx = expected_fixtures(spec)
    hyperedges = _level2_hyperedges(c)
    assert _source_pairs(c, hyperedges) == _fixture_pairs(fx.level2_sources)
    (h,) = hyperedges
    assert _labels(c, h.cut.side_a) == frozenset({"0", "1", "bar1", "bar2"})
    assert _labels(c, h.cut.side_b) == frozenset(c.graph.labels) - _labels(c, h.cut.side_a)


def test_ladder_second_level_hyperedges():
    spec = ModelSpec(Family.LADDER)
    c = generate(spec)
    fx = expected_fixtures(spec)
    hyperedges = _level2_hyperedges(c)
    assert _source_pairs(c, hyperedges) == _fixture_pairs(fx.level2_sources)


def test_connected_first_level_graph_has_no_second_level():
    for family in (Family.MSJ_SATURATED, Family.BIRTH_DEATH, Family.ONE_WAY_CYCLE):
        c = generate(ModelSpec(family))
        assert _level2_hyperedges(c) == ()


# ---- level recursion ----


def test_recursion_requires_level_two():
    c = generate(ModelSpec(Family.BATCH_V2))
    with pytest.raises(InvalidArgumentError, match="level 2"):
        higher_level_cut_graph(c, 1)


def test_batch_v2_level_cascade():
    c = generate(ModelSpec(Family.BATCH_V2))
    levels = higher_level_cut_graph(c, 10)
    assert [lv.level for lv in levels] == [2, 3, 4, 5, 6]
    expected = [
        (frozenset({"bar1", "bar2"}), frozenset({"2"})),
        (frozenset({"bar2", "bar3"}), frozenset({"3"})),
        (frozenset({"bar3", "bar4"}), frozenset({"4"})),
        (frozenset({"bar4", "bar5"}), frozenset({"5"})),
        (frozenset({"bar5", "bar6"}), frozenset({"6"})),
    ]
    for lv, want in zip(levels, expected):
        assert _source_pairs(c, lv.hyperedges) == [want]
    assert len(levels[-1].components) == 1
    # Honoring a smaller cap truncates the same cascade.
    assert [lv.level for lv in higher_level_cut_graph(c, 3)] == [2, 3]


def test_batch_v1_merges_in_one_round():
    c = generate(ModelSpec(Family.BATCH_V1))
    levels = higher_level_cut_graph(c, 6)
    assert [lv.level for lv in levels] == [2]
    assert len(levels[0].components) == 1



@pytest.mark.parametrize("family", [Family.BATCH_V1, Family.BATCH_V2])
def test_recursion_accepts_the_callers_cut_graph(family):
    c = generate(ModelSpec(family))
    for k in (2, 3, 6):
        assert higher_level_cut_graph(c, k, cut_graph(c)) == higher_level_cut_graph(c, k)

def test_levels_coarsen_components():
    c = generate(ModelSpec(Family.BATCH_V2))
    c1 = cut_graph(c)
    previous = c1.components
    for lv in higher_level_cut_graph(c, 10):
        for comp in previous:
            assert any(not comp - merged for merged in lv.components)
        assert len(lv.components) < len(previous)
        previous = lv.components


def test_hyperedge_sources_are_sound_across_random_chains():
    rng = random.Random(1311)
    for _ in range(40):
        g = random_strongly_connected(rng, n=6)
        c = FormalChain(g)
        c1 = cut_graph(c)
        for h in _level2_hyperedges(c, c1):
            comp_i, comp_j = c1.components[h.comp_i], c1.components[h.comp_j]
            assert h.cut.source_a and h.cut.source_b
            assert not h.cut.source_a - comp_i and not h.cut.source_b - comp_j
            assert is_jaf(c, comp_i, comp_j)
            assert (h.cut.side_a | h.cut.side_b) == NodeSet.of(range(g.n), g.n)
            assert h.cut.side_a.isdisjoint(h.cut.side_b)
            assert not comp_i - h.cut.side_a and not comp_j - h.cut.side_b


# ---- sum-of-ratio relations ----


def test_batch_v1_displayed_two_hop_composition():
    spec = ModelSpec(Family.BATCH_V1)
    c = generate(spec)
    fx = expected_fixtures(spec)
    c1 = cut_graph(c)
    hyperedges = _level2_hyperedges(c, c1)
    by_sources = {(_labels(c, h.cut.source_a), _labels(c, h.cut.source_b)): h for h in hyperedges}
    h12 = by_sources[(frozenset({"1", "bar1"}), frozenset({"2"}))]
    h23 = by_sources[(frozenset({"2", "bar2"}), frozenset({"3"}))]
    idx = c.graph.index_of
    first = sps_relation(c, h12, idx["1"], idx["2"])
    second = sps_relation(c, h23, idx["2"], idx["3"])
    assert first.level.name == "SPS"
    assert second.level.name == "SPS"
    combined = chain_relations(first, second)
    assert combined == fx.psps_relation
    assert combined.level.name == "PSPS"
    for seed in range(20):
        rates = random_rates(c, seed)
        pi = stationary(c, rates)
        assert verify_relation(pi, rates, first) <= 1e-9
        assert verify_relation(pi, rates, second) <= 1e-9
        assert verify_relation(pi, rates, combined) <= 1e-9


def test_sum_of_ratio_relation_holds_for_any_member_choice():
    c = generate(ModelSpec(Family.BATCH_V2))
    c1 = cut_graph(c)
    (h,) = _level2_hyperedges(c, c1)
    comp_i, comp_j = c1.components[h.comp_i], c1.components[h.comp_j]
    for i_star in comp_i:
        for j_star in comp_j:
            r = sps_relation(c, h, i_star, j_star)
            for seed in range(5):
                rates = random_rates(c, seed)
                pi = stationary(c, rates)
                assert verify_relation(pi, rates, r) <= 1e-9


def test_singleton_sources_degenerate_to_width_level():
    # The ladder's component-pair cut with sources ({2,5},{3}) keeps a sum on
    # the left; picking a left source member as the endpoint shows the right,
    # singleton side staying a plain crossing sum.
    c = generate(ModelSpec(Family.LADDER))
    c1 = cut_graph(c)
    hyperedges = _level2_hyperedges(c, c1)
    by_sources = {(_labels(c, h.cut.source_a), _labels(c, h.cut.source_b)): h for h in hyperedges}
    h = by_sources[(frozenset({"2", "5"}), frozenset({"3"}))]
    idx = c.graph.index_of
    r = sps_relation(c, h, idx["2"], idx["3"])
    assert r.level.name == "SPS"
    for seed in range(20):
        rates = random_rates(c, seed)
        pi = stationary(c, rates)
        assert verify_relation(pi, rates, r) <= 1e-9


def test_relation_rejects_members_outside_components():
    c = generate(ModelSpec(Family.BATCH_V1))
    c1 = cut_graph(c)
    hyperedges = _level2_hyperedges(c, c1)
    h = hyperedges[0]
    idx = c.graph.index_of
    with pytest.raises(InvalidArgumentError, match="belong to the hyperedge"):
        sps_relation(c, h, idx["8"], idx["2"])


def test_relation_rejects_deeper_level_hyperedges():
    c = generate(ModelSpec(Family.BATCH_V2))
    levels = higher_level_cut_graph(c, 3)
    (deep,) = levels[1].hyperedges
    members = sorted(deep.cut.source_a) + sorted(deep.cut.source_b)
    with pytest.raises(InvalidArgumentError):
        sps_relation(c, deep, members[0], members[-1])


# ---- broad subset search ----


def test_broad_search_matches_fixture():
    spec = ModelSpec(Family.BATCH_V2)
    c = generate(spec)
    fx = expected_fixtures(spec)
    k1 = _by_labels(c, fx.broad_query[0])
    k2 = _by_labels(c, fx.broad_query[1])
    found = broad_cut_search(c, k1, k2)
    as_labels = [(_labels(c, i), _labels(c, j)) for i, j in found]
    for want in _fixture_pairs(fx.broad_members):
        assert want in as_labels
    masks = [(i.mask, j.mask) for i, j in found]
    assert masks == sorted(masks)
    for i, j in found:
        assert i and j
        assert not i - k1 and not j - k2
        assert is_jaf(c, i, j)


def test_broad_search_contains_narrow_sources():
    for family in (Family.BATCH_V1, Family.BATCH_V2):
        c = generate(ModelSpec(family))
        c1 = cut_graph(c)
        for h in _level2_hyperedges(c, c1):
            found = broad_cut_search(c, c1.components[h.comp_i], c1.components[h.comp_j])
            assert (h.cut.source_a, h.cut.source_b) in found


def test_broad_search_validates_inputs():
    c = generate(ModelSpec(Family.BATCH_V2))
    full = NodeSet.of(range(c.graph.n), c.graph.n)
    empty = NodeSet(0, c.graph.n)
    some = NodeSet.of([0, 1], c.graph.n)
    with pytest.raises(InvalidArgumentError, match="nonempty and disjoint"):
        broad_cut_search(c, empty, some)
    with pytest.raises(InvalidArgumentError, match="nonempty and disjoint"):
        broad_cut_search(c, some, some)
    with pytest.raises(ResourceLimitError, match="12"):
        broad_cut_search(c, full - some, some)


def test_broad_search_runs_within_its_budget():
    c = generate(ModelSpec(Family.BATCH_V2))
    k1 = _by_labels(c, ["0", "1", "bar1", "bar2"])
    k2 = _by_labels(c, ["2", "bar3"])
    assert broad_cut_search(c, k1, k2)


# ---- settled-pair rescan and lane-scan freeness test ----


def _full_rescan(c: FormalChain, max_level: int) -> list:
    """The recursion without shortcuts: every pair, both closures, every level."""
    g = c.graph
    comps = [set(comp) for comp in cut_graph(c).components]
    levels = []
    for level in range(2, max_level + 1):
        if len(comps) <= 1:
            break
        edges = []
        for p in range(len(comps)):
            for q in range(p + 1, len(comps)):
                k1, k2 = NodeSet.of(comps[p], g.n), NodeSet.of(comps[q], g.n)
                side_a, side_b = mutually_avoiding_ancestors(c, k1, k2)
                if side_a.isdisjoint(side_b):
                    src_a, src_b = bipartition_sources(g, set(side_a))
                    edges.append((p, q, set(side_a), set(side_b), src_a, src_b))
        if not edges:
            break
        group = list(range(len(comps)))
        for p, q, *_ in edges:
            old, new = group[q], group[p]
            group = [new if x == old else x for x in group]
        merged: dict[int, set[int]] = {}
        for k, comp in enumerate(comps):
            merged.setdefault(group[k], set()).update(comp)
        comps = sorted(merged.values(), key=min)
        levels.append((level, edges, comps))
    return levels


def _recursion_as_sets(c: FormalChain, max_level: int) -> list:
    levels = []
    for lv in higher_level_cut_graph(c, max_level):
        edges = []
        for h in lv.hyperedges:
            edges.append(
                (h.comp_i, h.comp_j, set(h.cut.side_a), set(h.cut.side_b), set(h.cut.source_a), set(h.cut.source_b))
            )
        levels.append((lv.level, edges, [set(comp) for comp in lv.components]))
    return levels


def _random_edge_chain(rng: random.Random, n: int) -> FormalChain:
    density = rng.uniform(0.15, 0.5)
    while True:
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
        g = DirectedGraph([str(i) for i in range(n)], edges)
        if connectivity_witness(g) is None:
            return FormalChain(g)


def _random_chain(rng: random.Random, k: int) -> FormalChain:
    n = rng.randint(2, 12)
    if k % 2:
        return FormalChain(random_strongly_connected(rng, n, rng.uniform(0.0, 0.4)))
    return _random_edge_chain(rng, n)


def test_recursion_matches_full_rescan_on_random_chains():
    rng = random.Random(3303)
    deepest = 0
    for k in range(1000):
        c = _random_chain(rng, k)
        expected = _full_rescan(c, 8)
        assert _recursion_as_sets(c, 8) == expected
        deepest = max(deepest, len(expected))
    # The sample must reach the levels where the settled set skips pairs.
    assert deepest >= 3


# Every family at its default size, plus the chain sizes the benchmark runs.
_RESCAN_SPECS = [ModelSpec(f) for f in Family] + [
    ModelSpec(Family.BATCH_V1, {"multiple": 3, "truncation": 40}),
    ModelSpec(Family.BATCH_V2, {"truncation": 40}),
    ModelSpec(Family.TWO_WAY_CYCLE, {"n": 60}),
]


@pytest.mark.parametrize(
    "spec", _RESCAN_SPECS, ids=lambda s: "-".join([s.family.value, *map(str, s.params.values())])
)
def test_recursion_matches_full_rescan_on_families(spec):
    c = generate(spec)
    assert _recursion_as_sets(c, 8) == _full_rescan(c, 8)


def _assert_lanes_hold_the_closures(c: FormalChain, comps: list[NodeSet]) -> dict:
    """Check every lane of a scan over ``comps``; return its hyperedges by component pair."""
    masks = [k.mask for k in comps]
    edges = {(h.comp_i, h.comp_j): h for h in higher_level._scan_pairs(c, masks, set())}
    # Sources read from the pair's two components equal those of the whole sides.
    for h in edges.values():
        whole = _sources(c.graph, h.cut.side_a.mask, h.cut.side_b.mask)
        assert (h.cut.source_a.mask, h.cut.source_b.mask) == whole
    # Every lane, free or not, holds its avoiding-ancestor set and its verdict.
    for p, lanes, lane_free, state in higher_level._free_lanes(c.graph.in_adj, c.graph.out_adj, masks):
        for q in range(p + 1, len(comps)):
            assert lanes >> q & 1
            side = ancestors_avoiding(c.graph, comps[p], comps[q])
            assert {v for v, s in enumerate(state) if s >> q & 1} == set(side)
            jaf = is_jaf(c, comps[p], comps[q])
            assert bool(lane_free >> q & 1) == jaf == ((p, q) in edges)
            if jaf:
                assert edges[p, q].cut.side_a == side
    return edges


def test_one_closure_freeness_agrees_with_is_jaf():
    # The lane scan over (K1, K2, the leftover nodes) decides the pair (K1, K2);
    # its free verdict must be joint-ancestor freeness, its cut the two closures.
    rng = random.Random(4404)
    verdicts = set()
    for k in range(600):
        c = _random_chain(rng, k)
        n = c.graph.n
        nodes = list(range(n))
        rng.shuffle(nodes)
        cut = rng.randint(1, n - 1)
        first = rng.sample(nodes[:cut], rng.randint(1, cut))
        second = rng.sample(nodes[cut:], rng.randint(1, n - cut))
        k1, k2 = NodeSet.of(first, n), NodeSet.of(second, n)
        rest = (k1 | k2).complement()
        edges = _assert_lanes_hold_the_closures(c, [k1, k2, rest] if rest else [k1, k2])
        edge = edges.get((0, 1))
        free = is_jaf(c, k1, k2)
        assert (edge is not None) == free
        if free:
            assert edge.cut.side_b == ancestors_avoiding(c.graph, k2, k1)
            assert edge.cut.side_a == ancestors_avoiding(c.graph, k1, k2)
        verdicts.add(free)
    assert verdicts == {True, False}


def test_lanes_past_the_first_byte_hold_the_closures():
    # The side read packs a pass's lanes into bytes from its lowest free lane,
    # so partitions of more than eight parts reach later bytes and unaligned starts.
    rng = random.Random(6606)
    partitions = []
    for k in range(60):
        n = rng.randint(9, 40)
        if k % 2:
            c = FormalChain(random_strongly_connected(rng, n, rng.uniform(0.0, 0.4)))
        else:
            c = _random_edge_chain(rng, n)
        partitions.append((c, [NodeSet(1 << v, n) for v in range(n)]))
    for spec in (
        ModelSpec(Family.BATCH_V1, {"multiple": 3, "truncation": 40}),
        ModelSpec(Family.BATCH_V2, {"truncation": 40}),
    ):
        c = generate(spec)
        # The partitions levels 2 and 3 scan; batchv1's level 3 has one part.
        for level in analyze(c, 2).levels:
            partitions.append((c, list(level.components)))
    lanes = []
    for c, comps in partitions:
        edges = _assert_lanes_hold_the_closures(c, comps)
        low: dict[int, int] = {}
        for p, q in edges:
            low[p] = min(low.get(p, q), q)
        lanes += [(low[p], q) for p, q in edges]
    # Some free lane lies past the first byte of a pass whose lowest free lane is off a byte boundary.
    assert any(low % 8 and q - low >= 8 for low, q in lanes)
    assert sum(q >= 8 for _, q in lanes) > 150


@pytest.mark.parametrize(
    "spec, pairs",
    [
        (ModelSpec(Family.TWO_WAY_CYCLE, {"n": 60}), 0),
        (ModelSpec(Family.BATCH_V2, {"truncation": 40}), 926),
        (ModelSpec(Family.BATCH_V1, {"multiple": 3, "truncation": 40}), 351),
    ],
    ids=["twoway-60", "batchv2-40", "batchv1-3-40"],
)
def test_recursion_scan_counts_are_pinned(monkeypatch, spec, pairs):
    # Pairs decided over all levels, one lane each; settled pairs get none.
    c = generate(spec)
    c1 = cut_graph(c)
    decided = []
    scan = higher_level._free_lanes

    def counted(*args):
        for p, lanes, free, state in scan(*args):
            decided.append(lanes.bit_count())
            yield p, lanes, free, state

    monkeypatch.setattr(higher_level, "_free_lanes", counted)
    higher_level_cut_graph(c, 6, c1)
    assert sum(decided) == pairs


# ---- the first level inside analyze ----

# Every family at its default size, plus every chain size the benchmark runs.
_ANALYZE_SPECS = _RESCAN_SPECS + [
    ModelSpec(Family.ONE_WAY_CYCLE, {"n": 40}),
    ModelSpec(Family.ONE_WAY_CYCLE, {"n": 60}),
    ModelSpec(Family.BIRTH_DEATH, {"n": 100}),
    ModelSpec(Family.QBD_TOY, {"blocks": 16, "blocksize": 5}),
    ModelSpec(Family.TREE, {"n": 63}),
]


def _assert_first_level_matches_the_closures(c: FormalChain) -> int:
    # analyze reads level 1 from the lane scan; the per-pair closures must agree.
    found = analyze(c, 6)
    c1 = cut_graph(c)
    first = found.levels[0]
    assert first.level == 1
    assert first.components == c1.components
    labels = c.graph.labels
    pairs = [(h.comp_i, h.comp_j) for h in first.hyperedges]
    assert pairs == sorted(c1.edges, key=lambda e: sorted((labels[e[0]], labels[e[1]])))
    cuts = [h.cut for lv in found.levels[:2] for h in lv.hyperedges]
    assert len(cuts) == len(found.relations) >= len(pairs)
    for (a, b), cut, relation in zip(pairs, cuts, found.relations):
        assert cut == sourced_cut(c, a, b)
        assert relation == s_relation(c, a, b)
    assert found.levels[1:] == higher_level_cut_graph(c, 6, c1)
    return len(c1.edges)


@pytest.mark.parametrize(
    "spec", _ANALYZE_SPECS, ids=lambda s: "-".join([s.family.value, *map(str, s.params.values())])
)
def test_analyze_first_level_matches_the_closures_on_families(spec):
    c = generate(spec)
    _assert_first_level_matches_the_closures(c)
    # analyze and higher_level_cut_graph enter the one level loop alike.
    for k in range(2, 6):
        assert analyze(c, k).levels[1:] == higher_level_cut_graph(c, k)


def test_analyze_first_level_matches_the_closures_on_random_chains():
    rng = random.Random(5505)
    edges = 0
    for k in range(1000):
        edges += _assert_first_level_matches_the_closures(_random_chain(rng, k))
    assert edges > 1000


@pytest.mark.parametrize(
    "c",
    [
        generate(ModelSpec(Family.TWO_WAY_CYCLE, {"n": 5})),
        FormalChain(DirectedGraph(["a"], [(0, 0)])),
    ],
    ids=["twoway-5", "one-node-self-loop"],
)
def test_analyze_first_level_without_edges_keeps_every_node_apart(c):
    (first,) = analyze(c, 6).levels
    assert first.level == 1
    assert first.hyperedges == ()
    assert first.components == tuple(NodeSet(1 << v, c.n) for v in range(c.n))


# ---- the first level, block by block ----


def _level_one(hyperedges) -> dict:
    found = {
        (h.comp_i, h.comp_j): (h.cut.side_a.mask, h.cut.source_a.mask, h.cut.source_b.mask)
        for h in hyperedges
    }
    assert len(found) == len(hyperedges)
    return found


def test_block_split_matches_the_whole_graph_scan_on_glued_chains():
    rng = random.Random(9909)
    multi = 0
    for k in range(400):
        c = FormalChain(glued_chain(rng, rng.randint(1, 6), 7))
        singletons = [1 << v for v in range(c.n)]
        whole = _level_one(higher_level._scan_pairs(c, singletons, set()))
        assert _level_one(higher_level._first_level(c)) == whole
        assert cut_graph(c).edges == set(whole)
        multi += len(_blocks(c.graph)) > 1
    assert multi > 300


@pytest.mark.parametrize(
    "spec, largest",
    [
        (ModelSpec(Family.BIRTH_DEATH, {"n": 3200}), 2),
        (ModelSpec(Family.TREE, {"n": 1023}), 2),
        (ModelSpec(Family.QBD_TOY, {"blocks": 100, "blocksize": 10}), 10),
    ],
    ids=["bd-3200", "tree-1023", "qbd-100-10"],
)
def test_first_level_scans_no_graph_larger_than_a_block(monkeypatch, spec, largest):
    # A work bound, not a timing: every lane scan of level 1 runs on one block.
    c = generate(spec)
    assert max(mask.bit_count() for mask, _ in _blocks(c.graph)) == largest
    sizes = []
    scan = product_form._free_lanes

    def counted(in_adj, *args):
        sizes.append(len(in_adj))
        return scan(in_adj, *args)

    monkeypatch.setattr(product_form, "_free_lanes", counted)
    higher_level._first_level(c)
    cut_graph(c)
    assert all(size <= largest for size in sizes)
    # Two-node blocks are free pairs without a scan; qbd scans each ten-node cycle.
    assert len(sizes) == (0 if largest == 2 else 2 * 100)


def test_first_level_scans_a_one_block_chain_whole(monkeypatch):
    c = generate(ModelSpec(Family.ONE_WAY_CYCLE, {"n": 60}))
    graphs = []
    scan = product_form._free_lanes

    def counted(in_adj, *args):
        graphs.append(in_adj)
        return scan(in_adj, *args)

    monkeypatch.setattr(product_form, "_free_lanes", counted)
    assert len(higher_level._first_level(c)) == 60 * 59 // 2
    assert len(cut_graph(c).edges) == 60 * 59 // 2
    # One scan of the chain's own adjacency each, with no subgraph copy.
    assert len(graphs) == 2 and all(adj is c.graph.in_adj for adj in graphs)


# ---- shared factors ----


def test_analyze_builds_one_factor_per_node_of_a_one_way_cycle():
    # Node i's only crossing edge is (i, i+1), whichever pair's cut it crosses.
    c = generate(ModelSpec(Family.ONE_WAY_CYCLE, {"n": 60}))
    found = analyze(c, 2)
    assert len(found.relations) == 60 * 59 // 2
    factors = {id(f) for r in found.relations for f in (r.lhs_factor, r.rhs_factor)}
    assert len(factors) == 60
    for h, relation in zip(found.levels[0].hyperedges, found.relations):
        assert relation == s_relation(c, h.comp_i, h.comp_j)


def test_analyze_second_level_relations_equal_sps_relation():
    c = generate(ModelSpec(Family.BATCH_V1))
    found = analyze(c, 2)
    first_count = len(found.levels[0].hyperedges)
    second = found.relations[first_count:]
    hyperedges = found.levels[1].hyperedges
    assert len(second) == len(hyperedges) == 5
    for h, relation in zip(hyperedges, second):
        assert relation == sps_relation(c, h, min(h.cut.source_a), min(h.cut.source_b))
    # Each hop of a level-2 term is a first-level factor object; the last factor is the crossing sum.
    first = {id(f) for r in found.relations[:first_count] for f in (r.lhs_factor, r.rhs_factor)}
    products = [
        t for r in second for side in (r.lhs_factor, r.rhs_factor) for t in side.terms
        if isinstance(t, ProductExpr)
    ]
    assert products
    assert all(id(f) in first for p in products for f, _ in p.factors[:-1])


# ---- serialization ----


def test_hypergraph_serialization_shape(tmp_path):
    path, out = str(tmp_path / "batchv1.json"), str(tmp_path / "report.json")
    assert cli.main(["generate", "batchv1", "--out", path]) == cli.EXIT_OK
    assert cli.main(["analyze", path, "--max-level", "2", "--out", out]) == cli.EXIT_OK
    with open(out, encoding="utf-8") as handle:
        (doc,) = json.load(handle)["levels"]
    assert list(doc) == ["level", "hyperedges", "components", "relations"]
    assert doc["level"] == 2
    assert len(doc["hyperedges"]) == 5
    first = doc["hyperedges"][0]
    assert set(first) == {"source_i", "source_j", "cut_a", "cut_b"}
    assert first["source_i"] == sorted(first["source_i"])
    assert json.loads(json.dumps(doc)) == doc
