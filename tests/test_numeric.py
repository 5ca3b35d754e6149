"""Stationary solves, residual checks, the exhaustive oracle, and ratio witnesses."""
from __future__ import annotations

import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from prodform import (
    ChainKind,
    Cut,
    DirectedGraph,
    FormalChain,
    InvalidArgumentError,
    NumericError,
    RateAtom,
    ResourceLimitError,
    analyze,
    cut_graph,
    cut_source,
    cut_equation_check,
    cut_residuals,
    enumerate_sourced_cuts,
    is_jaf,
    make_relation,
    random_rates,
    rate_assignment,
    s_relation,
    sourced_cut,
    stationary,
    sum_of,
    theorem3_witness,
    verify_relation,
)
from prodform.cli import document_to_chain, parse_document
from prodform.graph_core import NodeSet
from prodform.models import Family, ModelSpec, generate

from util import (
    birth_death,
    brute_sourced_cuts,
    corpus,
    corpus_chain,
    ladder7,
    nodeset,
    one_way_cycle,
    one_way_cycle_plus,
    random_strongly_connected,
    reference_cut_residual,
    ring9,
    two_way_cycle,
)

BALANCE_TOL = 1e-10


# ---- rate assignments ----


def test_rate_assignment_validates_edge_cover_and_positivity():
    c = FormalChain(birth_death(3))
    good = {e: 1.0 for e in c.graph.edge_list}
    assert rate_assignment(c, good).values == good
    with pytest.raises(InvalidArgumentError):
        rate_assignment(c, {**good, (0, 2): 1.0})
    missing = dict(good)
    del missing[(0, 1)]
    with pytest.raises(InvalidArgumentError):
        rate_assignment(c, missing)
    with pytest.raises(InvalidArgumentError):
        rate_assignment(c, {**good, (0, 1): 0.0})
    with pytest.raises(InvalidArgumentError):
        rate_assignment(c, good, ChainKind.DTMC)  # rows sum to 2, not 1


def test_random_rates_are_deterministic_and_in_range():
    c = FormalChain(ladder7())
    first = random_rates(c, 7)
    second = random_rates(c, 7)
    assert first.values == second.values
    assert random_rates(c, 8).values != first.values
    assert all(0.1 <= v <= 10.0 for v in first.values.values())


def test_random_rates_dtmc_rows_are_distributions():
    c = FormalChain(ladder7(), ChainKind.DTMC)
    rates = random_rates(c, 3)
    g = c.graph
    for u in range(g.n):
        total = sum(rates.values[(u, v)] for v in g.out_adj[u])
        assert total == pytest.approx(1.0, abs=1e-12)


def test_random_rates_distinct_across_seeds():
    c = FormalChain(ladder7())
    seen = {tuple(sorted(random_rates(c, s).values.items())) for s in range(20)}
    assert len(seen) == 20
    assert all(v > 0 for vals in seen for _, v in vals)


# ---- stationary solves ----


def test_stationary_two_node_chain_closed_form():
    c = FormalChain(birth_death(2))
    pi = stationary(c, rate_assignment(c, {(0, 1): 1.0, (1, 0): 2.0}))
    assert pi[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert pi[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sum(pi.pi) == pytest.approx(1.0, abs=1e-15)


def test_stationary_symmetric_cycle_is_uniform():
    c = FormalChain(two_way_cycle(3))
    pi = stationary(c, rate_assignment(c, {e: 2.0 for e in c.graph.edge_list}))
    for v in range(3):
        assert pi[v] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_stationary_one_way_cycle_balances_every_edge():
    c = FormalChain(one_way_cycle(5))
    rates = random_rates(c, 11)
    pi = stationary(c, rates)
    flows = [pi[i] * rates.values[(i, (i + 1) % 5)] for i in range(5)]
    for x, y in itertools.combinations(flows, 2):
        assert abs(x - y) / (x + y) <= BALANCE_TOL


def test_stationary_self_consistency_on_random_chains():
    rng = random.Random(19)
    for trial in range(30):
        g = random_strongly_connected(rng, rng.randint(2, 9))
        c = FormalChain(g)
        rates = random_rates(c, trial)
        pi = stationary(c, rates)
        assert sum(pi.pi) == pytest.approx(1.0, abs=1e-12)
        for v in range(g.n):
            out = pi[v] * sum(rates.values[(v, w)] for w in g.out_adj[v])
            inn = sum(pi[u] * rates.values[(u, v)] for u in g.in_adj[v])
            assert abs(out - inn) / (out + inn) <= BALANCE_TOL


def test_stationary_dtmc_and_ctmc_agree_on_the_same_values():
    # with per-node totals uniformly 1, the balance systems coincide
    c_d = FormalChain(ladder7(), ChainKind.DTMC)
    rates_d = random_rates(c_d, 21)
    c_c = FormalChain(ladder7(), ChainKind.CTMC)
    rates_c = rate_assignment(c_c, rates_d.values)
    pi_d = stationary(c_d, rates_d)
    pi_c = stationary(c_c, rates_c)
    for a, b in zip(pi_d.pi, pi_c.pi):
        assert a == pytest.approx(b, abs=1e-10)


def _chain_id(spec: tuple[Family, dict[str, int]]) -> str:
    family, params = spec
    return family.value + "".join(f"-{v}" for v in params.values())


WIDE_RANGE_CHAINS = [
    (Family.BIRTH_DEATH, {"n": 60}),
    (Family.BIRTH_DEATH, {"n": 200}),
    (Family.BIRTH_DEATH, {"n": 400}),
    (Family.BATCH_V1, {"truncation": 200}),
    (Family.BATCH_V2, {"truncation": 80}),
]


@pytest.mark.parametrize("family,params", WIDE_RANGE_CHAINS, ids=map(_chain_id, WIDE_RANGE_CHAINS))
def test_stationary_balances_long_chains_whose_measure_spans_many_decades(family, params):
    # Products of rates in [0.1, 10] along a long chain spread pi over hundreds
    # of decades; a solve that subtracts loses the small entries.
    c = generate(ModelSpec(family, params))
    for seed in range(20):
        rates = random_rates(c, seed)
        pi = stationary(c, rates)
        assert sum(pi.pi) == pytest.approx(1.0, abs=1e-12)
        for v in range(c.n):
            out = pi[v] * sum(rates.values[(v, w)] for w in c.graph.out_adj[v])
            inn = sum(pi[u] * rates.values[(u, v)] for u in c.graph.in_adj[v])
            assert abs(out - inn) / (out + inn) <= BALANCE_TOL


EXACT_CHAINS = [
    (Family.BIRTH_DEATH, {"n": 30}),
    (Family.ONE_WAY_CYCLE, {"n": 30}),
    (Family.BATCH_V1, {"truncation": 20}),
    (Family.MSJ_SATURATED, {}),
]


@pytest.mark.parametrize("family,params", EXACT_CHAINS, ids=map(_chain_id, EXACT_CHAINS))
def test_stationary_and_relations_are_exact_on_rational_rates(family, params):
    c = generate(ModelSpec(family, params))
    rng = random.Random(5)
    rates = rate_assignment(
        c, {e: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for e in c.graph.edge_list}
    )
    pi = stationary(c, rates)
    assert all(isinstance(x, Fraction) for x in pi.pi) and sum(pi.pi) == 1
    for v in range(c.n):
        out = pi[v] * sum(rates.values[(v, w)] for w in c.graph.out_adj[v])
        inn = sum(pi[u] * rates.values[(u, v)] for u in c.graph.in_adj[v])
        assert out == inn
    found = analyze(c, 3)
    assert found.relations
    for r in found.relations:
        assert verify_relation(pi, rates, r) == 0
    cuts = found.cuts + [h.cut for lv in found.levels[1:] for h in lv.hyperedges]
    assert all(type(x) is Fraction and x == 0 for x in cut_residuals(pi, rates, cuts))


def test_stationary_keeps_tiny_entries_and_reports_underflow():
    # pi[a] = q(1,2) * q(2,0) * pi[b] to first order: 1e-300 keeps its digits,
    # 1e-400 underflows and must raise, not divide by zero.
    c = FormalChain(DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0), (2, 1)]))
    tiny = rate_assignment(c, {(0, 1): 1.0, (1, 2): 1e-150, (2, 0): 1e-150, (2, 1): 1.0})
    pi = stationary(c, tiny)
    assert pi[0] / pi[1] == pytest.approx(1e-300, rel=1e-12)
    lost = rate_assignment(c, {(0, 1): 1.0, (1, 2): 1e-200, (2, 0): 1e-200, (2, 1): 1.0})
    with pytest.raises(NumericError):
        stationary(c, lost)


def test_stationary_respects_the_node_budget():
    c = FormalChain(one_way_cycle(2001))
    with pytest.raises(ResourceLimitError):
        stationary(c, random_rates(c, 0))


# ---- relation and cut verification ----


def test_cut_relations_verify_on_example_chains():
    for g in (birth_death(6), one_way_cycle(5), ladder7(), ring9()):
        c = FormalChain(g)
        cg = cut_graph(c)
        for seed in range(5):
            rates = random_rates(c, seed)
            pi = stationary(c, rates)
            for i, j in sorted(cg.edges):
                assert verify_relation(pi, rates, s_relation(c, i, j)) <= BALANCE_TOL


def test_corrupted_relation_fails_loudly():
    c = FormalChain(two_way_cycle(5))
    fake = make_relation(0, 2, sum_of([RateAtom(0, 1)]), sum_of([RateAtom(2, 1)]))
    rates = random_rates(c, 5)
    pi = stationary(c, rates)
    assert verify_relation(pi, rates, fake) > 1e-4


def test_verify_relation_rejects_foreign_atoms():
    c = FormalChain(birth_death(3))
    rates = random_rates(c, 1)
    pi = stationary(c, rates)
    foreign = make_relation(0, 2, sum_of([RateAtom(0, 2)]), sum_of([RateAtom(2, 1)]))
    with pytest.raises(InvalidArgumentError):
        verify_relation(pi, rates, foreign)


def _cut_from_side(c: FormalChain, side: NodeSet) -> Cut:
    src_a, src_b = cut_source(c, side)
    return Cut(side, src_a, src_b)


def test_every_bipartition_balances_on_example_chains():
    for g in (birth_death(5), ladder7()):
        c = FormalChain(g)
        rates = random_rates(c, 2)
        pi = stationary(c, rates)
        for mask in range(1, (1 << g.n) - 1):
            cut = _cut_from_side(c, NodeSet(mask, g.n))
            assert cut_equation_check(pi, rates, cut) <= BALANCE_TOL


def test_prefix_cut_is_the_single_edge_balance():
    c = FormalChain(birth_death(6))
    rates = random_rates(c, 9)
    pi = stationary(c, rates)
    for i in range(5):
        cut = _cut_from_side(c, nodeset(c.graph, range(i + 1)))
        assert cut_equation_check(pi, rates, cut) <= BALANCE_TOL
        lhs = pi[i] * rates.values[(i, i + 1)]
        rhs = pi[i + 1] * rates.values[(i + 1, i)]
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_singleton_cut_is_the_node_balance_equation():
    c = FormalChain(ladder7())
    rates = random_rates(c, 4)
    pi = stationary(c, rates)
    g = c.graph
    for v in range(g.n):
        cut = _cut_from_side(c, NodeSet.of([v], g.n))
        assert cut_equation_check(pi, rates, cut) <= BALANCE_TOL
        out = pi[v] * sum(rates.values[(v, w)] for w in g.out_adj[v])
        inn = sum(pi[u] * rates.values[(u, v)] for u in g.in_adj[v])
        assert out == pytest.approx(inn, rel=1e-10)


def test_three_term_crossing_identity_on_the_ladder():
    # the bipartition splitting off {0, 1, 4} balances one flow against two
    c = FormalChain(ladder7())
    g = c.graph
    rates = random_rates(c, 6)
    pi = stationary(c, rates)
    by = g.index_of
    side = NodeSet.of([by["2"], by["3"], by["5"], by["6"]], g.n)
    cut = _cut_from_side(c, side)
    assert cut_equation_check(pi, rates, cut) <= BALANCE_TOL
    lhs = pi[by["2"]] * rates.values[(by["2"], by["1"])]
    rhs = pi[by["1"]] * rates.values[(by["1"], by["5"])] + pi[by["4"]] * rates.values[
        (by["4"], by["5"])
    ]
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---- batched cut residuals ----


def _assert_residuals_exact(c: FormalChain, rates, cuts: list[Cut]) -> None:
    pi = stationary(c, rates)
    assert cut_residuals(pi, rates, cuts) == [reference_cut_residual(pi, rates, cut) for cut in cuts]


def _every_bipartition(c: FormalChain) -> list[Cut]:
    return [_cut_from_side(c, NodeSet(mask, c.n)) for mask in range(1, (1 << c.n) - 1)]


def test_cut_residuals_equal_the_loop_on_every_corpus_bipartition():
    for k, (n, rows) in enumerate(corpus()):
        if n > 1:
            c = corpus_chain(n, rows)
            _assert_residuals_exact(c, random_rates(c, k), _every_bipartition(c))


def test_cut_residuals_equal_the_loop_on_random_chain_cuts():
    rng = random.Random(29)
    deep = 0
    for seed in range(200):
        g = random_strongly_connected(rng, rng.randint(3, 12), rng.uniform(0.05, 0.4))
        c = FormalChain(g)
        found = analyze(c, 3)
        third = [h.cut for lv in found.levels[1:] for h in lv.hyperedges]
        deep += len(third)
        _assert_residuals_exact(c, random_rates(c, seed), found.cuts + third)
    assert deep > 0


def test_cut_residuals_follow_the_document_edge_order():
    g = ladder7()
    rng = random.Random(3)
    order = list(g.edge_list)
    rng.shuffle(order)
    doc = {
        "nodes": list(g.labels),
        "edges": [
            {"from": g.labels[u], "to": g.labels[v], "rate": 10.0 ** rng.uniform(-1.0, 1.0)}
            for u, v in order
        ],
    }
    c, rates = document_to_chain(parse_document(json.dumps(doc)))
    assert list(rates.values) != list(c.graph.edge_list)
    _assert_residuals_exact(c, rates, _every_bipartition(c))


def test_cut_residuals_equal_the_loop_with_self_loops():
    base = two_way_cycle(6)
    g = DirectedGraph(list(base.labels), [*base.edge_list, (0, 0), (3, 3), (4, 4)])
    c = FormalChain(g)
    for seed in range(3):
        _assert_residuals_exact(c, random_rates(c, seed), _every_bipartition(c))


def test_cut_residuals_are_exact_on_a_long_cycle():
    c = FormalChain(one_way_cycle(60))
    cuts = analyze(c, 2).cuts
    for seed in range(3):
        _assert_residuals_exact(c, random_rates(c, seed), cuts)


def test_cut_residuals_validate_the_universe():
    c = FormalChain(birth_death(4))
    rates = random_rates(c, 0)
    pi = stationary(c, rates)
    side = NodeSet.of([0], 5)
    with pytest.raises(InvalidArgumentError, match="not over the chain's 4 nodes"):
        cut_residuals(pi, rates, [Cut(side, side, side.complement())])
    head, next_ = NodeSet.of([0], 4), NodeSet.of([1], 4)
    for bad in (
        Cut(head, NodeSet(0, 4), next_),
        Cut(head, head, NodeSet(0, 4)),
        Cut(head, next_, next_),
        Cut(head, head, head),
    ):
        with pytest.raises(InvalidArgumentError, match="source"):
            cut_residuals(pi, rates, [bad])
    cut = Cut(head, head, next_)
    assert cut_residuals(pi, rates, [cut]) == [reference_cut_residual(pi, rates, cut)]
    assert cut_residuals(pi, rates, []) == []
    # The smallest subnormal rates solve to a uniform pi, but every flow underflows to 0.
    lost = rate_assignment(c, {e: 5e-324 for e in c.graph.edge_list})
    with pytest.raises(NumericError, match="balance is undefined"):
        cut_residuals(stationary(c, lost), lost, [cut])


def test_cut_residuals_need_every_source_of_a_cut():
    c = generate(ModelSpec(Family.BATCH_V2))
    (h,) = analyze(c, 2).levels[0].hyperedges
    labels = c.graph.labels
    assert sorted(labels[v] for v in h.cut.source_a) == ["bar1", "bar2"]
    assert [labels[v] for v in h.cut.source_b] == ["2"]
    partial = [Cut(h.cut.side_a, NodeSet.of([v], c.n), h.cut.source_b) for v in h.cut.source_a]
    for seed in range(20):
        rates = random_rates(c, seed)
        pi = stationary(c, rates)
        assert cut_residuals(pi, rates, [h.cut]) == [reference_cut_residual(pi, rates, h.cut)]
        assert min(cut_residuals(pi, rates, partial)) > 1e-3


def test_cut_residuals_bound_their_temporaries():
    n = 400
    c = FormalChain(one_way_cycle(n))
    rates = random_rates(c, 1)
    pi = stationary(c, rates)
    full = (1 << n) - 1
    cuts = []
    for k in range(80_000):
        start, length = k % n, 1 + k // n
        arc = ((1 << length) - 1) << start
        side = NodeSet((arc | arc >> n) & full, n)
        last, before = (start + length - 1) % n, (start - 1) % n
        cuts.append(Cut(side, NodeSet.of([last], n), NodeSet.of([before], n)))
    tracemalloc.start()
    try:
        residuals = cut_residuals(pi, rates, cuts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert len(residuals) == len(cuts)
    assert max(residuals) <= BALANCE_TOL


# ---- exhaustive oracle ----


def test_oracle_finds_the_published_pairs_on_the_ladder():
    c = FormalChain(ladder7())
    g = c.graph
    found = enumerate_sourced_cuts(c)
    by = g.index_of
    for a, b in [("0", "1"), ("1", "4"), ("2", "5"), ("3", "6")]:
        i, j = sorted((by[a], by[b]))
        assert (i, j) in found


def test_oracle_on_cycles():
    assert enumerate_sourced_cuts(FormalChain(two_way_cycle(4))) == {}
    found = enumerate_sourced_cuts(FormalChain(one_way_cycle(4)))
    assert set(found) == set(itertools.combinations(range(4), 2))


def test_oracle_respects_the_node_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_sourced_cuts(FormalChain(one_way_cycle(21)))


def test_oracle_matches_structural_search_on_random_chains():
    rng = random.Random(101)
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randint(2, 7))
        c = FormalChain(g)
        found = enumerate_sourced_cuts(c)
        assert set(found) == cut_graph(c).edges
        for (i, j), cut in found.items():
            assert cut == sourced_cut(c, i, j)
        # independent edge-scan oracle agrees as well
        brute = brute_sourced_cuts(g)
        assert set(found) == {(min(i, j), max(i, j)) for i, j in brute}


# ---- ratio-separating witnesses ----


def _ratio(c: FormalChain, rates, i: int, j: int) -> float:
    pi = stationary(c, rates)
    return pi[i] / pi[j]


def test_witness_absent_for_free_pairs():
    c = FormalChain(one_way_cycle(5))
    for i, j in itertools.combinations(range(5), 2):
        assert theorem3_witness(c, i, j) is None


def test_witness_on_the_two_way_cycle():
    c = FormalChain(two_way_cycle(5))
    g = c.graph
    i, j = g.index_of["1"], g.index_of["3"]
    w = theorem3_witness(c, i, j)
    assert g.labels[w.joint_ancestor] == "2"
    assert [g.labels[v] for v in w.path_a] == ["2", "1"]
    assert [g.labels[v] for v in w.path_b] == ["2", "3"]
    assert w.epsilon == pytest.approx(1.0 / 3.0)
    ratio_a = _ratio(c, w.q_a, i, j)
    ratio_b = _ratio(c, w.q_b, i, j)
    assert abs(ratio_a / ratio_b - 1.0) > 1e-3


def test_witness_on_a_reversible_chain():
    c = FormalChain(birth_death(6))
    w = theorem3_witness(c, 1, 3)
    assert w.joint_ancestor == 2
    assert w.path_a == (2, 1)
    assert w.path_b == (2, 3)
    ratio_a = _ratio(c, w.q_a, 1, 3)
    ratio_b = _ratio(c, w.q_b, 1, 3)
    assert abs(ratio_a / ratio_b - 1.0) > 1e-3


def test_witness_assignments_differ_only_at_the_ancestor():
    c = FormalChain(birth_death(6))
    w = theorem3_witness(c, 0, 3)
    k = w.joint_ancestor
    a2, b2 = w.path_a[1], w.path_b[1]
    diff = {e for e in w.q_a.values if w.q_a.values[e] != w.q_b.values[e]}
    assert diff == {(k, a2), (k, b2)}
    assert set(w.path_a) & set(w.path_b) == {k}
    assert w.epsilon <= 1.0 / (3.0 * max(len(w.path_a) - 1, len(w.path_b) - 1))


def test_witness_spreads_leftover_mass_at_a_branching_ancestor():
    # hub 0 points at three nodes; the witness for (1, 2) must keep a positive
    # share on the third edge in both assignments
    g = DirectedGraph(
        ["k", "i", "j", "x"],
        [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)],
    )
    c = FormalChain(g)
    w = theorem3_witness(c, 1, 2)
    assert w.joint_ancestor == 0
    assert w.q_a.values[(0, 1)] == pytest.approx(1.0 - w.epsilon)
    assert w.q_a.values[(0, 2)] == pytest.approx(w.epsilon / 2.0)
    assert w.q_a.values[(0, 3)] == pytest.approx(w.epsilon / 2.0)
    assert w.q_b.values[(0, 2)] == pytest.approx(1.0 - w.epsilon)
    assert w.q_b.values[(0, 1)] == pytest.approx(w.epsilon / 2.0)
    assert w.q_b.values[(0, 3)] == pytest.approx(w.epsilon / 2.0)
    assert abs(_ratio(c, w.q_a, 1, 2) / _ratio(c, w.q_b, 1, 2) - 1.0) > 1e-3


def test_witness_routes_interiors_along_their_path():
    # the extra chord makes some pairs share ancestors whose paths cross
    # degree-one cycle nodes, which must forward all their mass
    c = FormalChain(one_way_cycle_plus(5, 3))
    g = c.graph
    i, j = g.index_of["2"], g.index_of["4"]
    w = theorem3_witness(c, i, j)
    for path in (w.path_a, w.path_b):
        for p in range(1, len(path) - 1):
            node, successor = path[p], path[p + 1]
            share = w.q_a.values[(node, successor)]
            if len(g.out_adj[node]) == 1:
                assert share == 1.0
            else:
                assert share == pytest.approx(1.0 - w.epsilon)
    assert abs(_ratio(c, w.q_a, i, j) / _ratio(c, w.q_b, i, j) - 1.0) > 1e-3


def test_witness_separates_every_bound_pair_in_the_examples():
    for g in (two_way_cycle(5), birth_death(6), ladder7(), ring9(), one_way_cycle_plus(5, 3)):
        c = FormalChain(g)
        for i, j in itertools.combinations(range(g.n), 2):
            w = theorem3_witness(c, i, j)
            free = is_jaf(c, NodeSet.of([i], g.n), NodeSet.of([j], g.n))
            assert (w is None) == free
            if w is None:
                continue
            ratio_a = _ratio(c, w.q_a, i, j)
            ratio_b = _ratio(c, w.q_b, i, j)
            assert abs(ratio_a / ratio_b - 1.0) > 1e-3
