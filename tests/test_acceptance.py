"""Acceptance suite: the ten headline guarantees, one test per criterion.

Each test prints (and registers with the terminal summary) a single pass/fail
line. Criterion 1 enumerates every strongly connected loop-free digraph on up
to five nodes once per isomorphism class; criterion 10 reuses that corpus.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from conftest import record_criterion
from prodform.factors import RateAtom, evaluate
from prodform.graph_core import DirectedGraph, NodeSet
from prodform.higher_level import broad_cut_search, higher_level_cut_graph
from prodform.models import Family, ModelSpec, expected_fixtures, generate
from prodform.numeric import (
    cut_equation_check,
    enumerate_sourced_cuts,
    random_rates,
    stationary,
    theorem3_witness,
    verify_relation,
)
from prodform.product_form import (
    Cut,
    FormalChain,
    clique_check,
    cut_graph,
    cut_source,
    is_jaf,
    s_relation,
    sourced_cut,
)

from util import corpus, corpus_chain, random_strongly_connected

_REPORT_DIR = Path(__file__).resolve().parent.parent / "reports"


@contextmanager
def _criterion(number: int, label: str) -> Iterator[None]:
    try:
        yield
    except BaseException:
        record_criterion(number, label, False)
        print(f"criterion {number}: FAIL — {label}")
        raise
    record_criterion(number, label, True)
    print(f"criterion {number}: PASS — {label}")


# ---- shared helpers ----


def _by_labels(c: FormalChain, labels) -> NodeSet:
    return NodeSet.of([c.graph.index_of[lab] for lab in labels], c.graph.n)


def _labels(c: FormalChain, s: NodeSet) -> frozenset[str]:
    return frozenset(c.graph.labels[v] for v in s)


def _c1_label_pairs(c: FormalChain) -> set[frozenset[str]]:
    return {
        frozenset({c.graph.labels[a], c.graph.labels[b]}) for a, b in cut_graph(c).edges
    }


def _relations(c: FormalChain):
    return [s_relation(c, a, b) for a, b in sorted(cut_graph(c).edges)]


def _assert_scan_matches_oracle(c: FormalChain) -> None:
    oracle = enumerate_sourced_cuts(c)
    assert set(cut_graph(c).edges) == set(oracle)
    for a, b in itertools.combinations(range(c.n), 2):
        found = sourced_cut(c, a, b)
        if (a, b) in oracle:
            assert found == oracle[(a, b)]
        else:
            assert found is None


def _bipartition_cut(c: FormalChain, mask: int) -> Cut:
    side_a = NodeSet(mask, c.n)
    return Cut(side_a, *cut_source(c, side_a))


# ---- criteria ----


def test_criterion_01_scan_agrees_with_the_exhaustive_oracle():
    label = "cut scan equals the brute-force oracle on every small graph"
    with _criterion(1, label):
        started = time.perf_counter()
        for n, rows in corpus():
            _assert_scan_matches_oracle(corpus_chain(n, rows))
        rng = random.Random(113)
        for k in range(200):
            g = random_strongly_connected(rng, 6 + k % 2)
            _assert_scan_matches_oracle(FormalChain(g))
        elapsed = time.perf_counter() - started
        print(f"  corpus of {len(corpus())} classes + 200 samples in {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_02_ladder_pairs_and_cut_equations():
    label = "seven-node ladder: pinned pairs found, six cut equations hold"
    with _criterion(2, label):
        spec = ModelSpec(Family.LADDER)
        c = generate(spec)
        fx = expected_fixtures(spec)
        pairs = _c1_label_pairs(c)
        for want in ({"0", "1"}, {"1", "4"}, {"2", "5"}, {"3", "6"}):
            assert frozenset(want) in pairs
        cuts = []
        for side_a, _ in fx.cut_sides:
            a = _by_labels(c, side_a)
            cuts.append(Cut(a, *cut_source(c, a)))
        assert len(cuts) == 6
        for seed in range(20):
            rates = random_rates(c, seed)
            pi = stationary(c, rates)
            assert max(cut_equation_check(pi, rates, cut) for cut in cuts) <= 1e-10


def test_criterion_03_example_suite():
    label = "cycles, tree, and block chain behave as catalogued"
    with _criterion(3, label):
        # One-way cycle: every pair is related and the whole node set is a clique.
        oneway = generate(ModelSpec(Family.ONE_WAY_CYCLE, {"n": 5}))
        all_pairs = {frozenset(p) for p in itertools.combinations("12345", 2)}
        assert _c1_label_pairs(oneway) == all_pairs
        assert clique_check(oneway, NodeSet.of(range(oneway.graph.n), oneway.graph.n)) is not None

        # Adding one chord removes exactly the pairs that gain a joint ancestor.
        plus_spec = ModelSpec(Family.ONE_WAY_CYCLE_PLUS_EDGE, {"n": 5, "k": 3})
        plus = generate(plus_spec)
        lost = {frozenset(p) for p in expected_fixtures(plus_spec).non_jaf_pairs}
        assert lost == {frozenset({"2", "3"}), frozenset({"2", "4"}), frozenset({"2", "5"})}
        assert _c1_label_pairs(plus) == all_pairs - lost

        # Two-way cycle: every pair shares an ancestor, nothing is related.
        twoway = generate(ModelSpec(Family.TWO_WAY_CYCLE, {"n": 5}))
        assert _c1_label_pairs(twoway) == set()

        # Tree: each relation degenerates to plain detailed balance — the
        # factor on each side is the single crossing rate (as a one-term sum).
        tree = generate(ModelSpec(Family.TREE, {"n": 7}))
        tree_relations = _relations(tree)
        assert tree_relations
        for r in tree_relations:
            assert r.lhs_factor.terms == (RateAtom(r.lhs_node, r.rhs_node),)
            assert r.rhs_factor.terms == (RateAtom(r.rhs_node, r.lhs_node),)

        # Block chain: the between-block bridge pairs are discovered.
        qbd = generate(ModelSpec(Family.QBD_TOY))
        qbd_pairs = _c1_label_pairs(qbd)
        assert frozenset({"0.2", "1.0"}) in qbd_pairs
        assert frozenset({"1.2", "2.0"}) in qbd_pairs

        for c in (oneway, plus, tree, qbd):
            relations = _relations(c)
            for seed in range(20):
                rates = random_rates(c, seed)
                pi = stationary(c, rates)
                for r in relations:
                    assert verify_relation(pi, rates, r) <= 1e-10


def test_criterion_04_saturated_multiserver_chain():
    label = "multiserver job chain: exact graph, listed relations, closed form"
    with _criterion(4, label):
        spec = ModelSpec(Family.MSJ_SATURATED)
        c = generate(spec)
        expected: set[tuple[str, str]] = set()
        for i in (1, 2, 4, 5, 7, 8, 9):
            expected.add((str(i), str(i - 1)))
        for i in (3, 6, 10):
            expected.add((str(i), f"bar{i - 1}"))
            expected.add((f"bar{i - 1}", str(i)))
        for i in range(7):
            expected.add((str(i), f"bar{i}"))
            expected.add((f"bar{i}", str(i)))
        for i in (7, 8, 9):
            expected.add((f"bar{i}", str(i)))
        for j in (0, 1, 3, 4, 6, 7, 8):
            expected.add((f"bar{j}", f"bar{j + 1}"))
        g = c.graph
        assert {(g.labels[a], g.labels[b]) for a, b in g.edge_list} == expected

        assert len(cut_graph(c).components) == 1

        fx = expected_fixtures(spec)
        live = {(r.lhs_node, r.rhs_node): r for r in _relations(c)}
        assert len(fx.relations) == 8
        for want in fx.relations:
            assert live[(want.lhs_node, want.rhs_node)] == want

        ref = g.index_of["0"]
        for seed in range(20):
            rates = random_rates(c, seed)
            pi = stationary(c, rates)
            for lab, expr in fx.closed_form:
                got = pi[ref] * evaluate(expr, rates.values)
                assert abs(got - pi[g.index_of[lab]]) / pi[g.index_of[lab]] <= 1e-9

        small = generate(ModelSpec(Family.MSJ_SATURATED, {"c1": 2, "c2": 5, "servers": 12}))
        assert len(cut_graph(small).components) == 1


def test_criterion_05_batch_chain_first_variant():
    label = "batch chain v1: eleven relations, four listed second-level cuts, deep relation"
    with _criterion(5, label):
        spec = ModelSpec(Family.BATCH_V1)
        c = generate(spec)
        fx = expected_fixtures(spec)

        live = {(r.lhs_node, r.rhs_node): r for r in _relations(c)}
        assert len(fx.relations) == 11
        for want in fx.relations:
            assert live[(want.lhs_node, want.rhs_node)] == want

        second = higher_level_cut_graph(c, 2)[0]
        live_sources = {
            (_labels(c, h.cut.source_a), _labels(c, h.cut.source_b)) for h in second.hyperedges
        }
        assert len(fx.level2_sources) == 4
        for src_i, src_j in fx.level2_sources:
            assert (src_i, src_j) in live_sources or (src_j, src_i) in live_sources

        deep = fx.psps_relation
        assert (c.graph.labels[deep.lhs_node], c.graph.labels[deep.rhs_node]) == ("1", "3")
        assert deep.level.name == "PSPS"
        for seed in range(20):
            rates = random_rates(c, seed)
            pi = stationary(c, rates)
            assert verify_relation(pi, rates, deep) <= 1e-9


def test_criterion_06_batch_chain_second_variant():
    label = "batch chain v2: one cut each at levels two and three, broad member found"
    with _criterion(6, label):
        spec = ModelSpec(Family.BATCH_V2)
        c = generate(spec)
        fx = expected_fixtures(spec)

        second, third = higher_level_cut_graph(c, 3)
        assert (second.level, third.level) == (2, 3)
        assert len(second.hyperedges) == 1
        assert len(third.hyperedges) == 1
        h2, h3 = second.hyperedges[0], third.hyperedges[0]
        assert (_labels(c, h2.cut.source_a), _labels(c, h2.cut.source_b)) == (
            frozenset({"bar1", "bar2"}),
            frozenset({"2"}),
        )
        assert (_labels(c, h3.cut.source_a), _labels(c, h3.cut.source_b)) == (
            frozenset({"bar2", "bar3"}),
            frozenset({"3"}),
        )

        k1, k2 = (_by_labels(c, side) for side in fx.broad_query)
        members = {(_labels(c, i), _labels(c, j)) for i, j in broad_cut_search(c, k1, k2)}
        assert (frozenset({"1", "bar1"}), frozenset({"2"})) in members


def test_criterion_07_ratio_witnesses():
    label = "every pair sharing an ancestor gets a separating witness"
    with _criterion(7, label):
        chains = (
            generate(ModelSpec(Family.BIRTH_DEATH, {"n": 6})),
            generate(ModelSpec(Family.TWO_WAY_CYCLE, {"n": 5})),
            generate(ModelSpec(Family.LADDER)),
        )
        witnessed = 0
        for c in chains:
            n = c.graph.n
            for i, j in itertools.combinations(range(n), 2):
                if is_jaf(c, NodeSet.of([i], n), NodeSet.of([j], n)):
                    continue
                w = theorem3_witness(c, i, j)
                assert w is not None
                pi_a = stationary(c, w.q_a)
                pi_b = stationary(c, w.q_b)
                ratio_a = pi_a[i] / pi_a[j]
                ratio_b = pi_b[i] / pi_b[j]
                assert abs(ratio_a / ratio_b - 1.0) > 1e-3
                witnessed += 1
        assert witnessed == 10 + 10 + 16


def test_criterion_08_cut_balance_on_every_bipartition():
    label = "crossing-flow balance holds on all bipartitions of all fixtures"
    with _criterion(8, label):
        specs = (
            ModelSpec(Family.BIRTH_DEATH, {"n": 6}),
            ModelSpec(Family.ONE_WAY_CYCLE, {"n": 5}),
            ModelSpec(Family.ONE_WAY_CYCLE_PLUS_EDGE, {"n": 5, "k": 3}),
            ModelSpec(Family.TWO_WAY_CYCLE, {"n": 5}),
            ModelSpec(Family.TREE, {"n": 7}),
            ModelSpec(Family.QBD_TOY),
            ModelSpec(Family.LADDER),
            ModelSpec(Family.QUOTIENT_RING),
        )
        for spec in specs:
            c = generate(spec)
            assert c.graph.n <= 12
            rates = random_rates(c, 8)
            pi = stationary(c, rates)
            for mask in range(1, (1 << c.n) - 1):
                assert cut_equation_check(pi, rates, _bipartition_cut(c, mask)) <= 1e-10


def test_criterion_09_scan_scales_no_worse_than_cubically():
    label = "pair scan on one-way cycles grows at most cubically"
    with _criterion(9, label):
        sizes = (50, 100, 200, 400)
        chains = {n: generate(ModelSpec(Family.ONE_WAY_CYCLE, {"n": n})) for n in sizes}
        cut_graph(chains[50])  # warm-up so the first timing is not paying import costs
        timings: dict[int, float] = {}
        for n in sizes:
            best = math.inf
            for _ in range(2 if n <= 100 else 1):
                started = time.perf_counter()
                cut_graph(chains[n])
                best = min(best, time.perf_counter() - started)
            timings[n] = best
        print("  timings: " + ", ".join(f"n={n}: {timings[n]:.3f}s" for n in sizes))
        exponents = [
            math.log2(timings[b] / timings[a])
            for a, b in zip(sizes, sizes[1:])
        ]
        print("  doubling exponents: " + ", ".join(f"{p:.2f}" for p in exponents))
        assert max(exponents) <= 3.9
        overall = math.log2(timings[400] / timings[50]) / 3
        assert overall <= 3.5


def test_criterion_10_conjecture_harness_reports():
    label = "broad-search conjecture harness emits a report and never fails"
    with _criterion(10, label):
        pairs_with_members = 0
        conjecture1: list[dict] = []
        conjecture2: list[dict] = []
        for n, rows in corpus():
            if n < 2:
                continue
            c = corpus_chain(n, rows)
            edges_doc = sorted(
                [c.graph.labels[a], c.graph.labels[b]] for a, b in c.graph.edge_list
            )
            comps = cut_graph(c).components
            for p, q in itertools.combinations(range(len(comps)), 2):
                members = broad_cut_search(c, comps[p], comps[q])
                if not members:
                    continue
                pairs_with_members += 1
                finding_base = {
                    "edges": edges_doc,
                    "comp_i": sorted(_labels(c, comps[p])),
                    "comp_j": sorted(_labels(c, comps[q])),
                }
                if not is_jaf(c, comps[p], comps[q]):
                    conjecture1.append(finding_base)
                found = {(i.mask, j.mask) for i, j in members}
                for i, j in members:
                    if i == comps[p] and j == comps[q]:
                        continue
                    grown = [(i.mask | 1 << v, j.mask) for v in comps[p] if v not in i]
                    grown += [(i.mask, j.mask | 1 << v) for v in comps[q] if v not in j]
                    if not any(g in found for g in grown):
                        conjecture2.append(
                            {
                                **finding_base,
                                "member_i": sorted(_labels(c, i)),
                                "member_j": sorted(_labels(c, j)),
                            }
                        )
        report = {
            "graphs_scanned": len(corpus()),
            "component_pairs_with_members": pairs_with_members,
            "conjecture1_counterexamples": conjecture1,
            "conjecture2_counterexamples": conjecture2,
        }
        _REPORT_DIR.mkdir(exist_ok=True)
        out = _REPORT_DIR / "conjecture_scan.json"
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(
            f"  scanned {report['graphs_scanned']} graphs, "
            f"{pairs_with_members} component pairs with members, "
            f"{len(conjecture1)} + {len(conjecture2)} findings -> {out}"
        )
        assert out.exists()
