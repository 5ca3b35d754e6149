"""Workload inputs, the calls made on them, and the checks on each call's verdict.

A workload is a list of chains, each written once as a graph document, and a
fixed list of command lines run against every document. The program sees only
the documents. Everything random is drawn from ``random.Random(seed)``, so the
same seed gives the same documents.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Rate seeds that ``verify --seeds 3`` draws; the solve sweep uses the same ones.
VERIFY_SEEDS = 3

# (family, generator parameters) per family workload, as ``models.generate`` takes them.
FAMILY_CHAINS = {
    "dense-cycle": [("oneway", {"n": 40}), ("oneway", {"n": 60})],
    "sparse-long": [("bd", {"n": 100}), ("qbd", {"blocks": 16, "blocksize": 5}), ("tree", {"n": 63})],
    "batch-deep": [
        ("batchv1", {"multiple": 3, "truncation": 40}),
        ("batchv2", {"truncation": 40}),
        ("twoway", {"n": 60}),
    ],
}

# The solve sweep also solves these larger chains, at which the solver's false
# failures show on every workload seed; the timed chains above stay small so
# that a pass is short.
SWEEP_CHAINS = {
    "sparse-long": [("bd", {"n": 160}), ("qbd", {"blocks": 24, "blocksize": 5}), ("tree", {"n": 127})],
    "batch-deep": [
        ("batchv1", {"multiple": 3, "truncation": 60}),
        ("batchv2", {"truncation": 60}),
        ("twoway", {"n": 120}),
    ],
}

# Commands run on every chain of a workload, in order, without the input path.
COMMANDS = {
    "dense-cycle": [
        ("analyze", ["analyze", "--max-level", "2"]),
        ("verify", ["verify", "--seeds", str(VERIFY_SEEDS)]),
    ],
    "sparse-long": [("analyze", ["analyze", "--max-level", "2"])],
    "batch-deep": [("analyze", ["analyze", "--max-level", "6"])],
    "small-corpus": [
        ("analyze", ["analyze", "--max-level", "3"]),
        ("verify", ["verify", "--seeds", str(VERIFY_SEEDS)]),
        ("fault", ["verify", "--seeds", "1", "--fault"]),
        ("oracle", ["oracle", "--mode", "cuts"]),
    ],
}

WORKLOADS = tuple(COMMANDS)

CORPUS_SIZE = 84
CORPUS_NODES = (6, 12)
CORPUS_DENSITY = (0.15, 0.4)


@dataclass
class Chain:
    """One generated input: its document text and what its analysis must report."""

    name: str
    document: str
    # Sorted label pairs the first-level cut graph must have, when the family pins them.
    expected_edges: list[tuple[str, str]] | None = None
    # Filled during the first pass: report text per command, to check later passes against.
    reports: dict[str, str] = field(default_factory=dict)
    # First-level edges and relation count, taken from the analyze report.
    edges: list[tuple[str, str]] | None = None
    relations: int = 0


def _document(name: str, labels: list[str], edges: list[tuple[str, str]], rng: random.Random) -> str:
    """Graph document with node and edge order shuffled by the workload seed."""
    nodes = list(labels)
    rng.shuffle(nodes)
    order = list(edges)
    rng.shuffle(order)
    return json.dumps(
        {
            "name": name,
            "kind": "ctmc",
            "nodes": nodes,
            "edges": [{"from": a, "to": b} for a, b in order],
        }
    )


def _family_chains(specs: list[tuple[str, dict]], rng: random.Random) -> list[Chain]:
    from prodform.models import Family, ModelSpec, expected_fixtures, generate

    chains = []
    for family, params in specs:
        spec = ModelSpec(Family(family), params)
        g = generate(spec).graph
        edges = [(g.labels[a], g.labels[b]) for a, b in g.edge_list]
        name = family + "-" + "-".join(str(v) for v in params.values())
        fixture = expected_fixtures(spec)
        expected = None
        if fixture is not None and fixture.c1_edges is not None:
            expected = sorted(tuple(sorted(pair)) for pair in fixture.c1_edges)
        chains.append(Chain(name, _document(name, list(g.labels), edges, rng), expected))
    return chains


def _strongly_connected(n: int, out: list[int]) -> bool:
    full = (1 << n) - 1
    inward = [0] * n
    for u in range(n):
        m = out[u]
        while m:
            low = m & -m
            inward[low.bit_length() - 1] |= 1 << u
            m ^= low
    for adj in (out, inward):
        seen = frontier = 1
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~seen
            seen |= frontier
        if seen != full:
            return False
    return True


def _corpus_chains(rng: random.Random) -> list[Chain]:
    """Random strongly connected chains, each edge kept with the chain's density.

    Sizes and densities are spread evenly over their ranges, the same for every
    seed; the seed draws the edges. The work in a pass then varies little from
    seed to seed.
    """
    low_n, high_n = CORPUS_NODES
    sizes = high_n - low_n + 1
    rows = -(-CORPUS_SIZE // sizes)
    chains = []
    for k in range(CORPUS_SIZE):
        n = low_n + k % sizes
        density = CORPUS_DENSITY[0] + (CORPUS_DENSITY[1] - CORPUS_DENSITY[0]) * (k // sizes) / (rows - 1)
        while True:
            out = [0] * n
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < density:
                        out[u] |= 1 << v
            if _strongly_connected(n, out):
                break
        labels = [f"s{v}" for v in range(n)]
        edges = [(labels[u], labels[v]) for u in range(n) for v in range(n) if out[u] >> v & 1]
        name = f"random-{k}"
        chains.append(Chain(name, _document(name, labels, edges, rng)))
    return chains


def make_chains(workload: str, seed: int) -> list[Chain]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "small-corpus":
        return _corpus_chains(rng)
    return _family_chains(FAMILY_CHAINS[workload], rng)


def sweep_chains(workload: str, seed: int) -> list[Chain]:
    """The chains the solve sweep solves: the workload's own and its larger ones."""
    rng = random.Random(f"{workload}:{seed}:sweep")
    return make_chains(workload, seed) + _family_chains(SWEEP_CHAINS.get(workload, []), rng)


# ---- verdict checks ----


@dataclass
class Outcome:
    """How one call ended: ``failed`` is an error exit or a missing report."""

    failed: bool = False
    wrong: str | None = None


def check(chain: Chain, kind: str, rc: int, text: str | None) -> Outcome:
    """Judge one call from its exit code and report text (None when no report was written)."""
    if text is None or rc not in (0, 1):
        return Outcome(failed=True)
    report = json.loads(text)
    first = chain.reports.setdefault(kind, text)
    if first != text:
        return Outcome(wrong=f"{kind} report differs from the first pass")
    if kind == "analyze":
        if rc != 0:
            return Outcome(failed=True)
        chain.edges = sorted(tuple(pair) for pair in report["first_level"]["edges"])
        if chain.expected_edges is not None and chain.edges != chain.expected_edges:
            return Outcome(wrong="first-level edges differ from the family's pinned edges")
        # verify builds its relations from levels 1 and 2 only.
        chain.relations = len(report["first_level"]["relations"]) + sum(
            len(level.get("relations", [])) for level in report["levels"] if level["level"] == 2
        )
        return Outcome()
    if kind == "verify":
        if report["pass"] is not True or report["fault"] is not None or rc != 0:
            return Outcome(wrong=f"verify did not pass (max residual {report['max_residual']})")
        return Outcome()
    if kind == "fault":
        relations = report["relations"]
        named = f"{relations[0]['lhs']}~{relations[0]['rhs']}" if relations else None
        if rc != 1 or report["pass"] is not False or report["fault"] != named:
            return Outcome(wrong=f"fault control not flagged (exit {rc}, fault {report['fault']!r})")
        return Outcome()
    if kind == "oracle":
        pairs = sorted(tuple(cut["pair"]) for cut in report["cuts"])
        if rc != 0 or not report["match"]:
            return Outcome(wrong="oracle reports a mismatch with the scan")
        if pairs != chain.edges:
            return Outcome(wrong="analyze edges differ from the oracle's brute-force pairs")
        return Outcome()
    raise ValueError(f"unknown command kind {kind!r}")


def wants_fault(chain: Chain) -> bool:
    """A fault control needs at least one relation, which the analyze report lists."""
    return chain.relations > 0
