"""Shared builders and brute-force oracles for the test suite."""
from __future__ import annotations

import ast
import itertools
import random
import re
import shlex
from functools import cache
from pathlib import Path

from prodform.errors import InvalidArgumentError
from prodform.factors import FactorExpr, RateAtom, Relation, SumExpr, evaluate
from prodform.graph_core import DirectedGraph, NodeSet, connectivity_witness
from prodform.numeric import RateAssignment, StationaryMeasure
from prodform.product_form import Cut, FormalChain

_ROOT = Path(__file__).resolve().parents[1]


# ---- fixture graphs ----


def birth_death(n: int = 6) -> DirectedGraph:
    labels = [str(i) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    return DirectedGraph(labels, edges)


def one_way_cycle(n: int = 5) -> DirectedGraph:
    labels = [str(i + 1) for i in range(n)]
    return DirectedGraph(labels, [(i, (i + 1) % n) for i in range(n)])


def one_way_cycle_plus(n: int = 5, k: int = 3) -> DirectedGraph:
    labels = [str(i + 1) for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, k - 1)]
    return DirectedGraph(labels, edges)


def two_way_cycle(n: int = 5) -> DirectedGraph:
    labels = [str(i + 1) for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    return DirectedGraph(labels, edges)


LADDER_EDGES = [
    ("1", "0"), ("2", "1"), ("3", "2"),
    ("0", "4"), ("1", "5"), ("2", "6"),
    ("4", "5"), ("5", "6"),
    ("4", "1"), ("5", "2"), ("6", "3"),
]


def ladder7() -> DirectedGraph:
    """Seven-node toy: a descending chain 3-2-1-0 and a parallel chain 4-5-6 with cross links."""
    return DirectedGraph.from_labeled_edges([str(i) for i in range(7)], LADDER_EDGES)


RING9_EDGES = [
    ("1", "2"), ("1", "4"),
    ("2", "3"), ("2", "4"),
    ("3", "2"), ("3", "4"), ("3", "5"),
    ("4", "5"),
    ("5", "3"), ("5", "6"),
    ("6", "8"), ("6", "7"),
    ("7", "8"),
    ("8", "7"), ("8", "9"),
    ("9", "1"),
]


def ring9() -> DirectedGraph:
    """Nine-node ring of territories: five hub nodes whose basins tile the graph."""
    return DirectedGraph.from_labeled_edges([str(i + 1) for i in range(9)], RING9_EDGES)


# ---- random graphs ----


def random_strongly_connected(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> DirectedGraph:
    """A random strongly connected digraph: a random cycle plus random extra edges."""
    labels = [str(i) for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    g = DirectedGraph(labels, sorted(edges))
    assert connectivity_witness(g) is None
    return g


def glued_chain(rng: random.Random, parts: int, largest: int) -> DirectedGraph:
    """Random strongly connected chains of 2 to ``largest`` nodes, each glued at one node
    of those before it, with the node order shuffled: many blocks and articulation points."""
    n = 0
    edges: set[tuple[int, int]] = set()
    for _ in range(parts):
        part = random_strongly_connected(rng, rng.randint(2, largest), rng.uniform(0.0, 0.5))
        if n:
            ids = [rng.randrange(n), *range(n, n + part.n - 1)]
        else:
            ids = list(range(part.n))
        n = max(n, ids[-1] + 1)
        edges |= {(ids[u], ids[v]) for u, v in part.edge_list}
    order = list(range(n))
    rng.shuffle(order)
    g = DirectedGraph([str(i) for i in range(n)], sorted((order[u], order[v]) for u, v in edges))
    assert connectivity_witness(g) is None
    return g


# ---- exhaustive small-graph corpus ----

# Unlabeled strongly connected loop-free digraphs on 1..5 nodes; the corpus
# builder must reproduce these counts exactly or the enumeration is broken.
CORPUS_SIZES = (1, 1, 5, 83, 5048)


def _strongly_connected_rows(rows: tuple[int, ...], n: int) -> bool:
    full = (1 << n) - 1
    reach = 1
    while True:
        grown = reach
        rem = reach
        while rem:
            i = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            grown |= rows[i]
        if grown == reach:
            break
        reach = grown
    if reach != full:
        return False
    reach = 1
    while True:
        grown = reach
        for i in range(n):
            if rows[i] & reach:
                grown |= 1 << i
        if grown == reach:
            break
        reach = grown
    return reach == full


def _isomorphism_classes(n: int) -> list[tuple[int, ...]]:
    """One adjacency-row tuple per isomorphism class of SC loop-free digraphs.

    Iterates every candidate once; the first member of each orbit encountered
    becomes the representative, and its images under all nontrivial node
    permutations are pre-seeded into ``seen`` so the rest of the orbit is
    skipped without a connectivity check.
    """
    if n == 1:
        return [(0,)]
    perms = list(itertools.permutations(range(n)))[1:]
    colmaps = []
    for p in perms:
        table = [0] * (1 << n)
        for mask in range(1 << n):
            out = 0
            rem = mask
            while rem:
                j = (rem & -rem).bit_length() - 1
                rem &= rem - 1
                out |= 1 << p[j]
            table[mask] = out
        colmaps.append(table)
    # Strong connectivity needs positive out-degree everywhere (for n >= 2),
    # so empty rows are pruned before enumeration.
    options = [[m for m in range(1 << n) if m and not m >> i & 1] for i in range(n)]
    reps: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for rows in itertools.product(*options):
        if rows in seen or not _strongly_connected_rows(rows, n):
            continue
        reps.append(rows)
        for p, table in zip(perms, colmaps):
            image = [0] * n
            for i in range(n):
                image[p[i]] = table[rows[i]]
            seen.add(tuple(image))
    return reps


@cache
def corpus() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """One (n, adjacency rows) entry per isomorphism class, for n = 1..5."""
    graphs: list[tuple[int, tuple[int, ...]]] = []
    for n in range(1, 6):
        classes = _isomorphism_classes(n)
        assert len(classes) == CORPUS_SIZES[n - 1]
        graphs.extend((n, rows) for rows in classes)
    return tuple(graphs)


def corpus_chain(n: int, rows: tuple[int, ...]) -> FormalChain:
    edges = [(i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1]
    return FormalChain(DirectedGraph([str(v) for v in range(n)], edges))


# ---- brute-force oracles ----


def atom_edges(e: FactorExpr) -> frozenset[tuple[int, int]]:
    """The set of edges whose rates appear anywhere in the expression."""
    if isinstance(e, RateAtom):
        return frozenset([(e.src, e.dst)])
    if isinstance(e, SumExpr):
        return frozenset().union(*(atom_edges(t) for t in e.terms))
    return frozenset().union(*(atom_edges(f) for f, _ in e.factors))


def naive_ancestors(g: DirectedGraph, seed: set[int], avoid: set[int] = frozenset()) -> set[int]:
    """Set-based fixpoint: grow the seed by in-neighbors until nothing changes."""
    result = set(seed)
    changed = True
    while changed:
        changed = False
        for u, v in g.edge_list:
            if v in result and u not in result and u not in avoid:
                result.add(u)
                changed = True
    return result


def set_avoiding_subgraph(g: DirectedGraph, avoid: NodeSet) -> tuple[DirectedGraph, tuple[int, ...]]:
    """The subgraph induced on ``V - avoid``, with labels preserved, and its parent index.

    The parent index maps the subgraph's dense indices back to ``g``, so
    ``naive_ancestors`` on the subgraph is a reference for ``ancestors_avoiding``.
    Removing every node is rejected (graphs are nonempty).
    """
    if avoid.universe != g.n:
        raise InvalidArgumentError("avoided set belongs to a different graph")
    if avoid.mask == (1 << g.n) - 1:
        raise InvalidArgumentError("cannot remove every node")
    keep = [i for i in range(g.n) if i not in avoid]
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[u], remap[v]) for u, v in g.edge_list if u not in avoid and v not in avoid]
    return DirectedGraph([g.labels[i] for i in keep], edges), tuple(keep)


def nodeset(g: DirectedGraph, indices) -> NodeSet:
    return NodeSet.of(indices, g.n)


def bipartition_sources(g: DirectedGraph, side_a: set[int]) -> tuple[set[int], set[int]]:
    """Sources of a bipartition by direct edge scan (independent of the library's masks)."""
    side_b = set(range(g.n)) - side_a
    src_a = {u for u, v in g.edge_list if u in side_a and v in side_b}
    src_b = {u for u, v in g.edge_list if u in side_b and v in side_a}
    return src_a, src_b


def brute_sourced_cuts(g: DirectedGraph) -> dict[tuple[int, int], list[tuple[set[int], set[int]]]]:
    """Every bipartition whose sources are singletons, keyed by the (i, j) source pair.

    Enumerates all 2^n - 2 nonempty proper subsets, so only usable for small n.
    Keys are ordered (i, j) with i the source inside side_a; each value lists
    every (side_a, side_b) found, so uniqueness claims stay checkable.
    """
    found: dict[tuple[int, int], list[tuple[set[int], set[int]]]] = {}
    for mask in range(1, (1 << g.n) - 1):
        side_a = {v for v in range(g.n) if mask >> v & 1}
        src_a, src_b = bipartition_sources(g, side_a)
        if len(src_a) == 1 and len(src_b) == 1:
            i, j = next(iter(src_a)), next(iter(src_b))
            found.setdefault((i, j), []).append((side_a, set(range(g.n)) - side_a))
    return found


def reference_relation_residual(pi: StationaryMeasure, rates: RateAssignment, r: Relation) -> float:
    """Relative residual of one relation, each of its factors evaluated on its own."""
    lhs = pi[r.lhs_node] * evaluate(r.lhs_factor, rates.values)
    rhs = pi[r.rhs_node] * evaluate(r.rhs_factor, rates.values)
    return abs(lhs - rhs) / (lhs + rhs)


def reference_cut_residual(pi: StationaryMeasure, rates: RateAssignment, cut: Cut) -> float:
    """Crossing-flow balance of one cut by a per-edge loop in the rate map's order."""
    forward = 0.0
    backward = 0.0
    for (u, v), q in rates.values.items():
        if u in cut.side_a and v in cut.side_b:
            forward += pi[u] * q
        elif u in cut.side_b and v in cut.side_a:
            backward += pi[u] * q
    return abs(forward - backward) / (forward + backward)


# ---- repository texts ----


def traced_rows() -> list[str]:
    """``LAYER_TIMES`` and ``LAYER_COUNTS`` as written in the benchmark script, without importing it."""
    run = _ROOT / "perfbench" / "run.py"
    rows: dict[str, tuple[str, ...]] = {}
    for node in ast.parse(run.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("LAYER_TIMES", "LAYER_COUNTS"):
                rows[target.id] = ast.literal_eval(node.value)
    assert set(rows) == {"LAYER_TIMES", "LAYER_COUNTS"}, f"not found in {run.name}"
    return [row for name in ("LAYER_TIMES", "LAYER_COUNTS") for row in rows[name]]


def readme_library_example() -> str:
    """The python block under README's "Library example" heading."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def readme_shell_commands() -> list[list[str]]:
    """The arguments of each ``prodform`` line in the sh block under README's "Command-line usage"."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Command-line usage\n.*?```sh\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no sh block under '## Command-line usage'"
    lines = match.group(1).splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("prodform ")]
