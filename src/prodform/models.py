"""Parametric generators for the example chains exercised by the test suites.

Each family builds a strongly connected :class:`FormalChain`; where the
structure pins down the analysis results (first-level pairs, relation tables,
hyperedge sources, closed-form weights), :func:`expected_fixtures` returns
them as literal data so the analysis code can be checked against an
independent transcription rather than against itself.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import InvalidArgumentError
from .factors import FactorExpr, RateAtom, Relation, SumExpr, make_relation, product_of
from .graph_core import DirectedGraph
from .product_form import FormalChain, s_factors

# ---- model specs ----


class Family(Enum):
    """Chain families addressable by name from the command line."""

    BIRTH_DEATH = "bd"
    ONE_WAY_CYCLE = "oneway"
    ONE_WAY_CYCLE_PLUS_EDGE = "onewayplus"
    TWO_WAY_CYCLE = "twoway"
    TREE = "tree"
    QBD_TOY = "qbd"
    LADDER = "ladder"
    MSJ_SATURATED = "msj"
    BATCH_V1 = "batchv1"
    BATCH_V2 = "batchv2"
    QUOTIENT_RING = "ring"


@dataclass(frozen=True)
class ModelSpec:
    """A family plus its integer parameters; explicit ``params`` win over defaults."""

    family: Family
    params: Mapping[str, int] = field(default_factory=dict)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidArgumentError(message)


# ---- generators ----

_LADDER_NODES = [str(i) for i in range(7)]
_LADDER_EDGES = [
    ("1", "0"),
    ("2", "1"),
    ("3", "2"),
    ("0", "4"),
    ("1", "5"),
    ("2", "6"),
    ("4", "5"),
    ("5", "6"),
    ("4", "1"),
    ("5", "2"),
    ("6", "3"),
]

_RING_NODES = [str(i + 1) for i in range(9)]
_RING_EDGES = [
    ("1", "2"),
    ("1", "4"),
    ("2", "3"),
    ("2", "4"),
    ("3", "2"),
    ("3", "4"),
    ("3", "5"),
    ("4", "5"),
    ("5", "3"),
    ("5", "6"),
    ("6", "8"),
    ("6", "7"),
    ("7", "8"),
    ("8", "7"),
    ("8", "9"),
    ("9", "1"),
]


def _birth_death(n: int) -> DirectedGraph:
    labels = [str(i) for i in range(n)]
    edges = [(str(i), str(i + 1)) for i in range(n - 1)]
    edges += [(str(i + 1), str(i)) for i in range(n - 1)]
    return DirectedGraph.from_labeled_edges(labels, edges)


def _one_way_cycle(n: int, extra: tuple[str, str] | None = None) -> DirectedGraph:
    labels = [str(i + 1) for i in range(n)]
    edges = [(str(i), str(i % n + 1)) for i in range(1, n + 1)]
    if extra is not None:
        edges.append(extra)
    return DirectedGraph.from_labeled_edges(labels, edges)


def _two_way_cycle(n: int) -> DirectedGraph:
    labels = [str(i + 1) for i in range(n)]
    edges = []
    for i in range(1, n + 1):
        j = i % n + 1
        edges.append((str(i), str(j)))
        edges.append((str(j), str(i)))
    return DirectedGraph.from_labeled_edges(labels, edges)


def _tree(n: int) -> DirectedGraph:
    labels = [str(i) for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = (i - 1) // 2
        edges.append((str(i), str(parent)))
        edges.append((str(parent), str(i)))
    return DirectedGraph.from_labeled_edges(labels, edges)


def _qbd_toy(blocks: int, blocksize: int) -> DirectedGraph:
    labels = [f"{j}.{p}" for j in range(blocks) for p in range(blocksize)]
    edges = []
    for j in range(blocks):
        for p in range(blocksize):
            edges.append((f"{j}.{p}", f"{j}.{(p + 1) % blocksize}"))
    for j in range(blocks - 1):
        edges.append((f"{j}.{blocksize - 1}", f"{j + 1}.0"))
        edges.append((f"{j + 1}.0", f"{j}.{blocksize - 1}"))
    return DirectedGraph.from_labeled_edges(labels, edges)


def _batch(truncation: int, bar_edges: list[tuple[str, str]]) -> DirectedGraph:
    """The edges both batch chains share, plus each one's own ``bar_edges``."""
    nodes = [str(j) for j in range(truncation + 1)] + [f"bar{j}" for j in range(1, truncation + 1)]
    edges = [(str(j), str(j - 1)) for j in range(1, truncation + 1)]
    edges += [(str(i), f"bar{i + 1}") for i in range(truncation)]
    edges += [(f"bar{j}", str(j)) for j in range(1, truncation + 1)]
    return DirectedGraph.from_labeled_edges(nodes, edges + bar_edges)


def _batch_v1(multiple: int, truncation: int) -> DirectedGraph:
    return _batch(
        truncation,
        [(f"bar{j}", f"bar{j + 1}") for j in range(1, truncation) if j % multiple != 0],
    )


def _batch_v2(truncation: int) -> DirectedGraph:
    return _batch(truncation, [(f"bar{j}", str(j + 1)) for j in range(1, truncation)])


def _msj_saturated(c1: int, c2: int, servers: int) -> DirectedGraph:
    """Embedded arrivals-and-completions chain of the saturated two-class system.

    A state is either an arrival instant (a fresh job's class is about to be
    revealed; possible only while at least ``c1`` servers are free and no
    class-2 job queues) or a completion instant. ``n1``/``n2`` count running
    jobs per class; at most one revealed class-2 job can be waiting for
    servers, and while it waits no further job is revealed.
    """

    def free(n1: int, n2: int) -> int:
        return servers - c1 * n1 - c2 * n2

    def enter(n1: int, n2: int) -> tuple[str, int, int, int]:
        kind = "a" if free(n1, n2) >= c1 else "c"
        return (kind, n1, n2, 0)

    def post_completion(n1: int, n2: int, queued: int) -> tuple[str, int, int, int]:
        if queued:
            if free(n1, n2) >= c2:
                return enter(n1, n2 + 1)
            return ("c", n1, n2, 1)
        return enter(n1, n2)

    def targets(state: tuple[str, int, int, int]) -> list[tuple[str, int, int, int]]:
        kind, n1, n2, queued = state
        if kind == "a":
            out = [enter(n1 + 1, n2)]
            if free(n1, n2) >= c2:
                out.append(enter(n1, n2 + 1))
            else:
                out.append(("c", n1, n2, 1))
            return out
        out = []
        if n1 > 0:
            out.append(post_completion(n1 - 1, n2, queued))
        if n2 > 0:
            out.append(post_completion(n1, n2 - 1, queued))
        return out

    def label(state: tuple[str, int, int, int]) -> str:
        kind, n1, _, _ = state
        return f"bar{n1}" if kind == "a" else str(n1)

    start = enter(0, servers // c2)
    order: list[tuple[str, int, int, int]] = [start]
    seen = {start}
    queue = deque([start])
    edges: list[tuple[str, str]] = []
    while queue:
        state = queue.popleft()
        for nxt in targets(state):
            edges.append((label(state), label(nxt)))
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    labels = [label(s) for s in order]
    _require(
        len(set(labels)) == len(labels),
        "parameters do not yield uniquely labeled states",
    )
    return DirectedGraph.from_labeled_edges(labels, edges)


# ---- the family table ----

_Check = tuple[Callable[[dict[str, int]], bool], str]


def _least(key: str, bound: int) -> _Check:
    return (lambda p: p[key] >= bound, f"{key} must be at least {bound}")


# Family -> (default parameters, checks in the order they run, graph builder).
_FAMILIES: dict[Family, tuple[dict[str, int], tuple[_Check, ...], Callable]] = {
    Family.BIRTH_DEATH: ({"n": 6}, (_least("n", 2),), _birth_death),
    Family.ONE_WAY_CYCLE: ({"n": 5}, (_least("n", 2),), _one_way_cycle),
    Family.ONE_WAY_CYCLE_PLUS_EDGE: (
        {"n": 5, "k": 3},
        (_least("n", 3), (lambda p: 3 <= p["k"] <= p["n"], "k must satisfy 3 <= k <= n")),
        lambda n, k: _one_way_cycle(n, extra=("1", str(k))),
    ),
    Family.TWO_WAY_CYCLE: ({"n": 5}, (_least("n", 2),), _two_way_cycle),
    Family.TREE: ({"n": 7}, (_least("n", 2),), _tree),
    Family.QBD_TOY: (
        {"blocks": 3, "blocksize": 3}, (_least("blocks", 2), _least("blocksize", 2)), _qbd_toy
    ),
    Family.LADDER: (
        {}, (), lambda: DirectedGraph.from_labeled_edges(_LADDER_NODES, _LADDER_EDGES)
    ),
    Family.MSJ_SATURATED: (
        {"c1": 3, "c2": 10, "servers": 30},
        (
            _least("c1", 1),
            _least("c2", 1),
            (lambda p: p["servers"] >= p["c1"], "servers must cover one class-1 job"),
            (lambda p: p["servers"] >= p["c2"], "servers must cover one class-2 job"),
        ),
        _msj_saturated,
    ),
    Family.BATCH_V1: (
        {"multiple": 3, "truncation": 8},
        (_least("multiple", 2), _least("truncation", 1)),
        _batch_v1,
    ),
    Family.BATCH_V2: ({"truncation": 6}, (_least("truncation", 1),), _batch_v2),
    Family.QUOTIENT_RING: ({}, (), lambda: DirectedGraph.from_labeled_edges(_RING_NODES, _RING_EDGES)),
}


def parameter_names() -> list[str]:
    """Every family parameter name, each once, in the order the family table first uses it."""
    return list(dict.fromkeys(key for defaults, _, _ in _FAMILIES.values() for key in defaults))


def _resolve(spec: ModelSpec) -> dict[str, int]:
    defaults, checks, _ = _FAMILIES[spec.family]
    unknown = sorted(set(spec.params) - set(defaults))
    _require(not unknown, f"unknown parameters for {spec.family.value}: {', '.join(unknown)}")
    params = {**defaults, **spec.params}
    for key, value in params.items():
        _require(
            isinstance(value, int) and value >= 0,
            f"parameter {key} must be a nonnegative integer",
        )
    for holds, message in checks:
        _require(holds(params), message)
    return params


def generate(spec: ModelSpec) -> FormalChain:
    """Build the family's chain; raises on parameters that violate a constraint."""
    _, _, build = _FAMILIES[spec.family]
    return FormalChain(build(**_resolve(spec)))


# ---- expected fixtures ----


@dataclass(frozen=True)
class FixtureBundle:
    """Literal expected-analysis data for a family, keyed by node labels.

    Only the fields the structure actually pins are populated; everything not
    fixed stays at its empty default. ``closed_form`` maps a label to the
    factor whose value times the weight of the reference node (label ``"0"``,
    which has no entry of its own) gives that node's stationary weight.
    """

    c1_edges: frozenset[frozenset[str]] | None = None
    c1_components: tuple[frozenset[str], ...] | None = None
    relations: tuple[Relation, ...] = ()
    cut_sides: tuple[tuple[frozenset[str], frozenset[str]], ...] = ()
    level2_sources: tuple[tuple[frozenset[str], frozenset[str]], ...] = ()
    level3_sources: tuple[tuple[frozenset[str], frozenset[str]], ...] = ()
    psps_relation: Relation | None = None
    closed_form: tuple[tuple[str, FactorExpr], ...] | None = None
    broad_query: tuple[frozenset[str], frozenset[str]] | None = None
    broad_members: tuple[tuple[frozenset[str], frozenset[str]], ...] = ()
    clique_members: frozenset[str] | None = None
    clique_territories: tuple[tuple[str, frozenset[str]], ...] = ()
    clique_cycle: tuple[str, ...] = ()
    clique_cut: tuple[frozenset[str], frozenset[str]] | None = None
    non_jaf_pairs: frozenset[frozenset[str]] | None = None


def _pairs(*items: tuple[str, str]) -> frozenset[frozenset[str]]:
    return frozenset(frozenset(pair) for pair in items)


def _sum(g: DirectedGraph, src: str, dsts: list[str]) -> SumExpr:
    s = g.index_of[src]
    atoms = sorted((RateAtom(s, g.index_of[d]) for d in dsts), key=lambda a: a.dst)
    return SumExpr(tuple(atoms))


def _row(g: DirectedGraph, a: str, a_dsts: list[str], b: str, b_dsts: list[str]) -> Relation:
    return make_relation(
        g.index_of[a], g.index_of[b], _sum(g, a, a_dsts), _sum(g, b, b_dsts)
    )


def _ladder_fixture(g: DirectedGraph) -> FixtureBundle:
    all_nodes = set(_LADDER_NODES)

    def cut(side_a: set[str]) -> tuple[frozenset[str], frozenset[str]]:
        return frozenset(side_a), frozenset(all_nodes - side_a)

    return FixtureBundle(
        c1_edges=_pairs(("0", "1"), ("0", "4"), ("1", "4"), ("2", "5"), ("3", "6")),
        c1_components=(
            frozenset({"0", "1", "4"}),
            frozenset({"2", "5"}),
            frozenset({"3", "6"}),
        ),
        cut_sides=(
            cut({"1", "2", "3", "4", "5", "6"}),
            cut({"0", "4"}),
            cut({"2", "3", "5", "6"}),
            cut({"0", "1", "4", "5"}),
            cut({"3", "6"}),
            cut({"0", "1", "2", "4", "5", "6"}),
        ),
        level2_sources=(
            (frozenset({"1", "4"}), frozenset({"2"})),
            (frozenset({"2", "5"}), frozenset({"3"})),
        ),
    )


def _msj_spine(labels: list[str]) -> list[str] | None:
    numbers = sorted((int(v) for v in labels if not v.startswith("bar")))
    bars = sorted((int(v[3:]) for v in labels if v.startswith("bar")))
    if numbers != list(range(len(numbers))) or bars != list(range(len(numbers) - 1)):
        return None
    spine = []
    for j in range(len(numbers) - 1):
        spine += [str(j), f"bar{j}"]
    spine.append(str(len(numbers) - 1))
    return spine


def _composed_closed_form(
    c: FormalChain, spine: list[str]
) -> tuple[tuple[str, FactorExpr], ...] | None:
    g = c.graph
    acc: list[tuple[FactorExpr, int]] = []
    out = []
    for a, b in zip(spine, spine[1:]):
        pair = s_factors(c, g.index_of[a], g.index_of[b])
        if pair is None:
            return None
        fwd, bwd = pair
        acc += [(fwd, 1), (bwd, -1)]
        out.append((b, product_of(list(acc))))
    return tuple(out)


def _msj_fixture(c: FormalChain, default: bool) -> FixtureBundle:
    g = c.graph
    if not default:
        spine = _msj_spine(list(g.labels))
        return FixtureBundle(closed_form=None if spine is None else _composed_closed_form(c, spine))
    # Boundary indices where a stage lacks its downward completion edge
    # (the running class then changes), its forward continuation edge
    # (the next admission must wait for a completion), or its own
    # admission edge (completion states past the last admission stage).
    no_completion = {0, 3, 6, 10}
    no_continuation = {2, 5, 9}
    no_admission = {7, 8, 9}
    acc: list[tuple[FactorExpr, int]] = []
    rows: list[tuple[str, FactorExpr]] = []
    for j in range(10):
        down = [] if j in no_completion else [str(j - 1)]
        admit = [] if j in no_admission else [f"bar{j}"]
        fwd_j = _sum(g, str(j), down + admit)
        cont = [f"bar{j + 1}"] if j not in no_continuation else []
        bwd_j = _sum(g, f"bar{j}", [str(j)] + cont)
        acc += [(fwd_j, 1), (bwd_j, -1)]
        rows.append((f"bar{j}", product_of(list(acc))))
        if j not in no_continuation:
            fwd_bar = _sum(g, f"bar{j}", [f"bar{j + 1}"])
            bwd_bar = _sum(g, str(j + 1), [str(j)])
        else:
            fwd_bar = _sum(g, f"bar{j}", [str(j + 1)])
            bwd_bar = _sum(g, str(j + 1), [f"bar{j}"])
        acc += [(fwd_bar, 1), (bwd_bar, -1)]
        rows.append((str(j + 1), product_of(list(acc))))
    # The two rungs {i, bar i} and {bar i, i+1} for every stage, plus the
    # three arrival-arrival pairs in the stretch where completion states
    # have a single outgoing edge. (Pairs such as {7, 8} are not free:
    # bar7 reaches 7 directly and 8 through bar8.)
    ladder = [(str(i), f"bar{i}") for i in range(10)]
    ladder += [(f"bar{i}", str(i + 1)) for i in range(10)]
    extra = [("bar6", "bar7"), ("bar7", "bar8"), ("bar8", "bar9")]
    return FixtureBundle(
        c1_edges=_pairs(*(ladder + extra)),
        c1_components=(frozenset(g.labels),),
        relations=(
            _row(g, "bar0", ["0", "bar1"], "0", ["bar0"]),
            _row(g, "1", ["0"], "bar0", ["bar1"]),
            _row(g, "bar1", ["1", "bar2"], "1", ["0", "bar1"]),
            _row(g, "2", ["1"], "bar1", ["bar2"]),
            _row(g, "2", ["1", "bar2"], "bar2", ["2"]),
            _row(g, "3", ["bar2"], "bar2", ["3"]),
            _row(g, "bar3", ["3", "bar4"], "3", ["bar3"]),
            _row(g, "4", ["3"], "bar3", ["bar4"]),
        ),
        closed_form=tuple(rows),
    )


def _batch_v1_fixture(g: DirectedGraph) -> FixtureBundle:
    ladder = [(str(i), f"bar{i}") for i in range(1, 9)]
    extra = [("0", "1"), ("0", "bar1"), ("3", "4"), ("3", "bar4"), ("6", "7"), ("6", "bar7")]
    relations = (
        _row(g, "0", ["bar1"], "1", ["0"]),
        _row(g, "0", ["bar1"], "bar1", ["1", "bar2"]),
        _row(g, "1", ["0"], "bar1", ["1", "bar2"]),
        _row(g, "2", ["1"], "bar2", ["2", "bar3"]),
        _row(g, "3", ["2"], "bar3", ["3"]),
        _row(g, "3", ["bar4"], "4", ["3"]),
        _row(g, "4", ["3"], "bar4", ["4", "bar5"]),
        _row(g, "5", ["4"], "bar5", ["5", "bar6"]),
        _row(g, "6", ["5"], "bar6", ["6"]),
        _row(g, "6", ["bar7"], "7", ["6"]),
        _row(g, "7", ["6"], "bar7", ["7", "bar8"]),
    )

    # The two component-pair relations whose chain is the displayed
    # four-alternation identity between states 1 and 3.
    f_1_bar1 = _sum(g, "1", ["0"])
    f_bar1_1 = _sum(g, "bar1", ["1", "bar2"])
    lhs_1 = SumExpr(
        (
            RateAtom(g.index_of["1"], g.index_of["bar2"]),
            product_of([(f_1_bar1, 1), (f_bar1_1, -1), (_sum(g, "bar1", ["bar2"]), 1)]),
        )
    )
    rhs_1 = _sum(g, "2", ["1"])
    f_2_bar2 = _sum(g, "2", ["1"])
    f_bar2_2 = _sum(g, "bar2", ["2", "bar3"])
    lhs_2 = SumExpr(
        (
            RateAtom(g.index_of["2"], g.index_of["bar3"]),
            product_of([(f_2_bar2, 1), (f_bar2_2, -1), (_sum(g, "bar2", ["bar3"]), 1)]),
        )
    )
    rhs_2 = _sum(g, "3", ["2"])
    psps = make_relation(
        g.index_of["1"],
        g.index_of["3"],
        product_of([(lhs_1, 1), (lhs_2, 1)]),
        product_of([(rhs_2, 1), (rhs_1, 1)]),
    )
    return FixtureBundle(
        c1_edges=_pairs(*(ladder + extra)),
        c1_components=(
            frozenset({"0", "1", "bar1"}),
            frozenset({"2", "bar2"}),
            frozenset({"3", "bar3", "4", "bar4"}),
            frozenset({"5", "bar5"}),
            frozenset({"6", "bar6", "7", "bar7"}),
            frozenset({"8", "bar8"}),
        ),
        relations=relations,
        level2_sources=(
            (frozenset({"1", "bar1"}), frozenset({"2"})),
            (frozenset({"2", "bar2"}), frozenset({"3"})),
            (frozenset({"4", "bar4"}), frozenset({"5"})),
            (frozenset({"5", "bar5"}), frozenset({"6"})),
        ),
        psps_relation=psps,
    )


def _batch_v2_fixture(g: DirectedGraph) -> FixtureBundle:
    left = frozenset({"0", "1", "bar1", "bar2"})
    rest = frozenset(set(g.labels) - left)
    return FixtureBundle(
        c1_edges=_pairs(
            ("0", "1"),
            ("0", "bar1"),
            ("1", "bar1"),
            ("1", "bar2"),
            ("2", "bar3"),
            ("3", "bar4"),
            ("4", "bar5"),
            ("5", "bar6"),
        ),
        c1_components=(
            left,
            frozenset({"2", "bar3"}),
            frozenset({"3", "bar4"}),
            frozenset({"4", "bar5"}),
            frozenset({"5", "bar6"}),
            frozenset({"6"}),
        ),
        cut_sides=((left, rest),),
        level2_sources=((frozenset({"bar1", "bar2"}), frozenset({"2"})),),
        level3_sources=((frozenset({"bar2", "bar3"}), frozenset({"3"})),),
        broad_query=(left, frozenset({"2", "bar3"})),
        broad_members=(
            (frozenset({"bar1", "bar2"}), frozenset({"2"})),
            (frozenset({"1", "bar1"}), frozenset({"2"})),
        ),
    )


def _ring_fixture() -> FixtureBundle:
    return FixtureBundle(
        clique_members=frozenset({"1", "5", "6", "8", "9"}),
        clique_territories=(
            ("1", frozenset({"1"})),
            ("5", frozenset({"2", "3", "4", "5"})),
            ("6", frozenset({"6"})),
            ("8", frozenset({"7", "8"})),
            ("9", frozenset({"9"})),
        ),
        clique_cycle=("1", "5", "6", "8", "9"),
        clique_cut=(
            frozenset({"1", "2", "3", "4", "5", "9"}),
            frozenset({"6", "7", "8"}),
        ),
    )


def expected_fixtures(spec: ModelSpec) -> FixtureBundle | None:
    """Literal expectations for the family, or None when nothing is pinned."""
    p = _resolve(spec)
    f = spec.family
    default = p == _FAMILIES[f][0]
    if f is Family.BIRTH_DEATH:
        n = p["n"]
        g = _birth_death(n)
        return FixtureBundle(
            c1_edges=_pairs(*((str(i), str(i + 1)) for i in range(n - 1))),
            relations=tuple(
                _row(g, str(i), [str(i + 1)], str(i + 1), [str(i)]) for i in range(n - 1)
            ),
        )
    if f is Family.ONE_WAY_CYCLE:
        labels = [str(i + 1) for i in range(p["n"])]
        return FixtureBundle(
            c1_edges=frozenset(
                frozenset({a, b}) for a in labels for b in labels if a < b
            ),
            c1_components=(frozenset(labels),),
        )
    if f is Family.ONE_WAY_CYCLE_PLUS_EDGE:
        if not default:
            return None
        labels = [str(i + 1) for i in range(p["n"])]
        lost = _pairs(("2", "3"), ("2", "4"), ("2", "5"))
        complete = frozenset(frozenset({a, b}) for a in labels for b in labels if a < b)
        return FixtureBundle(c1_edges=complete - lost, non_jaf_pairs=lost)
    if f is Family.TWO_WAY_CYCLE:
        return FixtureBundle(c1_edges=frozenset())
    if f is Family.LADDER:
        return _ladder_fixture(generate(spec).graph)
    if f is Family.MSJ_SATURATED:
        return _msj_fixture(generate(spec), default)
    if f is Family.BATCH_V1 and default:
        return _batch_v1_fixture(generate(spec).graph)
    if f is Family.BATCH_V2 and default:
        return _batch_v2_fixture(generate(spec).graph)
    if f is Family.QUOTIENT_RING:
        return _ring_fixture()
    return None
