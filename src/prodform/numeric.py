"""Stationary solves, relation/cut verification, rate generation, and oracles.

Everything here instantiates the symbolic rates with concrete positive numbers:
solving for the stationary measure, measuring how well a relation or cut
equation holds (``check`` folds that over many assignments for ``verify``),
enumerating sourced cuts by brute force, and building the two-assignment
witness that separates the stationary ratios of a non-free node pair.
"""
from __future__ import annotations

import heapq
import math
import random
import reprlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import InvalidArgumentError, NumericError, check_budget
from .factors import Relation, evaluate
from .graph_core import NodeSet, _descend, _layers
from .higher_level import Analysis
from .product_form import ChainKind, Cut, FormalChain, _sources

_BALANCE_TOLERANCE = 1e-10
_ROW_SUM_TOLERANCE = 1e-12

# ---- rate assignments ----


@dataclass(frozen=True, eq=False)
class RateAssignment:
    """Positive values for every edge; DTMC rows are probability distributions."""

    values: Mapping[tuple[int, int], float]


def rate_assignment(
    c: FormalChain,
    values: Mapping[tuple[int, int], float],
    kind: ChainKind | None = None,
) -> RateAssignment:
    """Validate a per-edge value map against the chain and wrap it."""
    kind = c.kind if kind is None else kind
    g = c.graph
    expected = set(g.edge_list)
    given = set(values)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        raise InvalidArgumentError(
            f"rate map does not match the edge set (missing {missing[:3]}, extra {extra[:3]})"
        )
    for e, v in values.items():
        if not (v > 0) or not math.isfinite(v):
            raise InvalidArgumentError(f"rate for edge {e} must be positive and finite, got {v!r}")
    if kind is ChainKind.DTMC:
        for u in range(g.n):
            total = sum(values[(u, v)] for v in g.out_adj[u])
            if abs(total - 1.0) > _ROW_SUM_TOLERANCE:
                raise InvalidArgumentError(
                    f"outgoing probabilities of node {reprlib.repr(g.labels[u])} sum to {total!r}, not 1"
                )
    return RateAssignment(dict(values))


def random_rates(c: FormalChain, seed: int) -> RateAssignment:
    """Deterministic per-seed assignment, log-uniform in [0.1, 10]; DTMC rows normalized."""
    g = c.graph
    rng = random.Random(seed)
    values = {e: 10.0 ** rng.uniform(-1.0, 1.0) for e in g.edge_list}
    if c.kind is ChainKind.DTMC:
        for u in range(g.n):
            total = sum(values[(u, v)] for v in g.out_adj[u])
            for v in g.out_adj[u]:
                values[(u, v)] /= total
    return rate_assignment(c, values)


# ---- stationary measure ----


@dataclass(frozen=True)
class StationaryMeasure:
    """Strictly positive per-node stationary weights."""

    pi: tuple[float, ...]

    def __getitem__(self, v: int) -> float:
        return self.pi[v]

    def __len__(self) -> int:
        return len(self.pi)


def stationary(c: FormalChain, rates: RateAssignment) -> StationaryMeasure:
    """Grassmann-Taksar-Heyman state reduction, then normalization.

    States are censored from the last index down: each remaining state's rate
    into the censored state k is spread over k's out-rates pro rata, self-loops
    dropped, so nothing is subtracted; the back pass sets pi[k] to its inflow
    from the states below k over k's censored row sum. Exact rationals give an
    exact measure. Each node's in- and outflow must agree to 1e-10 (relative).
    """
    g = c.graph
    n = g.n
    check_budget("the stationary solve", n)
    out: list[dict[int, float]] = [{} for _ in range(n)]
    into: list[set[int]] = [set() for _ in range(n)]
    for (u, v), q in rates.values.items():
        if u != v:
            out[u][v] = q
            into[v].add(u)
    censored = []
    for k in range(n - 1, 0, -1):
        row = out[k]
        total = sum(row.values())
        if not total > 0:
            raise NumericError(f"stationary solve underflowed: state {k} keeps no out-rate")
        inflow = [(i, out[i].pop(k)) for i in sorted(into[k]) if i < k]
        for i, q in inflow:
            share, target = q / total, out[i]
            for j, p in row.items():
                if j in target:
                    target[j] += share * p
                else:
                    target[j] = share * p
                    into[j].add(i)
            target.pop(i, None)  # the self-loop i -> k -> i
        censored.append((k, inflow, total))
    pi = [1] * n
    for k, inflow, total in reversed(censored):
        pi[k] = sum(pi[i] * q for i, q in inflow) / total
    mass = sum(pi)
    pi = [x / mass for x in pi]
    if not min(pi) > 0:
        raise NumericError(f"stationary solve produced non-positive entries: min {min(pi)!r}")
    out_flow, in_flow = [0] * n, [0] * n
    for (u, v), q in rates.values.items():
        out_flow[u] += pi[u] * q
        in_flow[v] += pi[u] * q
    worst = max((abs(o - i) / (o + i) for o, i in zip(out_flow, in_flow) if o + i), default=0)
    if worst > _BALANCE_TOLERANCE:
        raise NumericError(f"balance residual {float(worst)} exceeds {_BALANCE_TOLERANCE}")
    return StationaryMeasure(tuple(pi))


# ---- verification ----


def verify_relation(pi: StationaryMeasure, rates: RateAssignment, r: Relation) -> float:
    """Relative residual of pi[lhs] * lhs_factor = pi[rhs] * rhs_factor under the rates."""
    return relation_residuals(pi, rates, [r])[0]


def relation_residuals(
    pi: StationaryMeasure, rates: RateAssignment, relations: Sequence[Relation]
) -> list[float]:
    """``verify_relation`` of each relation, evaluating each distinct factor once.

    Factors are told apart by identity, so relations that hold the same factor
    object share one evaluation. Factors are evaluated in the order the
    relations list them, so the first factor that fails raises. A relation
    whose two flows add up to 0 or overflow raises, as a cut's does.
    """
    values: dict[int, float] = {}
    for r in relations:
        for e in (r.lhs_factor, r.rhs_factor):
            if id(e) not in values:
                values[id(e)] = evaluate(e, rates.values)
    residuals = []
    for k, r in enumerate(relations):
        lhs = pi[r.lhs_node] * values[id(r.lhs_factor)]
        rhs = pi[r.rhs_node] * values[id(r.rhs_factor)]
        total = lhs + rhs
        if not 0 < total < math.inf:
            raise NumericError(f"relation {k} has flow {total!r}; its balance is undefined")
        residuals.append(abs(lhs - rhs) / total)
    return residuals


def cut_residuals(
    pi: StationaryMeasure, rates: RateAssignment, cuts: Sequence[Cut]
) -> list[float]:
    """Relative residual of the crossing-flow balance over each cut's two sides.

    Only a cut's sources have edges into the other side, so the forward flow
    sums pi[u] * q(u, v) over the edges from ``source_a`` into side B, the
    backward flow over those from ``source_b`` into side A, and the residual
    is |forward - backward| / (forward + backward); a missing source fails
    the balance. Each sum adds left to right in the rate map's order, so every
    residual is bit for bit the per-edge loop's, and exact on exact numbers.
    """
    n = len(pi)
    # Per node, its out-edges as (rate-map position, head, flow).
    out: list[list[tuple]] = [[] for _ in range(n)]
    for position, ((u, v), q) in enumerate(rates.values.items()):
        out[u].append((position, v, pi[u] * q))
    residuals = []
    for k, cut in enumerate(cuts):
        if cut.side_a.universe != n or cut.source_a.universe != n or cut.source_b.universe != n:
            raise InvalidArgumentError(f"cut {k} is not over the chain's {n} nodes")
        side_a, source_a, source_b = cut.side_a.mask, cut.source_a.mask, cut.source_b.mask
        if not source_a or not source_b or source_a & ~side_a or source_b & side_a:
            raise InvalidArgumentError(f"cut {k} has an empty source set or a source off its side")
        forward = _crossing_flow(out, source_a, side_a, False)
        backward = _crossing_flow(out, source_b, side_a, True)
        total = forward + backward
        if not 0 < total < math.inf:
            raise NumericError(f"cut {k} has crossing flow {total!r}; its balance is undefined")
        residuals.append(abs(forward - backward) / total)
    return residuals


def _crossing_flow(out: list[list[tuple]], sources: int, side_a: int, into_a: bool) -> float:
    """The sources' flow into side A (``into_a``) or out of it, added in rate-map order."""
    flow = 0
    # A loop, not sum(): from Python 3.12 sum() compensates float rounding.
    for _, v, f in heapq.merge(*(out[u] for u in NodeSet(sources, len(out)))):
        if (side_a >> v & 1) == into_a:
            flow += f
    return flow


def cut_equation_check(pi: StationaryMeasure, rates: RateAssignment, cut: Cut) -> float:
    """Relative residual of the crossing-flow balance over the cut's bipartition."""
    return cut_residuals(pi, rates, [cut])[0]


def check(
    c: FormalChain, analysis: Analysis, assignments: Iterable[RateAssignment]
) -> tuple[list[float], list[float]]:
    """Each relation's and each cut's worst residual over the assignments, in order.

    Each assignment is solved once. A level-1 cut's balance is its relation,
    pi_i * f_ij = pi_j * f_ji, whose factors are the crossing sums out of the
    cut's two sources, so only the cuts of level 2 and up get entries, in
    ``analysis.higher``'s hyperedge order. Solver and evaluation errors raise.
    """
    cuts = [h.cut for lv in analysis.higher for h in lv.hyperedges]
    relation_worst = [0.0] * len(analysis.relations)
    cut_worst = [0.0] * len(cuts)
    for rates in assignments:
        pi = stationary(c, rates)
        relation_worst = list(map(max, relation_worst, relation_residuals(pi, rates, analysis.relations)))
        cut_worst = list(map(max, cut_worst, cut_residuals(pi, rates, cuts)))
    return relation_worst, cut_worst


# ---- exhaustive oracle ----


def enumerate_sourced_cuts(c: FormalChain) -> dict[tuple[int, int], Cut]:
    """Exhaustive scan of all bipartitions for singleton-sourced cuts.

    Keyed by the unordered source pair as (i, j) with i < j; side_a is the
    side whose source is i. This is the reference oracle the structural
    algorithms are tested against.

    Node 0 is pinned to side A, so bipartition t has side-A mask 2t + 1, and
    all 2^(n-1) of them are tested at once as bit columns: node v's column is
    a 2^(n-1)-bit int whose bit t says whether v is on side A in bipartition
    t. A node is a side-A source where it is on A and not all its
    out-neighbours are, and a side-B source where it is on B and some
    out-neighbour is on A; "at least one" and "at least two" counters per
    side then mark the bipartitions with exactly one source on each side.
    That is O(|E|) operations on 2^(n-1)-bit ints, plus one ``_sources`` call
    per marked bipartition, of which there are at most n(n-1)/2 when sourced
    cuts are unique. Exponential in |V|, so guarded at 20 nodes.
    """
    g = c.graph
    n = g.n
    check_budget("exhaustive cut enumeration", n)
    width = 1 << (n - 1)
    columns = [(1 << width) - 1]
    for v in range(1, n):
        # Blocks of 2^(v-1) zeros then ones, doubled up to the full width.
        span = 1 << (v - 1)
        column = ((1 << span) - 1) << span
        span <<= 1
        while span < width:
            column |= column << span
            span <<= 1
        columns.append(column)
    one_a = two_a = one_b = two_b = 0
    for u in range(n):
        all_on_a, any_on_a = -1, 0
        for w in g.out_adj[u]:
            all_on_a &= columns[w]
            any_on_a |= columns[w]
        source_a = columns[u] & ~all_on_a
        source_b = any_on_a & ~columns[u]
        two_a |= one_a & source_a
        one_a |= source_a
        two_b |= one_b & source_b
        one_b |= source_b
    # Side B is empty in the last bipartition, so one_b already leaves it out.
    marked = one_a & ~two_a & one_b & ~two_b
    full = (1 << n) - 1
    found: dict[tuple[int, int], Cut] = {}
    while marked:
        low = marked & -marked
        marked ^= low
        mask = 2 * low.bit_length() - 1
        comp = full & ~mask
        src_a, src_b = _sources(g, mask, comp)
        i = src_a.bit_length() - 1
        j = src_b.bit_length() - 1
        if i < j:
            cut = Cut(NodeSet(mask, n), NodeSet(src_a, n), NodeSet(src_b, n))
            key = (i, j)
        else:
            cut = Cut(NodeSet(comp, n), NodeSet(src_b, n), NodeSet(src_a, n))
            key = (j, i)
        if key in found and found[key] != cut:
            raise AssertionError(
                f"two distinct cuts sourced at {key}; uniqueness of sourced cuts is violated"
            )
        found[key] = cut
    return found


# ---- ratio-separating witness ----


@dataclass(frozen=True, eq=False)
class WitnessPair:
    """Two probability assignments that give a shared-ancestor pair different pi ratios.

    ``path_a`` runs from the joint ancestor to the first node avoiding the
    second, ``path_b`` symmetrically; the two paths share only their first
    node. The assignments agree everywhere except on the ancestor's first
    step onto each path.
    """

    joint_ancestor: int
    path_a: tuple[int, ...]
    path_b: tuple[int, ...]
    epsilon: float
    q_a: RateAssignment
    q_b: RateAssignment


def _spread(
    values: dict[tuple[int, int], float],
    base: Mapping[tuple[int, int], float],
    src: int,
    favored: int,
    neighbors: tuple[int, ...],
    mass: float,
) -> None:
    """Give every neighbor of ``src`` except ``favored`` a share of ``mass``, pro rata to base."""
    others = [v for v in neighbors if v != favored]
    total = sum(base[(src, v)] for v in others)
    for v in others:
        values[(src, v)] = mass * base[(src, v)] / total


def theorem3_witness(c: FormalChain, i: int, j: int) -> WitnessPair | None:
    """Construct the two-assignment witness for a pair that shares an ancestor.

    Absent (None) when {i} and {j} are joint-ancestor free — there is nothing
    to witness. Otherwise picks the joint ancestor k with the shortest
    distance to i (avoiding j; ties broken by smallest index), takes shortest
    paths a: k -> i and b: k -> j that share only k, and builds two DTMC
    assignments that agree everywhere except on edges (k, a2) and (k, b2):
    each assignment sends probability 1 - eps down one path's first edge,
    with eps = 1/(3 * max(|a|, |b|)) for path lengths counted in edges.
    Interior path nodes forward 1 - eps to their successor under both
    assignments, so each path is walked end to end with probability at least
    (1 - eps)^length, which forces the two stationary ratios pi[i]/pi[j] apart.
    """
    g = c.graph
    if i == j or not (0 <= i < g.n and 0 <= j < g.n):
        raise InvalidArgumentError("a witness needs two distinct valid nodes")
    # The ancestors of each node in the subgraph avoiding the other, by hop count.
    layers_i = _layers(g.in_mask, 1 << i, ~(1 << j))
    layers_j = _layers(g.in_mask, 1 << j, ~(1 << i))
    anc_j = sum(layers_j)
    joint = next((layer & anc_j for layer in layers_i if layer & anc_j), 0)
    if not joint:
        return None
    k = (joint & -joint).bit_length() - 1
    path_a = _descend(g.out_mask, layers_i, k)
    path_b = _descend(g.out_mask, layers_j, k)
    shared = set(path_a) & set(path_b)
    assert shared == {k}, (
        "a closer joint ancestor would exist if the shortest paths met again"
    )
    len_a = len(path_a) - 1
    len_b = len(path_b) - 1
    eps = 1.0 / (3.0 * max(len_a, len_b))
    base = {e: 1.0 / len(g.out_adj[e[0]]) for e in g.edge_list}
    common = dict(base)
    for path in (path_a, path_b):
        for p in range(1, len(path) - 1):
            node, successor = path[p], path[p + 1]
            if len(g.out_adj[node]) == 1:
                common[(node, successor)] = 1.0
            else:
                common[(node, successor)] = 1.0 - eps
                _spread(common, base, node, successor, g.out_adj[node], eps)
    a2, b2 = path_a[1], path_b[1]
    rest = [v for v in g.out_adj[k] if v not in (a2, b2)]
    if rest:
        _spread(common, base, k, a2, tuple(v for v in g.out_adj[k] if v != b2), eps / 2.0)
        first_mass = eps / 2.0
    else:
        first_mass = eps
    values_a = dict(common)
    values_b = dict(common)
    values_a[(k, a2)] = 1.0 - eps
    values_a[(k, b2)] = first_mass
    values_b[(k, b2)] = 1.0 - eps
    values_b[(k, a2)] = first_mass
    return WitnessPair(
        joint_ancestor=k,
        path_a=tuple(path_a),
        path_b=tuple(path_b),
        epsilon=eps,
        q_a=rate_assignment(c, values_a, ChainKind.DTMC),
        q_b=rate_assignment(c, values_b, ChainKind.DTMC),
    )
