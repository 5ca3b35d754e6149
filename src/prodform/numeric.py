"""Dense stationary solves, relation/cut verification, rate generation, and oracles.

Everything here instantiates the symbolic rates with concrete positive numbers:
solving for the stationary measure, measuring how well a relation or cut
equation holds, enumerating sourced cuts by brute force, and building the
two-assignment witness that separates the stationary ratios of a non-free
node pair.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError, ResourceLimitError
from .factors import Relation, evaluate
from .graph_core import NodeSet, shortest_path
from .product_form import ChainKind, Cut, FormalChain, _sources, mutually_avoiding_ancestors

_SOLVER_NODE_BUDGET = 2000
_ORACLE_NODE_BUDGET = 20
_BALANCE_TOLERANCE = 1e-10
_ROW_SUM_TOLERANCE = 1e-12
_CUT_BLOCK_ELEMENTS = 1 << 16

# ---- rate assignments ----


@dataclass(frozen=True, eq=False)
class RateAssignment:
    """Positive values for every edge; DTMC rows are probability distributions."""

    values: Mapping[tuple[int, int], float]
    kind: ChainKind


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
        if not (v > 0.0) or not np.isfinite(v):
            raise InvalidArgumentError(f"rate for edge {e} must be positive and finite, got {v!r}")
    if kind is ChainKind.DTMC:
        for u in range(g.n):
            total = sum(values[(u, v)] for v in g.out_adj[u])
            if abs(total - 1.0) > _ROW_SUM_TOLERANCE:
                raise InvalidArgumentError(
                    f"outgoing probabilities of node {g.labels[u]!r} sum to {total!r}, not 1"
                )
    return RateAssignment(dict(values), kind)


def random_rates(c: FormalChain, seed: int, kind: ChainKind | None = None) -> RateAssignment:
    """Deterministic per-seed assignment, log-uniform in [0.1, 10]; DTMC rows normalized."""
    kind = c.kind if kind is None else kind
    g = c.graph
    rng = np.random.default_rng(seed)
    raw = 10.0 ** rng.uniform(-1.0, 1.0, g.edge_count)
    values = {e: float(x) for e, x in zip(g.edge_list, raw)}
    if kind is ChainKind.DTMC:
        for u in range(g.n):
            total = sum(values[(u, v)] for v in g.out_adj[u])
            for v in g.out_adj[u]:
                values[(u, v)] /= total
    return rate_assignment(c, values, kind)


# ---- stationary measure ----


@dataclass(frozen=True)
class StationaryMeasure:
    """Strictly positive per-node stationary weights."""

    pi: tuple[float, ...]
    normalized: bool

    def __getitem__(self, v: int) -> float:
        return self.pi[v]

    def __len__(self) -> int:
        return len(self.pi)


def stationary(c: FormalChain, rates: RateAssignment) -> StationaryMeasure:
    """Solve the balance equations by a dense direct solve and normalize.

    One balance row is replaced by the normalization row (the system is rank
    n-1 for a strongly connected chain). The result is checked row by row:
    outflow pi[i] * sum_j q(i,j) must match inflow sum_k pi[k] * q(k,i) to a
    relative residual of 1e-10.
    """
    g = c.graph
    n = g.n
    if n > _SOLVER_NODE_BUDGET:
        raise ResourceLimitError(f"chain has {n} nodes; the dense solver budget is {_SOLVER_NODE_BUDGET}")
    a = np.zeros((n, n))
    for (u, v), q in rates.values.items():
        a[v, u] += q  # inflow to v from u
        a[u, u] -= q  # outflow from u
    a[n - 1, :] = 1.0
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    try:
        pi = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for valid chains
        raise NumericError(f"stationary solve failed: {exc}") from exc

    def balance_worst(vec: np.ndarray) -> float:
        out_flow = np.zeros(n)
        in_flow = np.zeros(n)
        for (u, v), q in rates.values.items():
            out_flow[u] += vec[u] * q
            in_flow[v] += vec[u] * q
        residual = np.abs(out_flow - in_flow) / (out_flow + in_flow)
        return float(residual.max())

    worst = balance_worst(pi)
    for _ in range(2):
        # Iterative refinement recovers the digits a single dense solve loses
        # on badly scaled instances.
        if worst <= _BALANCE_TOLERANCE:
            break
        pi = pi + np.linalg.solve(a, rhs - a @ pi)
        worst = balance_worst(pi)
    if not np.all(pi > 0.0):
        raise NumericError(f"stationary solve produced non-positive entries: min {pi.min()!r}")
    if worst > _BALANCE_TOLERANCE:
        raise NumericError(f"balance residual {worst} exceeds {_BALANCE_TOLERANCE}")
    return StationaryMeasure(tuple(float(x) for x in pi), normalized=True)


# ---- verification ----


def verify_relation(pi: StationaryMeasure, rates: RateAssignment, r: Relation) -> float:
    """Relative residual of pi[lhs] * lhs_factor = pi[rhs] * rhs_factor under the rates."""
    lhs = pi[r.lhs_node] * evaluate(r.lhs_factor, rates.values)
    rhs = pi[r.rhs_node] * evaluate(r.rhs_factor, rates.values)
    return abs(lhs - rhs) / (lhs + rhs)


def cut_residuals(
    pi: StationaryMeasure, rates: RateAssignment, cuts: Sequence[Cut]
) -> list[float]:
    """Relative residual of the crossing-flow balance over each cut's two sides.

    The forward flow of a cut sums pi[u] * q(u, v) over its edges from
    ``side_a`` to ``side_b``, the backward flow over its edges from ``side_b``
    to ``side_a``, and the residual is |forward - backward| / (forward +
    backward). Both sums run over the edges in the rate map's order and add
    left to right (``cumsum``); a masked-out edge adds an exact +0.0, so every
    residual is bit for bit the one a per-edge loop in that order gives. Cuts
    are taken in blocks so that no temporary array holds more than
    ``_CUT_BLOCK_ELEMENTS`` elements.
    """
    n = len(pi)
    for k, cut in enumerate(cuts):
        if cut.side_a.universe != n or cut.side_b.universe != n:
            raise InvalidArgumentError(f"cut {k} is not over the chain's {n} nodes")
    if not cuts:
        return []
    edges = np.array(list(rates.values), dtype=np.intp).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    flow = np.asarray(pi.pi)[src] * np.fromiter(rates.values.values(), float, len(edges))
    rows = max(1, _CUT_BLOCK_ELEMENTS // max(n, len(edges), 1))
    residuals: list[float] = []
    for start in range(0, len(cuts), rows):
        block = cuts[start : start + rows]
        side_a = _side_rows([cut.side_a.mask for cut in block], n)
        side_b = _side_rows([cut.side_b.mask for cut in block], n)
        forward_edges = side_a[:, src] & side_b[:, dst]
        backward_edges = side_b[:, src] & side_a[:, dst] & ~forward_edges
        forward = _ordered_row_sums(forward_edges, flow)
        backward = _ordered_row_sums(backward_edges, flow)
        total = forward + backward
        defined = np.isfinite(total) & (total > 0.0)
        if not defined.all():
            k = int(np.argmin(defined))
            raise NumericError(
                f"cut {start + k} has crossing flow {float(total[k])!r}; its balance is undefined"
            )
        residuals.extend((np.abs(forward - backward) / total).tolist())
    return residuals


def _side_rows(masks: list[int], n: int) -> np.ndarray:
    """One boolean row of length ``n`` per node mask (bit v is column v)."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    bits = np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return bits.view(bool)


def _ordered_row_sums(mask: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Per row, the sum of ``flow`` where ``mask`` holds, added strictly left to right."""
    if not flow.size:
        return np.zeros(len(mask))
    return np.cumsum(np.where(mask, flow, 0.0), axis=1)[:, -1]


def cut_equation_check(pi: StationaryMeasure, rates: RateAssignment, cut: Cut) -> float:
    """Relative residual of the crossing-flow balance over the cut's bipartition."""
    return cut_residuals(pi, rates, [cut])[0]


# ---- exhaustive oracle ----


def enumerate_sourced_cuts(c: FormalChain) -> dict[tuple[int, int], Cut]:
    """Brute-force scan of all bipartitions for singleton-sourced cuts.

    Keyed by the unordered source pair as (i, j) with i < j; side_a is the
    side whose source is i. Exponential in |V|, so guarded at 20 nodes; this
    is the reference oracle the structural algorithms are tested against.
    """
    g = c.graph
    n = g.n
    if n > _ORACLE_NODE_BUDGET:
        raise ResourceLimitError(
            f"chain has {n} nodes; exhaustive cut enumeration is budgeted at {_ORACLE_NODE_BUDGET}"
        )
    full = (1 << n) - 1
    found: dict[tuple[int, int], Cut] = {}
    # consider each bipartition once by pinning node 0 to side_a
    for mask in range(1, full, 2):
        comp = full & ~mask
        if comp == 0:
            continue
        src_a, src_b = _sources(g, mask, comp)
        if src_a.bit_count() != 1 or src_b.bit_count() != 1:
            continue
        i = src_a.bit_length() - 1
        j = src_b.bit_length() - 1
        if i < j:
            cut = Cut(NodeSet(mask, n), NodeSet(comp, n), NodeSet(src_a, n), NodeSet(src_b, n))
            key = (i, j)
        else:
            cut = Cut(NodeSet(comp, n), NodeSet(mask, n), NodeSet(src_b, n), NodeSet(src_a, n))
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
    anc_i, anc_j = mutually_avoiding_ancestors(
        c, NodeSet.of([i], g.n), NodeSet.of([j], g.n)
    )
    joint = anc_i & anc_j
    if not joint:
        return None
    best: tuple[int, int] | None = None
    for k in joint:
        dist = len(shortest_path(g, k, i, avoid=NodeSet.of([j], g.n))) - 1
        if best is None or (dist, k) < best:
            best = (dist, k)
    k = best[1]
    path_a = shortest_path(g, k, i, avoid=NodeSet.of([j], g.n))
    path_b = shortest_path(g, k, j, avoid=NodeSet.of([i], g.n))
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
