"""Rate-expression ASTs, their classification, evaluation, and circuit metrics.

A factor is a positive rational expression over edge rates: an atom ``q(u, v)``,
a Sum of factors, or a Product of factors each raised to +1 or -1. Sums never
nest directly under Sums and Products never nest directly under Products (the
builders flatten, multiplying exponents through), but width-1 Sums are kept:
they are real gates in the circuit-size accounting.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import InvalidArgumentError, NumericError

# ---- expression nodes ----


@dataclass(frozen=True)
class RateAtom:
    """The rate on one directed edge, identified by dense node indices."""

    src: int
    dst: int


@dataclass(frozen=True)
class SumExpr:
    terms: tuple["FactorExpr", ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidArgumentError("a Sum needs at least one term")
        if any(isinstance(t, SumExpr) for t in self.terms):
            raise InvalidArgumentError("Sums must not nest directly; use sum_of()")


@dataclass(frozen=True)
class ProductExpr:
    factors: tuple[tuple["FactorExpr", int], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise InvalidArgumentError("a Product needs at least one factor")
        for expr, exp in self.factors:
            if exp not in (1, -1):
                raise InvalidArgumentError(f"exponent must be +1 or -1, got {exp}")
            if isinstance(expr, ProductExpr):
                raise InvalidArgumentError("Products must not nest directly; use product_of()")


FactorExpr = RateAtom | SumExpr | ProductExpr


def sum_of(terms: Iterable[FactorExpr]) -> SumExpr:
    """Sum of the given factors, flattening any Sum children into this one."""
    flat: list[FactorExpr] = []
    for t in terms:
        if isinstance(t, SumExpr):
            flat.extend(t.terms)
        else:
            flat.append(t)
    return SumExpr(tuple(flat))


def product_of(pairs: Iterable[tuple[FactorExpr, int]]) -> ProductExpr:
    """Product of (factor, exponent) pairs, flattening nested Products.

    A nested Product contributes its children with exponents multiplied by the
    outer exponent, so reciprocals of Products distribute onto their children.
    """
    flat: list[tuple[FactorExpr, int]] = []
    for expr, exp in pairs:
        if exp not in (1, -1):
            raise InvalidArgumentError(f"exponent must be +1 or -1, got {exp}")
        if isinstance(expr, ProductExpr):
            flat.extend((child, child_exp * exp) for child, child_exp in expr.factors)
        else:
            flat.append((expr, exp))
    return ProductExpr(tuple(flat))


# ---- classification ----

_LEVEL_NAMES = {1: "S", 2: "PS", 3: "SPS", 4: "PSPS"}


@dataclass(frozen=True)
class Level:
    """Alternation rank of a factor shape: S(1), PS(2), SPS(3), PSPS(4), then higher."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise InvalidArgumentError("levels start at rank 1")

    @property
    def name(self) -> str:
        return _LEVEL_NAMES.get(self.rank) or f"HIGHER({self.rank})"

    def __str__(self) -> str:
        return self.name


LEVEL_S = Level(1)


def _alternation(e: FactorExpr) -> int:
    if isinstance(e, RateAtom):
        return 0
    if isinstance(e, SumExpr):
        return 1 + max(_alternation(t) for t in e.terms)
    return 1 + max(_alternation(f) for f, _ in e.factors)


def classify(e: FactorExpr) -> Level:
    """The smallest alternation shape the expression fits.

    A bare atom counts as a width-1 sum (rank S). A Sum-rooted expression gets
    the smallest odd rank covering its alternation depth, a Product-rooted one
    the smallest even rank: a sum of products of atoms is SPS even though its
    inner sums are degenerate.
    """
    if isinstance(e, RateAtom):
        return LEVEL_S
    depth = _alternation(e)
    if isinstance(e, SumExpr):
        return Level(depth if depth % 2 == 1 else depth + 1)
    return Level(depth if depth % 2 == 0 else depth + 1)


# ---- evaluation ----


def evaluate(e: FactorExpr, rates: Mapping[tuple[int, int], float]) -> float:
    """Numeric value of the expression under the per-edge rate map.

    Every referenced edge must be present; the result must come out positive
    and finite (factors are sums/products of positive rates).
    """
    value = _evaluate(e, rates)
    if not math.isfinite(value) or value <= 0.0:
        raise NumericError(f"factor evaluated to non-positive value {value!r}")
    return value


def _evaluate(e: FactorExpr, rates: Mapping[tuple[int, int], float]) -> float:
    if isinstance(e, RateAtom):
        try:
            return rates[(e.src, e.dst)]
        except KeyError:
            raise InvalidArgumentError(f"no rate given for edge ({e.src}, {e.dst})") from None
    if isinstance(e, SumExpr):
        return sum(_evaluate(t, rates) for t in e.terms)
    value = 1
    for expr, exp in e.factors:
        child = _evaluate(expr, rates)
        value = value * child if exp > 0 else value / child
    return value


# ---- circuit metrics ----


@dataclass(frozen=True)
class CircuitStats:
    """Depth (operations on the longest input-to-root path) and size (total circuit nodes)."""

    depth: int
    size: int


def circuit_stats(e: FactorExpr) -> CircuitStats:
    """Arithmetic-circuit metrics of the expression.

    A bare atom is a plain input: depth 0, size 0. Otherwise size counts every
    node of the circuit: atom inputs, Sum gates, Product gates, and one
    reciprocal gate per -1 exponent; depth counts gates (including reciprocals)
    on the deepest path.
    """
    if isinstance(e, RateAtom):
        return CircuitStats(0, 0)
    return CircuitStats(*_circuit(e))


def _circuit(e: FactorExpr) -> tuple[int, int]:
    """``(depth, size)`` of the circuit below ``e``, an atom being one input node."""
    if isinstance(e, RateAtom):
        return 0, 1
    if isinstance(e, SumExpr):
        parts = [(_circuit(t), 0) for t in e.terms]
    else:
        parts = [(_circuit(f), int(exp < 0)) for f, exp in e.factors]
    return 1 + max(d + r for (d, _), r in parts), 1 + sum(n + r for (_, n), r in parts)


# ---- relations ----


@dataclass(frozen=True)
class Relation:
    """A verified-shape identity ``pi[lhs_node] * lhs_factor = pi[rhs_node] * rhs_factor``.

    Oriented so that ``lhs_node < rhs_node``; ``level`` is the alternation rank
    of the wider factor side.
    """

    lhs_node: int
    rhs_node: int
    lhs_factor: FactorExpr
    rhs_factor: FactorExpr
    level: Level


def make_relation(
    lhs_node: int, rhs_node: int, lhs_factor: FactorExpr, rhs_factor: FactorExpr
) -> Relation:
    """Build a Relation, swapping sides if needed to keep ``lhs_node < rhs_node``."""
    if lhs_node == rhs_node:
        raise InvalidArgumentError("a relation needs two distinct nodes")
    if lhs_node > rhs_node:
        lhs_node, rhs_node = rhs_node, lhs_node
        lhs_factor, rhs_factor = rhs_factor, lhs_factor
    level = Level(max(classify(lhs_factor).rank, classify(rhs_factor).rank))
    return Relation(lhs_node, rhs_node, lhs_factor, rhs_factor, level)


def chain_relations(first: Relation, second: Relation) -> Relation:
    """Join two relations sharing exactly one node, eliminating its weight.

    From ``pi[a] * F_a = pi[s] * F_s`` and ``pi[s] * G_s = pi[c] * G_c`` the
    shared ``pi[s]`` cancels after cross-multiplying, leaving
    ``pi[a] * (F_a * G_s) = pi[c] * (G_c * F_s)``. Both sides stay products
    with +1 exponents, so chaining S relations yields PS, and chaining
    sum-of-product relations yields the next alternation level up.
    """
    nodes1 = {first.lhs_node, first.rhs_node}
    nodes2 = {second.lhs_node, second.rhs_node}
    shared = nodes1 & nodes2
    if len(shared) != 1:
        raise InvalidArgumentError(
            f"relations must share exactly one node, got {sorted(shared)}"
        )
    s = shared.pop()
    a = (nodes1 - {s}).pop()
    c = (nodes2 - {s}).pop()
    f_a, f_s = (
        (first.lhs_factor, first.rhs_factor)
        if first.lhs_node == a
        else (first.rhs_factor, first.lhs_factor)
    )
    g_s, g_c = (
        (second.lhs_factor, second.rhs_factor)
        if second.lhs_node == s
        else (second.rhs_factor, second.lhs_factor)
    )
    return make_relation(
        a,
        c,
        product_of([(f_a, 1), (g_s, 1)]),
        product_of([(g_c, 1), (f_s, 1)]),
    )


# ---- serialization ----


def factor_to_json(e: FactorExpr, labels: Sequence[str]) -> dict:
    if isinstance(e, RateAtom):
        return {"atom": {"from": labels[e.src], "to": labels[e.dst]}}
    if isinstance(e, SumExpr):
        return {"sum": [factor_to_json(t, labels) for t in e.terms]}
    return {
        "product": [
            {"expr": factor_to_json(f, labels), "exp": exp} for f, exp in e.factors
        ]
    }


def format_factor(e: FactorExpr, labels: Sequence[str]) -> str:
    """Human-readable rendering, e.g. ``q(1,0)*(q(4,1) + q(4,5))^-1``."""
    if isinstance(e, RateAtom):
        return f"q({labels[e.src]},{labels[e.dst]})"
    if isinstance(e, SumExpr):
        body = " + ".join(format_factor(t, labels) for t in e.terms)
        return body if len(e.terms) == 1 else f"({body})"
    parts = []
    for f, exp in e.factors:
        rendered = format_factor(f, labels)
        if isinstance(f, SumExpr) and len(f.terms) == 1:
            rendered = f"({rendered})" if exp < 0 and "(" not in rendered else rendered
        parts.append(rendered + ("^-1" if exp < 0 else ""))
    return "*".join(parts)


def relation_to_json(r: Relation, labels: Sequence[str]) -> dict:
    """One relation's row with its two factors written in place, not as table indices."""
    factors, (row,) = relations_to_json([r], labels)
    return {**row, "lhs_factor": factors[row["lhs_factor"]], "rhs_factor": factors[row["rhs_factor"]]}


def relations_to_json(
    relations: Sequence[Relation], labels: Sequence[str]
) -> tuple[list[dict], list[dict]]:
    """A factor table and one row per relation, whose factors are indices into the table.

    The table holds ``factor_to_json`` of each distinct factor object once, told
    apart by identity, in the order the relations first hold it (hash-consing), so
    a factor that many relations share is formatted, measured and written once.
    """
    index: dict[int, int] = {}
    factors: list[dict] = []
    stats: list[CircuitStats] = []
    for r in relations:
        for e in (r.lhs_factor, r.rhs_factor):
            if id(e) not in index:
                index[id(e)] = len(factors)
                factors.append(factor_to_json(e, labels))
                stats.append(circuit_stats(e))
    rows = []
    for r in relations:
        lhs, rhs = index[id(r.lhs_factor)], index[id(r.rhs_factor)]
        rows.append({
            "lhs": labels[r.lhs_node],
            "rhs": labels[r.rhs_node],
            "level": r.level.name,
            "lhs_factor": lhs,
            "rhs_factor": rhs,
            "circuit": {
                "depth": max(stats[lhs].depth, stats[rhs].depth),
                "size": stats[lhs].size + stats[rhs].size,
            },
        })
    return factors, rows
