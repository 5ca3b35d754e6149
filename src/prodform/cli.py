"""Command-line front end: graph ingestion, analysis reports, DOT, and oracles.

Commands share one JSON graph schema (nodes, directed edges, optional rates) so
the same document feeds structural analysis, numeric verification, and export.
Exit codes are stable: 0 success, 1 verification/equivalence failure, 2 input
error, 3 structural error, 4 budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    InvalidArgumentError,
    NotStronglyConnectedError,
    NumericError,
    ResourceLimitError,
)
from .factors import Relation, factor_to_json, relation_to_json
from .graph_core import DirectedGraph, NodeSet, connectivity_witness
from .higher_level import Analysis, analyze, broad_pair_scan, higher_level_cut_graph
from .models import Family, FixtureBundle, ModelSpec, expected_fixtures
from .models import generate as generate_model
from .numeric import (
    RateAssignment,
    cut_residuals,
    enumerate_sourced_cuts,
    random_rates,
    rate_assignment,
    stationary,
    verify_relation,
)
from .product_form import ChainKind, FormalChain, cut_graph

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_STRUCTURE = 3
EXIT_BUDGET = 4

# ---- graph documents ----


@dataclass(frozen=True)
class GraphDocument:
    """Serializable chain: a name, a kind, node labels, edges, optional rates."""

    name: str
    kind: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    rates: tuple[float, ...] | None

    def to_json(self) -> dict:
        edges = []
        for k, (src, dst) in enumerate(self.edges):
            entry: dict = {"from": src, "to": dst}
            if self.rates is not None:
                entry["rate"] = self.rates[k]
            edges.append(entry)
        return {
            "name": self.name,
            "kind": self.kind,
            "nodes": list(self.nodes),
            "edges": edges,
        }


def parse_document(text: str) -> GraphDocument:
    """Decode and validate the JSON graph schema (without building the chain)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal over the int-to-str digit limit
        raise InvalidArgumentError(f"parse error: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidArgumentError("document must be a JSON object")
    name = raw.get("name", "")
    kind = raw.get("kind", "ctmc")
    if not isinstance(name, str):
        raise InvalidArgumentError("name must be a string")
    if kind not in ("ctmc", "dtmc"):
        raise InvalidArgumentError(f"kind must be 'ctmc' or 'dtmc', got {kind!r}")
    nodes = raw.get("nodes")
    if not isinstance(nodes, list) or not all(isinstance(x, str) for x in nodes):
        raise InvalidArgumentError("nodes must be a list of label strings")
    raw_edges = raw.get("edges")
    if not isinstance(raw_edges, list):
        raise InvalidArgumentError("edges must be a list of objects")
    edges: list[tuple[str, str]] = []
    rates: list[float] = []
    for entry in raw_edges:
        if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
            raise InvalidArgumentError(f"malformed edge entry: {entry!r}")
        if not isinstance(entry["from"], str) or not isinstance(entry["to"], str):
            raise InvalidArgumentError(f"edge endpoints must be label strings: {entry!r}")
        edges.append((entry["from"], entry["to"]))
        if "rate" in entry:
            value = entry["rate"]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidArgumentError(f"edge rate must be a number, got {value!r}")
            try:
                rates.append(float(value))
            except OverflowError:
                raise InvalidArgumentError(f"rate of edge {entry['from']}->{entry['to']} overflows a float") from None
    if rates and len(rates) != len(edges):
        raise InvalidArgumentError("either every edge carries a rate or none does")
    return GraphDocument(
        name=name,
        kind=kind,
        nodes=tuple(nodes),
        edges=tuple(edges),
        rates=tuple(rates) if rates else None,
    )


def document_to_chain(doc: GraphDocument) -> tuple[FormalChain, RateAssignment | None]:
    """Build the validated chain (and the rate assignment when rates are given)."""
    g = DirectedGraph.from_labeled_edges(list(doc.nodes), list(doc.edges))
    kind = ChainKind.CTMC if doc.kind == "ctmc" else ChainKind.DTMC
    c = FormalChain(g, kind)
    if doc.rates is None:
        return c, None
    values = {
        (g.index_of[a], g.index_of[b]): rate for (a, b), rate in zip(doc.edges, doc.rates)
    }
    return c, rate_assignment(c, values, kind)


def emit_document(
    c: FormalChain, name: str, rates: RateAssignment | None = None
) -> GraphDocument:
    """Serialize a chain with lexicographically normalized node order."""
    g = c.graph
    nodes = tuple(sorted(g.labels))
    edges = tuple(sorted((g.labels[a], g.labels[b]) for a, b in g.edge_list))
    values = None
    if rates is not None:
        values = tuple(
            rates.values[(g.index_of[a], g.index_of[b])] for a, b in edges
        )
    kind = "ctmc" if c.kind is ChainKind.CTMC else "dtmc"
    return GraphDocument(name=name, kind=kind, nodes=nodes, edges=edges, rates=values)


def _load(path: str) -> tuple[GraphDocument, FormalChain, RateAssignment | None]:
    with open(path, encoding="utf-8") as handle:
        doc = parse_document(handle.read())
    c, rates = document_to_chain(doc)
    return doc, c, rates


def _json_text(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` byte for byte, one ``str.join`` per container.

    ``indent`` is the newline and indent before the closing bracket. Numbers use
    ``int.__repr__``/``float.__repr__``, so a subclass of ``int`` or ``float``
    prints as a plain number.
    A non-string key or a value of any other type raises ``TypeError``.
    """
    if isinstance(value, dict):
        inner = indent + "  "
        # String items are quoted in place, which saves a call per label.
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _json_text(v, inner))
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        inner = indent + "  "
        items = [_quote(v) if type(v) is str else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(payload: dict, path: str | None) -> None:
    _write_text(_json_text(payload) + "\n", path)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---- analyze ----


def _label_pair(c: FormalChain, a: int, b: int) -> list[str]:
    return sorted((c.graph.labels[a], c.graph.labels[b]))


def _report_body(c: FormalChain, found: Analysis) -> dict:
    """The ``first_level`` and ``levels`` entries of the analyze report."""
    labels = c.graph.labels

    def names(s: NodeSet) -> list[str]:
        return sorted(labels[v] for v in s)

    first_count = len(found.edge_order)
    first_level = {
        "edges": [_label_pair(c, a, b) for a, b in found.edge_order],
        "components": [names(comp) for comp in found.c1.components],
        "relations": [relation_to_json(r, labels) for r in found.relations[:first_count]],
    }
    levels = []
    for lv in found.levels:
        entry = {
            "level": lv.level,
            "hyperedges": [
                {
                    "source_i": names(h.cut.source_a),
                    "source_j": names(h.cut.source_b),
                    "cut_a": names(h.cut.side_a),
                    "cut_b": names(h.cut.side_b),
                }
                for h in lv.hyperedges
            ],
            "components": [names(comp) for comp in lv.components],
        }
        if lv.level == 2:
            entry["relations"] = [
                relation_to_json(r, labels) for r in found.relations[first_count:]
            ]
        levels.append(entry)
    return {"first_level": first_level, "levels": levels}


def cmd_analyze(args: argparse.Namespace) -> int:
    doc, c, _ = _load(args.input)
    # The analysis stays a temporary, so it is freed before the report is encoded.
    body = _report_body(c, analyze(c, args.max_level))
    report = {
        "name": doc.name,
        "kind": doc.kind,
        "nodes": list(c.graph.labels),
        "edge_count": c.graph.edge_count,
        "max_level": args.max_level,
        **body,
    }
    _write_json(report, args.out)
    return EXIT_OK


# ---- verify ----


def cmd_verify(args: argparse.Namespace) -> int:
    doc, c, given = _load(args.input)
    if args.seeds < 0:
        raise InvalidArgumentError(f"--seeds must be nonnegative, got {args.seeds}")
    if given is None and args.seeds == 0:
        raise InvalidArgumentError("the document has no rates, so --seeds must be at least 1")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InvalidArgumentError(f"--tol must be finite and nonnegative, got {args.tol}")
    labels = c.graph.labels
    found = analyze(c, max_level=2)
    relations, cuts = found.relations, found.cuts
    fault_name = None
    if args.fault is not None:
        if not relations:
            raise InvalidArgumentError("no relations to fault in this chain")
        k = args.fault % len(relations)
        r = relations[k]
        fault_name = f"{labels[r.lhs_node]}~{labels[r.rhs_node]}"
        # Swapping the two factor sides breaks the identity without touching
        # its shape, so the sweep must flag exactly this relation.
        relations[k] = Relation(r.lhs_node, r.rhs_node, r.rhs_factor, r.lhs_factor, r.level)
    assignments: list[tuple[str, RateAssignment]] = []
    if given is not None:
        assignments.append(("document", given))
    assignments.extend((f"seed {s}", random_rates(c, s)) for s in range(args.seeds))
    relation_worst = [0.0] * len(relations)
    cut_worst = [0.0] * len(cuts)
    for _, rates in assignments:
        pi = stationary(c, rates)
        for k, r in enumerate(relations):
            relation_worst[k] = max(relation_worst[k], verify_relation(pi, rates, r))
        cut_worst = list(map(max, cut_worst, cut_residuals(pi, rates, cuts)))
    overall = max(relation_worst + cut_worst, default=0.0)
    report = {
        "name": doc.name,
        "assignments": [name for name, _ in assignments],
        "tolerance": args.tol,
        "relations": [
            {
                "lhs": labels[r.lhs_node],
                "rhs": labels[r.rhs_node],
                "level": r.level.name,
                "worst_residual": relation_worst[k],
            }
            for k, r in enumerate(relations)
        ],
        "cuts": [
            {
                "side_a": sorted(labels[v] for v in cut.side_a),
                "worst_residual": cut_worst[k],
            }
            for k, cut in enumerate(cuts)
        ],
        "max_residual": overall,
        "fault": fault_name,
        "pass": overall <= args.tol,
    }
    _write_json(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_FAILURE


# ---- generate ----

_PARAM_FLAGS = (
    ("n", "n"),
    ("k", "k"),
    ("blocks", "blocks"),
    ("blocksize", "blocksize"),
    ("c1", "c1"),
    ("c2", "c2"),
    ("servers", "servers"),
    ("multiple", "multiple"),
    ("truncate", "truncation"),
)


def _fixture_to_json(fx: FixtureBundle | None, labels: Sequence[str]) -> dict:
    if fx is None:
        return {"pinned": False}

    def pairs(items) -> list[list[list[str]]]:
        return [[sorted(a), sorted(b)] for a, b in items]

    doc: dict = {"pinned": True}
    if fx.c1_edges is not None:
        doc["c1_edges"] = sorted(sorted(pair) for pair in fx.c1_edges)
    if fx.c1_components is not None:
        doc["c1_components"] = [sorted(comp) for comp in fx.c1_components]
    if fx.relations:
        doc["relations"] = [relation_to_json(r, labels) for r in fx.relations]
    if fx.cut_sides:
        doc["cut_sides"] = pairs(fx.cut_sides)
    if fx.level2_sources:
        doc["level2_sources"] = pairs(fx.level2_sources)
    if fx.level3_sources:
        doc["level3_sources"] = pairs(fx.level3_sources)
    if fx.psps_relation is not None:
        doc["psps_relation"] = relation_to_json(fx.psps_relation, labels)
    if fx.closed_form is not None:
        doc["closed_form"] = [
            {"node": lab, "factor": factor_to_json(expr, labels)}
            for lab, expr in fx.closed_form
        ]
    if fx.broad_query is not None:
        doc["broad_query"] = [sorted(fx.broad_query[0]), sorted(fx.broad_query[1])]
        doc["broad_members"] = pairs(fx.broad_members)
    if fx.clique_members is not None:
        doc["clique_members"] = sorted(fx.clique_members)
        doc["clique_territories"] = [[m, sorted(t)] for m, t in fx.clique_territories]
        doc["clique_cycle"] = list(fx.clique_cycle)
    if fx.clique_cut is not None:
        doc["clique_cut"] = [sorted(fx.clique_cut[0]), sorted(fx.clique_cut[1])]
    if fx.non_jaf_pairs is not None:
        doc["non_jaf_pairs"] = sorted(sorted(pair) for pair in fx.non_jaf_pairs)
    return doc


def cmd_generate(args: argparse.Namespace) -> int:
    params = {}
    for flag, key in _PARAM_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            params[key] = value
    if args.with_fixtures and args.out is None:
        raise InvalidArgumentError("--with-fixtures requires --out")
    spec = ModelSpec(Family(args.family), params)
    c = generate_model(spec)
    doc = emit_document(c, name=args.name or args.family)
    _write_json(doc.to_json(), args.out)
    if args.with_fixtures:
        fx = expected_fixtures(spec)
        _write_json(_fixture_to_json(fx, c.graph.labels), args.out + ".fixtures.json")
    return EXIT_OK


# ---- oracle ----


def _random_chain(rng: random.Random, n: int) -> FormalChain:
    """A strongly connected chain sampled edge-by-edge (deterministic per seed)."""
    labels = [str(i) for i in range(n)]
    while True:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.35
        ]
        g = DirectedGraph(labels, edges)
        if connectivity_witness(g) is None:
            return FormalChain(g)


def _oracle_cuts(c: FormalChain) -> tuple[dict, bool]:
    labels = c.graph.labels
    brute = enumerate_sourced_cuts(c)
    scanned = cut_graph(c).edges
    brute_pairs = set(brute)
    missing = sorted(_label_pair(c, a, b) for a, b in brute_pairs - scanned)
    extra = sorted(_label_pair(c, a, b) for a, b in scanned - brute_pairs)
    agreed = not missing and not extra
    report = {
        "mode": "cuts",
        "cuts": [
            {
                "pair": _label_pair(c, a, b),
                "side_a": sorted(labels[v] for v in cut.side_a),
                "side_b": sorted(labels[v] for v in cut.side_b),
            }
            for (a, b), cut in sorted(brute.items(), key=lambda kv: _label_pair(c, *kv[0]))
        ],
        "diff": {"missing": missing, "extra": extra},
        "match": agreed,
    }
    return report, agreed


def _broad_findings(c: FormalChain) -> tuple[list[dict], list[str], list[str], list[dict]]:
    """The broad scan's pair reports, conjecture findings and skipped pairs, by label."""
    labels = c.graph.labels

    def names(s: NodeSet) -> list[str]:
        return sorted(labels[v] for v in s)

    found, skipped = broad_pair_scan(c)
    pair_reports: list[dict] = []
    conjecture1: list[str] = []
    conjecture2: list[str] = []
    for pair in found:
        pair_reports.append(
            {
                "comp_i": names(pair.comp_i),
                "comp_j": names(pair.comp_j),
                "members": [[names(i), names(j)] for i, j in pair.members],
                "components_free": pair.components_free,
            }
        )
        if not pair.components_free:
            conjecture1.append(
                f"({'|'.join(names(pair.comp_i))}) vs ({'|'.join(names(pair.comp_j))}): "
                "members exist but the full components are not free"
            )
        conjecture2.extend(
            f"({'|'.join(names(i))}) vs ({'|'.join(names(j))}): no one-node extension"
            for i, j in pair.stranded
        )
    skipped_reports = [{"comp_i": names(k1), "comp_j": names(k2)} for k1, k2 in skipped]
    return pair_reports, conjecture1, conjecture2, skipped_reports


def _broad_summary(counter1: list[str], counter2: list[str], skipped: int) -> str:
    parts = [
        f"{len(found)} Conjecture {k} counterexamples" if found else f"no Conjecture {k} counterexample"
        for k, found in ((1, counter1), (2, counter2))
    ]
    parts.append(
        f"{skipped} component pairs over the subset-search budget skipped"
        if skipped
        else "no component pair over the subset-search budget"
    )
    return "; ".join(parts)


def _broad_exit_code(skipped: int) -> int:
    """Exit code of a broad scan: a budget failure when any pair went unsearched."""
    if not skipped:
        return EXIT_OK
    print(
        f"error: {skipped} component pairs exceed the subset-search budget; "
        "the report lists them as skipped",
        file=sys.stderr,
    )
    return EXIT_BUDGET


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.input == "random":
        # A chain of fewer than two nodes has no pair to compare.
        for flag, value, least in (("--samples", args.samples, 1), ("--nodes", args.nodes, 2)):
            if value < least:
                raise InvalidArgumentError(f"{flag} must be at least {least}, got {value}")
        rng = random.Random(args.seed)
        counter1: list[str] = []
        counter2: list[str] = []
        pairs_with_members = 0
        pairs_skipped = 0
        for _ in range(args.samples):
            c = _random_chain(rng, args.nodes)
            if args.mode == "cuts":
                _, agreed = _oracle_cuts(c)
                if not agreed:
                    counter1.append(emit_document(c, "counterexample").to_json())
                continue
            reports, c1_bad, c2_bad, skipped = _broad_findings(c)
            pairs_with_members += len(reports)
            pairs_skipped += len(skipped)
            counter1.extend(c1_bad)
            counter2.extend(c2_bad)
        if args.mode == "cuts":
            summary = "no sourced-cut mismatch" if not counter1 else f"{len(counter1)} mismatches"
        else:
            summary = _broad_summary(counter1, counter2, pairs_skipped)
        report = {
            "mode": args.mode,
            "samples": args.samples,
            "nodes": args.nodes,
            "seed": args.seed,
            "pairs_with_members": pairs_with_members,
            "pairs_skipped": pairs_skipped,
            "findings": {"conjecture1": counter1, "conjecture2": counter2},
            "summary": summary,
        }
        _write_json(report, args.out)
        if args.mode == "cuts":
            return EXIT_FAILURE if counter1 else EXIT_OK
        return _broad_exit_code(pairs_skipped)
    _, c, _ = _load(args.input)
    if args.mode == "cuts":
        report, agreed = _oracle_cuts(c)
        _write_json(report, args.out)
        return EXIT_OK if agreed else EXIT_FAILURE
    reports, c1_bad, c2_bad, skipped = _broad_findings(c)
    report = {
        "mode": "broad",
        "pairs": reports,
        "skipped": skipped,
        "findings": {"conjecture1": c1_bad, "conjecture2": c2_bad},
        "summary": _broad_summary(c1_bad, c2_bad, len(skipped)),
    }
    _write_json(report, args.out)
    return _broad_exit_code(len(skipped))


# ---- export ----


def _dot_id(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_node(label: str) -> str:
    if label.startswith("bar") and len(label) > 3:
        return f"{_dot_id(label)} [label=<<O>{label[3:]}</O>>];"
    return f"{_dot_id(label)};"


def cmd_export(args: argparse.Namespace) -> int:
    if args.annotate < 0:
        raise InvalidArgumentError(f"--annotate must be nonnegative, got {args.annotate}")
    doc, c, _ = _load(args.input)
    labels = c.graph.labels
    lines = [f"digraph {_dot_id(doc.name or 'chain')} {{", "  rankdir=LR;", "  node [shape=circle];"]
    if args.annotate >= 1:
        c1 = cut_graph(c)
        for k, comp in enumerate(c1.components):
            lines.append(f"  subgraph cluster_{k} {{")
            lines.append("    style=dashed; color=gray;")
            for lab in sorted(labels[v] for v in comp):
                lines.append("    " + _dot_node(lab))
            lines.append("  }")
    else:
        for lab in sorted(labels):
            lines.append("  " + _dot_node(lab))
    for a, b in sorted((labels[u], labels[v]) for u, v in c.graph.edge_list):
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
    if args.annotate >= 1:
        for a, b in sorted(_label_pair(c, u, v) for u, v in c1.edges):
            lines.append(
                f"  {_dot_id(a)} -> {_dot_id(b)} [dir=none, style=dashed, constraint=false, color=gray40];"
            )
    if args.annotate >= 2:
        for lv in higher_level_cut_graph(c, args.annotate, c1):
            for k, h in enumerate(lv.hyperedges):
                junction = f'"junction_{lv.level}_{k}"'
                lines.append(f"  {junction} [shape=point, width=0.08];")
                for v in sorted(h.cut.source_a | h.cut.source_b):
                    lines.append(
                        f"  {_dot_id(labels[v])} -> {junction} [dir=none, style=dotted, constraint=false];"
                    )
    lines.append("}")
    _write_text("\n".join(lines) + "\n", args.dot)
    return EXIT_OK


# ---- entry point ----


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodform",
        description="Structural product-form analysis of formal Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="emit the structural analysis report as JSON")
    p.add_argument("input", help="graph JSON document")
    p.add_argument("--max-level", type=int, default=1, help="deepest cut level to search")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="check every discovered identity numerically")
    p.add_argument("input", help="graph JSON document")
    p.add_argument("--seeds", type=int, default=20, help="number of random rate vectors")
    p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
    p.add_argument(
        "--fault",
        type=int,
        nargs="?",
        const=0,
        default=None,
        help="corrupt the k-th relation as a negative control",
    )
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a family instance as a graph document")
    p.add_argument("family", choices=sorted(f.value for f in Family))
    for flag, _ in _PARAM_FLAGS:
        p.add_argument(f"--{flag}", type=int, default=None)
    p.add_argument("--name", default=None, help="document name (default: family)")
    p.add_argument("--out", default=None, help="document path (default stdout)")
    p.add_argument(
        "--with-fixtures",
        action="store_true",
        help="also write pinned expectations next to --out",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle", help="brute-force checks and conjecture scans")
    p.add_argument("input", help="graph JSON document, or 'random' for sampled chains")
    p.add_argument("--mode", choices=("cuts", "broad"), default="cuts")
    p.add_argument("--nodes", type=int, default=6, help="node count for random mode")
    p.add_argument("--samples", type=int, default=200, help="sample count for random mode")
    p.add_argument("--seed", type=int, default=0, help="base seed for random mode")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export", help="render the chain (and overlays) as DOT")
    p.add_argument("input", help="graph JSON document")
    p.add_argument("--dot", default=None, help="DOT output path (default stdout)")
    p.add_argument(
        "--annotate",
        type=int,
        default=0,
        help="0 plain graph, 1 adds the first-level overlay, n adds junctions up to level n",
    )
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotStronglyConnectedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STRUCTURE
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidArgumentError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
