"""Command-line front end: graph ingestion, analysis reports, DOT, and oracles.

Commands share one JSON graph schema (nodes, directed edges, optional rates) so
the same document feeds structural analysis, numeric verification, and export.
Exit codes are stable: 0 success, 1 verification/equivalence failure, 2 input
error, 3 structural error, 4 budget exceeded; a document that is not UTF-8
text or nests too deeply to parse is an input error. ``main`` builds only the
invoked command's argument parser, and all five when the first argument names
none. Reports list every node set, whatever its size, as its sorted labels.
The ``analyze`` report writes each distinct factor once, in a ``factors``
table that relation rows index, and only side A of a hyperedge's cut.
``verify`` reports ``numeric.check``'s rows: every relation, and each cut of
level 2 and up named by its level and sources. ``generate`` writes only the
chain document. ``oracle --mode cuts`` writes only side A of each cut, and
``oracle random --mode cuts`` refuses ``--nodes`` over the oracle's budget
before it draws a chain.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import reprlib
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    InvalidArgumentError,
    NotStronglyConnectedError,
    NumericError,
    ResourceLimitError,
    check_budget,
)
from .factors import Relation, relations_to_json
from .graph_core import DirectedGraph
from .higher_level import Analysis, analyze, broad_pair_scan, higher_level_cut_graph
from .models import Family, ModelSpec, parameter_names
from .models import generate as generate_model
from .numeric import RateAssignment, check, enumerate_sourced_cuts
from .numeric import random_rates, rate_assignment
from .product_form import ChainKind, FormalChain, _free_crossings, cut_graph

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
        """The document without its rates."""
        return {
            "name": self.name,
            "kind": self.kind,
            "nodes": list(self.nodes),
            "edges": [{"from": src, "to": dst} for src, dst in self.edges],
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
    except RecursionError:
        raise InvalidArgumentError("parse error: the document nests too deeply") from None
    if not isinstance(raw, dict):
        raise InvalidArgumentError("document must be a JSON object")
    name = raw.get("name", "")
    kind = raw.get("kind", "ctmc")
    if not isinstance(name, str):
        raise InvalidArgumentError("name must be a string")
    if kind not in ("ctmc", "dtmc"):
        raise InvalidArgumentError(f"kind must be 'ctmc' or 'dtmc', got {reprlib.repr(kind)}")
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
            raise InvalidArgumentError(f"malformed edge entry: {reprlib.repr(entry)}")
        if not isinstance(entry["from"], str) or not isinstance(entry["to"], str):
            raise InvalidArgumentError(f"edge endpoints must be label strings: {reprlib.repr(entry)}")
        edges.append((entry["from"], entry["to"]))
        if "rate" in entry:
            value = entry["rate"]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidArgumentError(f"edge rate must be a number, got {reprlib.repr(value)}")
            try:
                rates.append(float(value))
            except OverflowError:
                # reprlib shortens a long label; its quotes are dropped.
                a, b = (reprlib.repr(entry[key])[1:-1] for key in ("from", "to"))
                raise InvalidArgumentError(f"rate of edge {a}->{b} overflows a float") from None
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
    c = FormalChain(g, ChainKind(doc.kind))
    if doc.rates is None:
        return c, None
    values = {
        (g.index_of[a], g.index_of[b]): rate for (a, b), rate in zip(doc.edges, doc.rates)
    }
    return c, rate_assignment(c, values)


def emit_document(c: FormalChain, name: str) -> GraphDocument:
    """Serialize a chain, without rates, with lexicographically normalized node order."""
    g = c.graph
    nodes = tuple(sorted(g.labels))
    edges = tuple(sorted((g.labels[a], g.labels[b]) for a, b in g.edge_list))
    return GraphDocument(name=name, kind=c.kind.value, nodes=nodes, edges=edges, rates=None)


def _load(path: str) -> tuple[GraphDocument, FormalChain, RateAssignment | None]:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    doc = parse_document(text)
    c, rates = document_to_chain(doc)
    return doc, c, rates


def _json_text(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` byte for byte, one ``str.join`` per container.

    Every value is rendered where it stands, with no cache: a report that shares
    a value writes it once in a table and refers to it by index, as ``analyze``
    does with its factors.
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


def _names(labels: Sequence[str], nodes: Iterable[int]) -> list[str]:
    """The sorted labels of node indices: a pair, a component or a cut side."""
    return sorted(labels[v] for v in nodes)


def _report_body(c: FormalChain, found: Analysis) -> dict:
    """The ``factors``, ``first_level`` and ``levels`` entries of the analyze report."""
    labels = c.graph.labels
    first_count = len(found.pairs)
    factors, relations = relations_to_json(found.relations, labels)
    first_level = {
        "edges": [_names(labels, pair) for pair in found.pairs],
        "components": [_names(labels, comp) for comp in found.components],
        "relations": relations[:first_count],
    }
    levels = []
    for lv in found.higher:
        entry = {
            "level": lv.level,
            "hyperedges": [
                {
                    "source_i": _names(labels, h.cut.source_a),
                    "source_j": _names(labels, h.cut.source_b),
                    "cut_a": _names(labels, h.cut.side_a),
                }
                for h in lv.hyperedges
            ],
            "components": [_names(labels, comp) for comp in lv.components],
        }
        if lv.level == 2:
            entry["relations"] = relations[first_count:]
        levels.append(entry)
    return {"factors": factors, "first_level": first_level, "levels": levels}


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
    relations = found.relations
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
    relation_worst, cut_worst = check(c, found, [rates for _, rates in assignments])
    overall = max(relation_worst + cut_worst, default=0.0)
    cut_rows = iter(cut_worst)
    report = {
        "name": doc.name,
        "assignments": [name for name, _ in assignments],
        "tolerance": args.tol,
        "relations": [
            {
                "lhs": labels[r.lhs_node],
                "rhs": labels[r.rhs_node],
                "level": r.level.name,
                "worst_residual": worst,
            }
            for r, worst in zip(relations, relation_worst)
        ],
        # Named as analyze names its hyperedges, in the order ``check`` gives their residuals.
        "cuts": [
            {
                "level": lv.level,
                "source_i": _names(labels, h.cut.source_a),
                "source_j": _names(labels, h.cut.source_b),
                "worst_residual": next(cut_rows),
            }
            for lv in found.higher
            for h in lv.hyperedges
        ],
        "max_residual": overall,
        "fault": fault_name,
        "pass": overall <= args.tol,
    }
    _write_json(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_FAILURE


# ---- generate ----


def cmd_generate(args: argparse.Namespace) -> int:
    params = {k: getattr(args, k) for k in parameter_names() if getattr(args, k) is not None}
    c = generate_model(ModelSpec(Family(args.family), params))
    doc = emit_document(c, name=args.name or args.family)
    _write_json(doc.to_json(), args.out)
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
        try:
            return FormalChain(DirectedGraph(labels, edges))
        except NotStronglyConnectedError:
            pass


def _oracle_cuts(c: FormalChain) -> tuple[dict, bool]:
    """The brute-force cuts against the scan's level-1 pairs and crossing edges."""
    g = c.graph
    labels = g.labels
    brute = enumerate_sourced_cuts(c)
    out = g.out_mask
    crossed = {
        (i, j): (out[i] & ~cut.side_a.mask, out[j] & cut.side_a.mask) for (i, j), cut in brute.items()
    }
    scanned = {(i, j): (across_i, across_j) for i, j, across_i, across_j in _free_crossings(g)}
    # A wrong crossing names its pair in both lists.
    missing = sorted(_names(labels, pair) for pair, _ in crossed.items() - scanned.items())
    extra = sorted(_names(labels, pair) for pair, _ in scanned.items() - crossed.items())
    agreed = not missing and not extra
    report = {
        "mode": "cuts",
        "cuts": [
            {
                "pair": _names(labels, pair),
                "side_a": _names(labels, cut.side_a),
            }
            for pair, cut in sorted(brute.items(), key=lambda kv: _names(labels, kv[0]))
        ],
        "diff": {"missing": missing, "extra": extra},
        "match": agreed,
    }
    return report, agreed


def _broad_findings(c: FormalChain) -> tuple[list[dict], list[str], list[str], list[dict]]:
    """The broad scan's pair reports, conjecture findings and skipped pairs, by label."""
    labels = c.graph.labels
    found, skipped = broad_pair_scan(c)
    pair_reports: list[dict] = []
    conjecture1: list[str] = []
    conjecture2: list[str] = []
    for pair in found:
        comp_i, comp_j = _names(labels, pair.comp_i), _names(labels, pair.comp_j)
        pair_reports.append(
            {
                "comp_i": comp_i,
                "comp_j": comp_j,
                "members": [[_names(labels, i), _names(labels, j)] for i, j in pair.members],
                "components_free": pair.components_free,
            }
        )
        if not pair.components_free:
            conjecture1.append(
                f"({'|'.join(comp_i)}) vs ({'|'.join(comp_j)}): "
                "members exist but the full components are not free"
            )
        conjecture2.extend(
            f"({'|'.join(_names(labels, i))}) vs ({'|'.join(_names(labels, j))}): "
            "no one-node extension"
            for i, j in pair.stranded
        )
    skipped_reports = [
        {"comp_i": _names(labels, k1), "comp_j": _names(labels, k2)} for k1, k2 in skipped
    ]
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
    if args.input != "random":
        _, c, _ = _load(args.input)
        if args.mode == "cuts":
            report, agreed = _oracle_cuts(c)
            _write_json(report, args.out)
            return EXIT_OK if agreed else EXIT_FAILURE
        pairs, counter1, counter2, skipped = _broad_findings(c)
        report = {
            "mode": "broad",
            "pairs": pairs,
            "skipped": skipped,
            "findings": {"conjecture1": counter1, "conjecture2": counter2},
            "summary": _broad_summary(counter1, counter2, len(skipped)),
        }
        _write_json(report, args.out)
        return _broad_exit_code(len(skipped))
    # A chain of fewer than two nodes has no pair to compare.
    for flag, value, least in (("--samples", args.samples, 1), ("--nodes", args.nodes, 2)):
        if value < least:
            raise InvalidArgumentError(f"{flag} must be at least {least}, got {value}")
    # Refused before any chain is drawn: drawing one costs n^2 random numbers.
    if args.mode == "cuts":
        check_budget("exhaustive cut enumeration", args.nodes)
    rng = random.Random(args.seed)
    chains = (_random_chain(rng, args.nodes) for _ in range(args.samples))
    report = {"mode": args.mode, "samples": args.samples, "nodes": args.nodes, "seed": args.seed}
    if args.mode == "cuts":
        mismatches = [
            emit_document(c, "counterexample").to_json() for c in chains if not _oracle_cuts(c)[1]
        ]
        report["mismatches"] = mismatches
        report["summary"] = f"{len(mismatches)} mismatches" if mismatches else "no sourced-cut mismatch"
        _write_json(report, args.out)
        return EXIT_FAILURE if mismatches else EXIT_OK
    pairs_with_members = pairs_skipped = 0
    counter1, counter2 = [], []
    for pairs, c1_bad, c2_bad, skipped in map(_broad_findings, chains):
        pairs_with_members += len(pairs)
        pairs_skipped += len(skipped)
        counter1 += c1_bad
        counter2 += c2_bad
    report["pairs_with_members"] = pairs_with_members
    report["pairs_skipped"] = pairs_skipped
    report["findings"] = {"conjecture1": counter1, "conjecture2": counter2}
    report["summary"] = _broad_summary(counter1, counter2, pairs_skipped)
    _write_json(report, args.out)
    return _broad_exit_code(pairs_skipped)


# ---- export ----


def _dot_id(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_node(label: str) -> str:
    if label.startswith("bar") and len(label) > 3:
        # "&" goes first. html.escape would also load html.entities, about 0.5 MB.
        text = label[3:].replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return f"{_dot_id(label)} [label=<<O>{text}</O>>];"
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
            for lab in _names(labels, comp):
                lines.append("    " + _dot_node(lab))
            lines.append("  }")
    else:
        for lab in sorted(labels):
            lines.append("  " + _dot_node(lab))
    for a, b in sorted((labels[u], labels[v]) for u, v in c.graph.edge_list):
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
    if args.annotate >= 1:
        for a, b in sorted(_names(labels, e) for e in c1.edges):
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


# Each command's name and help line, in the order the top-level help lists them.
_COMMANDS = {
    "analyze": "emit the structural analysis report as JSON",
    "verify": "check every discovered identity numerically",
    "generate": "write a family instance as a graph document",
    "oracle": "brute-force checks and conjecture scans",
    "export": "render the chain (and overlays) as DOT",
}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser with only ``argv[0]``'s subparser, or with all five when it names no command."""
    parser = argparse.ArgumentParser(
        prog="prodform",
        description="Structural product-form analysis of formal Markov chains.",
    )
    built = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # With one subparser built, the metavar keeps every command in the top-level usage line.
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(built) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in built:
        p = sub.add_parser(name, help=_COMMANDS[name])
        # Each cmd_* is read from the module now, so a wrapped or swapped one is the one that runs.
        if name == "analyze":
            p.add_argument("input", help="graph JSON document")
            p.add_argument("--max-level", type=int, default=1, help="deepest cut level to search")
            p.add_argument("--out", default=None, help="report path (default stdout)")
            p.set_defaults(func=cmd_analyze)
        elif name == "verify":
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
        elif name == "generate":
            p.add_argument("family", choices=sorted(f.value for f in Family))
            for key in parameter_names():
                flag = "truncate" if key == "truncation" else key
                p.add_argument(f"--{flag}", dest=key, metavar=flag.upper(), type=int)
            p.add_argument("--name", default=None, help="document name (default: family)")
            p.add_argument("--out", default=None, help="document path (default stdout)")
            p.set_defaults(func=cmd_generate)
        elif name == "oracle":
            p.add_argument("input", help="graph JSON document, or 'random' for sampled chains")
            p.add_argument("--mode", choices=("cuts", "broad"), default="cuts")
            p.add_argument("--nodes", type=int, default=6, help="node count for random mode")
            p.add_argument("--samples", type=int, default=200, help="sample count for random mode")
            p.add_argument("--seed", type=int, default=0, help="base seed for random mode")
            p.add_argument("--out", default=None, help="report path (default stdout)")
            p.set_defaults(func=cmd_oracle)
        else:  # export
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
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
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
