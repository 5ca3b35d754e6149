"""Every public name of the package must have a caller besides its own unit tests.

A public module-level name, or a public method of a module-level class,
defined in ``src/prodform`` counts as used when an identifier names it outside
its own definition in one of these places:

- the package's modules, apart from ``__init__``'s re-exports;
- the benchmark in ``perfbench/``, together with the functions of the
  per-layer rows it traces (read from ``perfbench/run.py`` as
  ``tests/test_traced_layers.py`` reads them);
- the acceptance gate, ``tests/test_acceptance.py``;
- README's library example.

Names are matched by identifier alone, so a method counts as used wherever an
attribute of that name is read.
"""
from __future__ import annotations

import ast
from pathlib import Path

from util import readme_library_example, traced_rows

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "prodform"

# Names kept without a caller because an open ROADMAP item will call them.
_ALLOWED = {
    "compose_ps",  # ROADMAP item 3: the certificate composes relations along cut-graph paths
    "clique_territory_cut",  # ROADMAP item 6: `explain` gives a clique pair's territory cut
}


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Public module-level names and public methods of module-level classes, with their nodes."""
    found: list[tuple[str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return [(name, node) for name, node in found if not name.rsplit(".", 1)[-1].startswith("_")]


def _references(tree: ast.AST, refs: dict[str, list[frozenset[int]]], inside: frozenset[int] = frozenset()) -> None:
    """Record each identifier under ``tree`` with the ids of the definitions that enclose it."""
    for child in ast.iter_child_nodes(tree):
        name = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.alias):
            name = child.name
        if name is not None:
            refs.setdefault(name, []).append(inside)
        enclosing = inside
        if isinstance(child, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)):
            enclosing = inside | {id(child)}
        _references(child, refs, enclosing)


def _unreferenced() -> list[str]:
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(_PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    others = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((_ROOT / "perfbench").glob("*.py")) + [_ROOT / "tests" / "test_acceptance.py"]
    ]
    others.append(ast.parse(readme_library_example()))
    refs: dict[str, list[frozenset[int]]] = {}
    for tree in [*modules.values(), *others]:
        _references(tree, refs)
    for row in traced_rows():
        if row.count(".") == 2:
            refs.setdefault(row.split(".")[1], []).append(frozenset())
    missing = []
    for stem, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in _ALLOWED:
                continue
            if not any(id(node) not in inside for inside in refs.get(name, [])):
                missing.append(f"{stem}.{qualname}")
    return missing


def test_definitions_are_read():
    tree = ast.parse((_PACKAGE / "graph_core.py").read_text(encoding="utf-8"))
    names = {name for name, _ in _definitions(tree)}
    assert {"NodeSet", "NodeSet.of", "DirectedGraph.n", "ancestors_avoiding"} <= names
    assert not any(name.startswith("_") or "._" in name for name in names)


def test_a_self_reference_is_not_a_caller():
    tree = ast.parse("def f(x):\n    return f(x - 1)\n\ndef g():\n    return 0\n\nh = g()\n")
    refs: dict[str, list[frozenset[int]]] = {}
    _references(tree, refs)
    defs = dict(_definitions(tree))
    assert not any(id(defs["f"]) not in inside for inside in refs["f"])
    assert any(id(defs["g"]) not in inside for inside in refs["g"])


def test_every_public_name_has_a_caller():
    assert _unreferenced() == []
