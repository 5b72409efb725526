"""The package's public surface: every public top-level name in
src/intrans is read by the package itself or by the acceptance suite, so
a definition that only its own unit tests call does not come back
unnoticed. The scan parses the source; it imports nothing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "intrans"

# Public names kept without such a reader, each with the reason.
ALLOWED = {
    "classify_triple": "the benchmark's tracer (perfbench/spans.py) wraps it",
    "mcmc_pair_transfer": "the benchmark's tracer (perfbench/spans.py) "
                          "wraps it",
    "ACTIVE_IMPL": "the benchmark records it as run provenance "
                   "(perfbench/run.py)",
}


def _reads(tree, imports):
    """The names a module reads: loaded names and attribute names, and
    with imports true the names it imports from other modules too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _public_definitions(tree):
    """Public top-level functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (name for name in targets if not name.startswith("_"))


def _unread_public_names():
    """(module, name) for each public name with no reader: no other
    module of the package (the re-exports of __init__ do not count), no
    use in its own module and nothing in tests/test_acceptance.py."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    # Within the package an import alone is not a read.
    read = set().union(*(_reads(tree, imports=False)
                         for tree in trees.values()))
    read |= _reads(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()), imports=True)
    return [(module, name) for module, tree in trees.items()
            for name in _public_definitions(tree) if name not in read]


def test_every_public_name_has_a_reader():
    unread = [(module, name) for module, name in _unread_public_names()
              if name not in ALLOWED]
    assert unread == [], (
        "public names read only by their own unit tests; delete them, move "
        "them to tests/oracles.py, or give a reason in ALLOWED")


def test_allowlist_names_only_unread_names():
    """An ALLOWED entry whose name gained a reader, or was deleted, goes."""
    unread = {name for _, name in _unread_public_names()}
    assert sorted(set(ALLOWED) - unread) == []
