"""The package's public surface: every public top-level name in
src/intrans, every public method or property of a public class, every
field of a public dataclass, and every defaulted parameter of a public
function or method is used by the package itself or by the acceptance
suite. So a definition, a member, a field or an option that only its
own unit tests reach does not come back unnoticed, and no module imports
scipy. The scans parse the source; they import nothing. One more
test imports the package in a fresh interpreter, to check that the
experiment families are registered by the package import alone."""

import ast
import os
import subprocess
import sys
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

# Defaulted parameters ("function.parameter") no call passes, each with
# the reason.
ALLOWED_DEFAULTS = {
    "main.argv": "the benchmark (perfbench/run.py) and the CLI tests drive "
                 "main(argv) in-process",
}

# Public members ("Class.member") nothing reads, each with the reason.
ALLOWED_MEMBERS = {
    "ExperimentSpec.from_json": "the README documents its strict loading "
                                "of a to_json text",
}

# Members that must stay deleted although a scan by name cannot see that
# nothing reads them, because other classes define a member of the same
# name that is read; each with the reason.
ABSENT_MEMBERS = {
    "DiscreteConditioned.cdf": "lattice dice are scored from their face "
                               "histograms, so the dice kernel never reads "
                               "their CDF; model.cdf reads the other three "
                               "models' cdf",
}


def _package_trees():
    """The parsed modules of the package, except the re-exporting
    __init__, by module name."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _acceptance_tree():
    return ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())


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


def _public_members(tree):
    """(class, method) for each public method, property or classmethod
    of a public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield node, item


def _public_fields(tree):
    """(class, field) for each public annotated field of a public
    top-level dataclass."""
    for node in tree.body:
        if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and any(getattr(getattr(d, "func", d), "id", None)
                        == "dataclass" for d in node.decorator_list)):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    yield node, item.target.id


def _public_functions(tree):
    """(name, function, leading) for each public top-level function and
    public member; leading is the count of arguments a call does not
    pass by position (self or cls of a member)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith(
                "_"):
            yield node.name, node, 0
    for cls, member in _public_members(tree):
        yield "%s.%s" % (cls.name, member.name), member, 1


def _unread_public_names():
    """(module, name) for each public name with no reader: no other
    module of the package (the re-exports of __init__ do not count), no
    use in its own module and nothing in tests/test_acceptance.py."""
    trees = _package_trees()
    # Within the package an import alone is not a read.
    read = set().union(*(_reads(tree, imports=False)
                         for tree in trees.values()))
    read |= _reads(_acceptance_tree(), imports=True)
    return [(module, name) for module, tree in trees.items()
            for name in _public_definitions(tree) if name not in read]


def _unpassed_defaults():
    """"function.parameter" for each defaulted parameter of a public
    function or member that no call in the package or in
    tests/test_acceptance.py passes, by keyword or by position. A call
    matches by the called name alone; a *args or **kwargs argument
    passes every parameter."""
    trees = _package_trees()
    calls = {}
    for tree in [*trees.values(), _acceptance_tree()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passed(call, index, param):
        """Whether call passes param, at position index (None for a
        keyword-only parameter)."""
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or (index is not None and len(call.args) > index)
                or any(k.arg in (param, None) for k in call.keywords))

    unpassed = []
    for tree in trees.values():
        for name, func, leading in _public_functions(tree):
            args = func.args
            positional = [*args.posonlyargs, *args.args][leading:]
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            sites = calls.get(func.name, [])
            unpassed += ["%s.%s" % (name, param)
                         for index, param in defaulted
                         if not any(passed(call, index, param)
                                    for call in sites)]
    return unpassed


def _unread_members():
    """"Class.member" for each public member or dataclass field whose
    name no module of the package and nothing in tests/test_acceptance.py
    reads as an attribute, and for each member of ABSENT_MEMBERS that is
    defined."""
    trees = _package_trees()
    read = set()
    for tree in [*trees.values(), _acceptance_tree()]:
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    members = [(cls.name, member.name) for tree in trees.values()
               for cls, member in _public_members(tree)]
    members += [(cls.name, field) for tree in trees.values()
                for cls, field in _public_fields(tree)]
    return ["%s.%s" % (cls, name) for cls, name in members
            if name not in read or "%s.%s" % (cls, name) in ABSENT_MEMBERS]


def test_every_public_name_has_a_reader():
    unread = [(module, name) for module, name in _unread_public_names()
              if name not in ALLOWED]
    assert unread == [], (
        "public names read only by their own unit tests; delete them, move "
        "them to tests/oracles.py, or give a reason in ALLOWED")


def test_every_default_is_passed_by_some_call():
    unpassed = [p for p in _unpassed_defaults() if p not in ALLOWED_DEFAULTS]
    assert unpassed == [], (
        "defaulted parameters only unit tests set; make each a module "
        "constant, or give a reason in ALLOWED_DEFAULTS")


def test_every_public_member_has_a_reader():
    unread = [m for m in _unread_members() if m not in ALLOWED_MEMBERS]
    assert unread == [], (
        "public members or dataclass fields read only by their own unit "
        "tests; delete them, or give a reason in ALLOWED_MEMBERS")


def test_allowlist_names_only_unread_names():
    """An allowlist entry whose name gained a reader, or was deleted,
    goes."""
    unread = {name for _, name in _unread_public_names()}
    assert sorted(set(ALLOWED) - unread) == []
    assert sorted(set(ALLOWED_DEFAULTS) - set(_unpassed_defaults())) == []
    assert sorted(set(ALLOWED_MEMBERS) - set(_unread_members())) == []


def test_no_package_module_imports_scipy():
    """numpy is the package's one runtime dependency; scipy is for the
    tests."""
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert imported
    assert sorted(item for item in imported
                  if item[1].split(".")[0] == "scipy") == []


def test_the_package_import_registers_the_families():
    """Importing one module loads the package, whose __init__ registers
    every experiment family: a fresh interpreter can build a dice_triples
    spec with nothing else imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = ("from intrans.mc import ExperimentSpec; "
            "ExperimentSpec('dice_triples', {'n': 4}, 10, 1)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
