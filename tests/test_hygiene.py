"""Source hygiene: no import that its module never reads, no private
module-level name of the package that the package never uses, no line
longer than 79 characters, and a package ``__all__`` that lists exactly
what the package imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dynkin_lab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """Names bound by the module's imports, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The strings of the module's __all__, in order."""
    return [e.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for e in node.value.elts]


def _reads(tree):
    """Names loaded anywhere in the module, and the strings of __all__."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} \
        | set(_exported(tree))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(node):
    """The module-level names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def _referenced(node):
    """Names read in a statement, bare or as an attribute of a module."""
    return ({n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_import_is_read():
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in PACKAGE + TESTS
              for tree in [_tree(path)]
              for name, line in _imported(tree)
              if name not in _reads(tree)]
    assert not unread, unread


def test_every_private_module_name_is_used_in_the_package():
    defined, used = {}, set()
    for path in PACKAGE:
        for node in _tree(path).body:
            names = _defined(node)
            for name in filter(_private, names):
                defined[name] = f"{path.name}:{node.lineno}"
            # a name read only inside its own definition is still unused
            used |= _referenced(node) - names
    unused = sorted(f"{where}: {name}" for name, where in defined.items()
                    if name not in used)
    assert not unused, unused


def test_no_line_is_longer_than_79_characters():
    long = [f"{path.relative_to(ROOT)}:{n}: {len(line)}"
            for path in PACKAGE + TESTS
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert not long, long


def test_all_lists_exactly_the_imported_names():
    tree = _tree(ROOT / "src" / "dynkin_lab" / "__init__.py")
    exported = _exported(tree)
    assert len(exported) == len(set(exported))
    assert set(exported) == {name for name, _ in _imported(tree)}
