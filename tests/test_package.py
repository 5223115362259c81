"""The public surface: every exported name exists, and no import is unused."""

import ast
import pathlib

import infinitebin

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(infinitebin.__all__)) == len(infinitebin.__all__)
    for name in infinitebin.__all__:
        assert hasattr(infinitebin, name), name
    namespace: dict = {}
    exec("from infinitebin import *", namespace)
    assert set(infinitebin.__all__) <= namespace.keys()


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never read, except those listed in
    ``__all__`` and ``from __future__`` features."""
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    unused = []
    for folder in ("src/infinitebin", "tests", "demos", ".github"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                       for line, name in _unused_imports(tree)]
    assert not unused, "imported but never read:\n" + "\n".join(unused)
