"""Every exported name exists, so a deletion cannot leave a stale ``__all__``
entry, and every imported name is used or exported, so a move cannot leave
a stale import behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blockfactor

MODULES = ["blockfactor"] + [
    f"blockfactor.{info.name}" for info in pkgutil.iter_modules(blockfactor.__path__) if info.name != "__main__"
]
SOURCES = sorted(Path(blockfactor.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in ``source`` that no expression
    reads and ``__all__`` does not list.  An import statement with
    ``# noqa: F401`` on one of its lines binds a name kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["os (line 1)"]),
    ("from a import b, c as d\nd()\n", ["b (line 1)"]),
    ("import a.b\na.b.c()\n", []),
    ('from a import b\n__all__ = ["b"]\n', []),
    ("from a import b  # noqa: F401\n", []),
    ("def f():\n    from a import b\n    return 1\n", ["b (line 2)"]),
], ids=["module", "from", "dotted", "exported", "noqa", "in a function"])
def test_unused_imports_finds_each_kind(source, expected):
    assert unused_imports(source) == expected
