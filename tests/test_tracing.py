"""The benchmark's tracer still wraps, and restores, every name it patches.

``perfbench/tracing.py`` wraps functions where ``blockfactor.bench`` and
the other modules look them up, so renaming or dropping one of those
names breaks ``Tracer.install`` with a KeyError.  This imports the file
as it is and installs and uninstalls a tracer, and checks that every
import a module keeps only for the tracer (``# noqa: F401``) binds a
name the tracer patches there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import blockfactor
from blockfactor import bench

SOURCES = sorted(Path(blockfactor.__file__).parent.glob("*.py"))
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores_every_name(tracing):
    targets = {(owner, attr) for owner, attr, *_ in tracing._WRAPS}
    before = {key: key[0].__dict__[key[1]] for key in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), raw in before.items():
            assert owner.__dict__[attr] is not raw, attr
        assert bench.nmi(np.array([0, 1]), np.array([0, 1])) == 1.0
        assert [span[0] for span in tracer.spans] == ["metrics"]
    finally:
        tracer.uninstall()
    for (owner, attr), raw in before.items():
        assert owner.__dict__[attr] is raw, attr


def kept_imports(source: str) -> list[str]:
    """Names bound by the import statements of ``source`` marked ``# noqa: F401``."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
    ]


def test_kept_imports_reads_only_the_marked_statements():
    source = "from a import b, c as d  # noqa: F401\nfrom e import (\n    f,  # noqa: F401\n)\nimport g\n"
    assert kept_imports(source) == ["b", "d", "f"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_kept_import_is_a_name_the_tracer_patches(tracing, path):
    kept = kept_imports(path.read_text())
    if kept:  # importing __main__ would run the CLI
        module = importlib.import_module(f"blockfactor.{path.stem}")
        patched = {attr for owner, attr, *_ in tracing._WRAPS if owner is module}
        assert [name for name in kept if name not in patched] == []
