"""The benchmark's tracer still wraps, and restores, every name it patches.

``perfbench/tracing.py`` wraps functions where ``blockfactor.bench`` and
the other modules look them up, so renaming or dropping one of those
names breaks ``Tracer.install`` with a KeyError.  This imports the file
as it is and installs and uninstalls a tracer.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from blockfactor import bench

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
