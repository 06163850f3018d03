"""Every exported name exists, so a deletion cannot leave a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import blockfactor

MODULES = ["blockfactor"] + [
    f"blockfactor.{info.name}" for info in pkgutil.iter_modules(blockfactor.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
