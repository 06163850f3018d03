"""Benchmark dataset fixtures: karate (bundled), dolphins and political blogs
(fetched by the scripts under scripts/, see MissingFixtureError messages)."""

import os
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, MissingFixtureError
from .graphs import Graph, induced_subgraph, largest_connected_component, symmetrize_directed
from .io import load_gml, load_labels, read_edge_pairs

__all__ = ["data_dir", "karate", "dolphins", "polblogs", "load_dataset", "DATASETS"]

_PACKAGE_DATA = Path(__file__).parent / "data"


def data_dir() -> Path:
    """Fixture directory; BLOCKFACTOR_DATA_DIR overrides the packaged one."""
    override = os.environ.get("BLOCKFACTOR_DATA_DIR")
    return Path(override) if override else _PACKAGE_DATA


def _fixture_path(filename: str, fetch_hint: str) -> Path:
    path = data_dir() / filename
    if not path.exists():
        packaged = _PACKAGE_DATA / filename
        if packaged.exists():
            return packaged
        raise MissingFixtureError(
            f"{filename} not found in {data_dir()} (or the packaged data directory). "
            f"{fetch_hint} Set BLOCKFACTOR_DATA_DIR to point at a directory that "
            "already holds the file if it lives elsewhere."
        )
    return path


def karate() -> tuple[Graph, np.ndarray]:
    """Zachary karate club (34 nodes, 78 edges) with faction-alignment labels."""
    return load_gml(_fixture_path("karate.gml", "The file ships with the package."))


def dolphins() -> tuple[Graph, np.ndarray]:
    """Doubtful Sound dolphin network restricted to the 61 labeled animals.

    The fixture must carry the published two-group split as node values
    (the departed dolphin SN100 stays unlabeled and is dropped here).
    """
    path = _fixture_path(
        "dolphins.gml",
        "Run scripts/fetch_dolphins.py on a machine with internet access to "
        "build it from the canonical release plus the published split.",
    )
    g, labels = load_gml(path)
    if labels is None:
        raise MissingFixtureError(
            f"{path} has no ground-truth node values; rebuild it with "
            "scripts/fetch_dolphins.py so the two-group split is encoded."
        )
    labeled = np.flatnonzero(labels >= 0)
    g_lcc, kept = largest_connected_component(induced_subgraph(g, labeled))
    return g_lcc, labels[labeled[kept]]


def polblogs() -> tuple[Graph, np.ndarray]:
    """Political blogs hyperlink network: symmetrized largest component.

    Built from the raw directed edge list plus per-node 0/1 leanings; an
    edge joins two blogs if a hyperlink exists in either direction.
    """
    hint = "Run scripts/fetch_polblogs.py on a machine with internet access."
    edges_path, labels_path = (_fixture_path(f"polblogs_{part}.txt", hint) for part in ("edges", "labels"))
    labels = load_labels(labels_path)
    g = symmetrize_directed(read_edge_pairs(edges_path), n=labels.shape[0])
    g_lcc, kept = largest_connected_component(g)
    return g_lcc, labels[kept]


_LOADERS = {"karate": karate, "dolphins": dolphins, "polblogs": polblogs}
DATASETS = tuple(_LOADERS)


def load_dataset(name: str) -> tuple[Graph, np.ndarray]:
    """Dataset by name, preprocessed the way the benchmark tables expect."""
    if name not in _LOADERS:
        raise InvalidInputError(f"unknown dataset {name!r}; choose from {DATASETS}")
    return _LOADERS[name]()
