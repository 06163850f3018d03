"""Fixture loading and the data-directory override."""

import re

import numpy as np
import pytest

from blockfactor.datasets import DATASETS, data_dir, dolphins, karate, load_dataset, polblogs
from blockfactor.errors import InvalidInputError, MissingFixtureError
from blockfactor.graphs import _component_labels, degrees


DOLPHINS_GML = """graph [
  node [ id 10 label "A" value 0 ]
  node [ id 11 label "SN100" ]
  node [ id 12 label "B" value 1 ]
  node [ id 13 label "C" value 0 ]
  node [ id 14 label "D" value 1 ]
  node [ id 15 label "E" value 0 ]
  edge [ source 10 target 15 ]
  edge [ source 11 target 10 ]
  edge [ source 11 target 12 ]
  edge [ source 11 target 13 ]
  edge [ source 12 target 13 ]
  edge [ source 13 target 14 ]
]
"""


class TestKarate:
    def test_counts(self):
        g, labels = karate()
        assert g.n == 34
        assert g.num_edges == 78
        assert labels.shape == (34,)
        assert set(labels.tolist()) == {0, 1}

    def test_connected(self):
        g, _ = karate()
        assert np.unique(_component_labels(g)).size == 1
        assert degrees(g).min() >= 1


class TestDataDirOverride:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BLOCKFACTOR_DATA_DIR", str(tmp_path))
        assert data_dir() == tmp_path
        # karate falls back to the packaged copy
        g, _ = karate()
        assert g.n == 34

    def test_missing_fixture_message_names_fetch_script(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BLOCKFACTOR_DATA_DIR", str(tmp_path))
        with pytest.raises(MissingFixtureError, match="fetch_polblogs"):
            polblogs()

    def test_polblogs_pipeline_on_synthetic_fixture(self, monkeypatch, tmp_path):
        # exercise the symmetrize + LCC + label restriction path with a
        # small stand-in file pair
        monkeypatch.setenv("BLOCKFACTOR_DATA_DIR", str(tmp_path))
        (tmp_path / "polblogs_edges.txt").write_text(
            "0 1\n1 0\n1 2\n3 3\n4 5\n"
        )
        (tmp_path / "polblogs_labels.txt").write_text("0\n0\n1\n1\n0\n1\n")
        g, truth = polblogs()
        assert g.n == 3  # LCC of {0,1,2}; self loop dropped; (4,5) smaller
        assert truth.tolist() == [0, 0, 1]

    def test_dolphins_pipeline_on_synthetic_fixture(self, monkeypatch, tmp_path):
        # the unlabeled SN100 joined A-E to B-C-D; without it, B-C-D is
        # the largest component
        monkeypatch.setenv("BLOCKFACTOR_DATA_DIR", str(tmp_path))
        (tmp_path / "dolphins.gml").write_text(DOLPHINS_GML)
        g, truth = dolphins()
        assert g.node_names == ("B", "C", "D")
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]
        assert truth.tolist() == [1, 0, 1]

    def test_dolphins_fixture_without_node_values(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BLOCKFACTOR_DATA_DIR", str(tmp_path))
        (tmp_path / "dolphins.gml").write_text(re.sub(r" value \d", "", DOLPHINS_GML))
        with pytest.raises(MissingFixtureError, match="no ground-truth node values"):
            dolphins()

    def test_load_dataset_dispatch(self):
        g, labels = load_dataset("karate")
        assert g.n == labels.shape[0]
        with pytest.raises(ValueError):
            load_dataset("airports")

    def test_unknown_name_is_a_typed_error_listing_the_names(self):
        assert DATASETS == ("karate", "dolphins", "polblogs")
        with pytest.raises(InvalidInputError, match="'karate', 'dolphins', 'polblogs'"):
            load_dataset("airports")
