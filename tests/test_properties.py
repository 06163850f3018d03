"""Property tests of the file readers, run deterministically (derandomized,
a bounded number of examples, no example database)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfactor.blockmodels import load_params
from blockfactor.errors import BlockfactorError, InvalidInputError
from blockfactor.graphs import Graph
from blockfactor.io import load_labels, parse_gml, read_edge_pairs, save_gml

DETERMINISTIC = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# the keys, blocks and values a GML file is made of, and near misses
GML_KEYS = ["id", "source", "target", "value", "label", "directed", "Creator", "x"]
GML_VALUES = [
    "0", "1", "2", "-1", "1.7", "1e400", "-1e400", "nan", "9" * 30, '"a"', '"a b"', '""', "x", "[", "]"
]
GML_SOUP = st.lists(
    st.sampled_from(["graph [", "node [", "edge [", "]", '"', "\n"])
    | st.tuples(st.sampled_from(GML_KEYS), st.sampled_from(GML_VALUES)).map(" ".join),
    max_size=30,
)


@DETERMINISTIC
@given(GML_SOUP)
def test_gml_token_soup_raises_only_typed_errors(tokens):
    try:
        g, labels = parse_gml(" ".join(tokens))
    except BlockfactorError:
        return
    assert labels is None or labels.shape == (g.n,)


@DETERMINISTIC
@given(st.binary(max_size=40) | st.text(st.sampled_from("0123456789 -_#\t\n\r\x00xé٣"), max_size=40))
def test_edge_list_and_label_readers_on_fuzzed_bytes_raise_only_typed_errors(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    for reader in (read_edge_pairs, load_labels):
        try:
            reader(path)
        except BlockfactorError:
            pass


# names the GML subset can hold: no '"', nothing str.splitlines breaks at,
# and no lone surrogate, which UTF-8 cannot encode
NAME = st.text(
    st.characters(
        exclude_categories=("Cs",), exclude_characters='"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'
    ),
    max_size=6,
)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    g = Graph.from_edges(n, [(i, j) for i, j in pairs if i != j], draw(st.lists(NAME, min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)))
    return g, labels


@DETERMINISTIC
@given(labeled_graphs())
def test_save_gml_then_parse_keeps_edges_names_and_labels(tmp_path_factory, case):
    g, labels = case
    path = tmp_path_factory.getbasetemp() / "roundtrip.gml"
    save_gml(g, path, labels)
    back, back_labels = parse_gml(path.read_text(encoding="utf-8"))
    assert back == g
    if (labels < 0).all():
        assert back_labels is None
    else:
        assert back_labels.tolist() == labels.tolist()


MALFORMED_PARAMS = {
    "not JSON": "{",
    "a JSON array": "[1, 2]",
    "no model": json.dumps({"z": [0, 1], "b": [[0.5, 0.1], [0.1, 0.5]]}),
    "an unknown model": json.dumps({"model": "mmsb", "z": [0, 1]}),
    "a missing field": json.dumps({"model": "dcsbm", "z": [0, 1], "b_prime": [[1.0]]}),
    "an unknown field": json.dumps({"model": "sbm", "z": [0], "b": [[0.5]], "c": 1}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PARAMS))
def test_load_params_rejects_malformed_file(tmp_path, case):
    path = tmp_path / "params.json"
    path.write_text(MALFORMED_PARAMS[case])
    with pytest.raises(InvalidInputError, match="not a block-model file"):
        load_params(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
PARAM_DOCS = st.dictionaries(
    st.sampled_from(["model", "z", "b", "b_prime", "theta", "x"]),
    st.sampled_from(["sbm", "dcsbm"]) | JSON_VALUES,
    max_size=5,
)


@DETERMINISTIC
@given(PARAM_DOCS | JSON_VALUES)
def test_load_params_raises_only_invalid_input(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed_params.json"
    path.write_text(json.dumps(doc))
    try:
        load_params(path)
    except InvalidInputError:
        pass
