"""Property tests of the file readers, NMI and the solvers, run deterministically
(derandomized, a bounded number of examples, no example database)."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import blockfactor.io
from blockfactor.errors import BlockfactorError, GraphParseError
from blockfactor.factorization import SolverConfig, osntf, snmf
from blockfactor.graphs import MAX_NODES, Graph
from blockfactor.io import load_labels, parse_gml, read_edge_pairs, save_gml
from blockfactor.metrics import nmi

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


# ---- the edge-list and label readers against frozen copies of their line loops ----


def _utf8_lines(path):
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"{path} is not UTF-8 text: {exc}") from None


def _content_lines(path):
    for lineno, raw in enumerate(_utf8_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def reference_read_edge_pairs(path):
    ids = []
    for lineno, line in _content_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two integers, got {len(parts)} tokens", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer token in {parts!r}", line=lineno)
        if not (0 <= a < MAX_NODES and 0 <= b < MAX_NODES):
            raise GraphParseError(f"node id in ({a}, {b}) not in [0, {MAX_NODES})", line=lineno)
        ids += (a, b)
    return np.array(ids, dtype=np.int64).reshape(-1, 2)


def reference_load_labels(path):
    out = []
    for lineno, line in _content_lines(path):
        try:
            out.append(np.int64(int(line.split("\t")[-1])))
        except (ValueError, OverflowError):
            raise GraphParseError(f"label {line!r} is not a 64-bit integer", line=lineno)
    return np.array(out, dtype=np.int64)


def _outcome(reader, path):
    """What ``reader`` makes of ``path``: the array, or the parse error's line
    and message.  A warning that reaches the caller fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = reader(path)
        except GraphParseError as exc:
            return "error", exc.line, str(exc)
        finally:
            assert [str(w.message) for w in caught] == []
    assert out.dtype == np.int64
    return "array", out.shape, out.tolist()


def _assert_readers_match_their_loops(path, content):
    path.write_bytes(content)
    assert _outcome(read_edge_pairs, path) == _outcome(reference_read_edge_pairs, path)
    assert _outcome(load_labels, path) == _outcome(reference_load_labels, path)


BIG_IDS = [str(v).encode() for v in (-1, MAX_NODES - 1, MAX_NODES, 2**63 - 1, 2**63, -(2**63))]
# text that only the line loop reads: a digit numpy's parser does not know,
# a BOM, NUL, a code point above 255, and bytes that are not UTF-8
NOT_C_READABLE = ["١", "\ufeff", "\x00", "\U0009c6c0"]
BYTE_SOUP = st.lists(
    st.sampled_from(
        [c.encode() for c in "0123456789+-_#.\t\r\n\x0b\x0c\x1c\x85\xa0 "]
        + [c.encode() for c in NOT_C_READABLE] + [b"\xff", b"\xc3"] + BIG_IDS
    ),
    max_size=40,
).map(b"".join)
NUMBER = st.integers(0, 40).map(lambda i: str(i).encode())
ODD_TOKEN = st.sampled_from(BIG_IDS + [b"+7", b"-0", b"007", b"1_0", b"1.0", b"1e3", "١".encode()])
ASCII_GAP = st.sampled_from([b" ", b"\t", b"  ", b"\x0b", b"\x0c", b"\x1c"])
ODD_GAP = st.sampled_from(["\xa0".encode(), "\x85".encode()])
LINE_END = st.sampled_from([b"\n", b"\r\n", b"\r", b" # note\n", b"\n\n", b"\t\n"])


@st.composite
def token_rows(draw):
    """Rows of mostly one width.  Half the files hold only small numbers and
    ASCII whitespace, so that many are valid for one reader or the other."""
    plain, width = draw(st.booleans()), draw(st.integers(1, 3))
    token, gap = (NUMBER, ASCII_GAP) if plain else (NUMBER | ODD_TOKEN, ASCII_GAP | ODD_GAP)
    out = draw(st.sampled_from([b"", b"# header\n", b" "]))
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.sampled_from([width] * 6 + [1, 2, 3]))
        tokens = draw(st.lists(token, min_size=size, max_size=size))
        out += b"".join(tok + draw(gap) for tok in tokens[:-1]) + tokens[-1] + draw(LINE_END)
    return out


@DETERMINISTIC
@given(BYTE_SOUP | token_rows())
def test_readers_match_their_line_loops_on_fuzzed_bytes(tmp_path_factory, content):
    _assert_readers_match_their_loops(tmp_path_factory.getbasetemp() / "equivalence.txt", content)


@pytest.mark.parametrize(
    "content",
    [
        b"",
        b"# only a comment\n",
        b"1 2\n",
        b"0\n1\n2\n",
        b"0 1 2\n3 4 5\n",
        b"0 1\n2\n",
        b"-1 0\n",
        f"0 {MAX_NODES}\n".encode(),
        f"{MAX_NODES - 1} 0\n".encode(),
        f"{2**63} 0\n".encode(),
        f"{2**63}\n".encode(),
        b"3 # a 4\r\n\n -2\t\x0b5\r",
        "1\U0009c6c0 2\n".encode(),
        "0 1\n١ 2\n".encode(),
    ],
)
def test_readers_match_their_line_loops(tmp_path, content):
    _assert_readers_match_their_loops(tmp_path / "equivalence.txt", content)


def test_an_ascii_file_never_reaches_the_line_loop(tmp_path, monkeypatch):
    def no_loop(path):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(blockfactor.io, "_content_lines", no_loop)
    edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
    edges.write_text("# two edges\n0 1\r\n1\t2 # the second\n")
    labels.write_text("3\n-1\n")
    np.testing.assert_array_equal(read_edge_pairs(edges), [[0, 1], [1, 2]])
    np.testing.assert_array_equal(load_labels(labels), [3, -1])


def test_a_file_that_is_not_ascii_never_reaches_the_c_reader(tmp_path, monkeypatch):
    def no_c_reader(*args, **kwargs):
        raise AssertionError("numpy's reader ran")

    monkeypatch.setattr(np, "loadtxt", no_c_reader)
    path = tmp_path / "g.edges"
    path.write_text("0\xa01\n", encoding="utf-8")
    np.testing.assert_array_equal(read_edge_pairs(path), [[0, 1]])
    path.write_text("7\n\u0661\n", encoding="utf-8")
    np.testing.assert_array_equal(load_labels(path), [7, 1])


# ---- NMI ----------------------------------------------------------------------

PARTITION_PAIRS = st.integers(1, 30).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 4), min_size=n, max_size=n)] * 2)
)
RENAMING = st.lists(st.integers(0, 100), min_size=5, max_size=5, unique=True)


@DETERMINISTIC
@given(PARTITION_PAIRS, RENAMING, RENAMING)
def test_nmi_is_symmetric_bounded_and_blind_to_label_names(pair, rename_a, rename_b):
    a, b = np.array(pair[0]), np.array(pair[1])
    value = nmi(a, b)
    assert 0.0 <= value <= 1.0
    # the sums run in another order, so agreement is to rounding
    assert nmi(b, a) == pytest.approx(value, rel=0, abs=1e-12)
    assert nmi(np.array(rename_a)[a], np.array(rename_b)[b]) == pytest.approx(value, rel=0, abs=1e-12)


# ---- solvers ------------------------------------------------------------------

# magnitudes from zero and subnormal up to where the updates overflow
ENTRY = st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e8, 1e150, 1e300]) | st.floats(0, 10)


@st.composite
def solver_problems(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    a = np.array(draw(st.lists(ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
    x = np.triu(a) + np.triu(a, 1).T
    h0 = np.array(draw(st.lists(st.floats(1e-6, 10), min_size=n * k, max_size=n * k))).reshape(n, k)
    return (sp.csr_array(x) if draw(st.booleans()) else x), k, h0


@DETERMINISTIC
@given(solver_problems(), st.sampled_from([snmf, osntf]))
def test_solvers_return_finite_nonnegative_factors_or_a_typed_error(problem, solver):
    x, k, h0 = problem
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow is judged by the result
            f = solver(x, k, h0, SolverConfig(max_iters=40))
    except BlockfactorError:
        return
    for factor in (f.h, f.s if f.s is not None else f.h):
        assert np.isfinite(factor).all() and factor.min() >= 0
    assert np.isfinite(f.objective_trace).all()
