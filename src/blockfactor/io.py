"""Graph file ingestion: whitespace edge lists and a small GML subset."""

import re
import warnings
from io import TextIOWrapper
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import GraphParseError, InvalidInputError, integer_array, is_integer
from .graphs import MAX_NODES, Graph, symmetrize_directed

__all__ = [
    "load_graph",
    "load_edgelist",
    "save_edgelist",
    "read_edge_pairs",
    "parse_gml_items",
    "parse_gml",
    "load_gml",
    "save_gml",
    "load_labels",
    "format_labels",
    "save_labels",
]

PathLike = Union[str, Path]


def _utf8_lines(path: PathLike):
    """The lines of a text file; bytes that are not UTF-8 raise GraphParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"{path} is not UTF-8 text: {exc}") from None


def _content_lines(path: PathLike):
    """(line number, text) of each line of ``path`` with any `#` comment cut
    off and surrounding whitespace stripped; blank results are skipped."""
    for lineno, raw in enumerate(_utf8_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _c_reader_table(path: PathLike, columns: int) -> Optional[np.ndarray]:
    """The file as an int64 table of ``columns`` columns, parsed whole by
    numpy's C reader, or None when the line loop has to decide.  Only ASCII
    goes to numpy: its integer parser passes code points to C ``isdigit``,
    which reads out of bounds above 255 (it read "1\\U0009c6c02" as 6406662,
    and sometimes crashed).
    """
    with open(path, "rb") as raw:
        if not raw.read().isascii():
            return None
        raw.seek(0)
        with TextIOWrapper(raw, encoding="ascii") as text, warnings.catch_warnings():
            warnings.simplefilter("error")  # it warns on a file with no rows
            try:
                table = np.loadtxt(text, dtype=np.int64, comments="#", ndmin=2)
            except (ValueError, Warning):
                return None
    return table if table.shape[1] == columns else None


def read_edge_pairs(path: PathLike) -> np.ndarray:
    """Raw ordered integer pairs from a whitespace edge list, as an (m, 2)
    int64 array in file order.

    Lines are `i j` with ids in [0, ``graphs.MAX_NODES``); `#` starts a
    comment.  A malformed line raises GraphParseError with its line
    number.  No symmetrization or self-loop filtering happens here.

    numpy's C reader parses the file; the line loop below runs, and raises,
    only where that fails or finds an id out of range.
    """
    pairs = _c_reader_table(path, 2)
    if pairs is not None and pairs.min() >= 0 and pairs.max() < MAX_NODES:
        return pairs
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


def load_edgelist(path: PathLike) -> Graph:
    """Undirected simple graph from an edge list (node count = max id + 1).

    Self loops are dropped and duplicate/reciprocal pairs collapse, same
    as ``symmetrize_directed``.
    """
    return symmetrize_directed(read_edge_pairs(path))


def save_edgelist(g: Graph, path: PathLike) -> None:
    """One `i j` line per edge, i < j, sorted. Reloading recovers the edge set."""
    with open(path, "w") as fh:
        for i, j in g.edge_array.tolist():
            fh.write(f"{i} {j}\n")


# a string may span lines; a lone '"' is one that is never closed
_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]"]+|"')


def _tokenize_gml(text: str) -> list[tuple[str, int]]:
    tokens, lineno, last = [], 1, 0
    for m in _GML_TOKEN.finditer(text):
        lineno += text.count("\n", last, m.start())
        last, tok = m.start(), m.group(0)
        if tok == '"':
            raise GraphParseError("string has no closing '\"'", line=lineno)
        tokens.append((tok, lineno))
    return tokens


def _gml_scalar(val: str):
    if val.startswith('"'):
        return val[1:-1]
    for kind in (int, float):
        try:
            return kind(val)
        except ValueError:
            pass
    return val


def _parse_gml_list(tokens) -> list:
    """The top-level (key, value, line) items; a ``[ ... ]`` value is the list
    of its own items.  Open lists wait on an explicit stack, so no depth of
    nesting can exhaust Python's recursion limit."""
    items, stack = [], []  # stack: (enclosing items, key, key line, line of '[')
    tokens = iter(tokens)
    for tok, lineno in tokens:
        if tok == "]":
            if not stack:
                raise GraphParseError("']' closes no '['", line=lineno)
            outer, key, key_line, _ = stack.pop()
            outer.append((key, items, key_line))
            items = outer
            continue
        val, vline = next(tokens, ("]", lineno))
        if val == "]":
            raise GraphParseError(f"key {tok!r} has no value", line=vline)
        if val == "[":
            stack.append((items, tok, lineno, vline))
            items = []
        else:
            items.append((tok, _gml_scalar(val), lineno))
    if stack:
        raise GraphParseError("'[' is never closed", line=stack[-1][3])
    return items


def _gml_fields(block, ints) -> dict:
    """A parsed GML block's scalar fields, where each key in ``ints`` must hold a 64-bit integer."""
    scalars = [(key, val, lineno) for key, val, lineno in block if not isinstance(val, list)]
    for key, val, lineno in scalars:
        if key in ints and not (is_integer(val) and -(2**63) <= val < 2**63):
            raise GraphParseError(f"{key} must be a 64-bit integer, got {val!r}", line=lineno)
    return {key: val for key, val, _ in scalars}


def parse_gml_items(text: str) -> tuple[list[dict], list[tuple[int, int]], bool]:
    """Low-level GML read: node field dicts, raw edge pairs (in declaration
    order, re-indexed 0..n-1), and the directed flag.

    Unknown keys inside node/edge blocks are kept in the field dicts;
    unknown keys elsewhere are ignored.  Malformed text, such as an unclosed
    ``[`` or string or a non-integer id, raises GraphParseError with its line.
    """
    tokens = _tokenize_gml(text)
    items = _parse_gml_list(tokens)
    graph_item = next((v for k, v, _ in items if k == "graph" and isinstance(v, list)), None)
    if graph_item is None:
        raise GraphParseError("no 'graph [ ... ]' block found")

    id_to_index: dict[int, int] = {}
    nodes: list[dict] = []
    raw_edges: list[tuple[int, int, int]] = []

    directed = bool(_gml_fields(graph_item, ("directed",)).get("directed", 0))
    for key, val, lineno in graph_item:
        if key == "node" and isinstance(val, list):
            fields = _gml_fields(val, ("id", "value"))
            if "id" not in fields:
                raise GraphParseError("node block without id", line=lineno)
            nid = fields["id"]
            if nid in id_to_index:
                raise GraphParseError(f"duplicate node id {nid}", line=lineno)
            id_to_index[nid] = len(id_to_index)
            nodes.append(fields)
        elif key == "edge" and isinstance(val, list):
            fields = _gml_fields(val, ("source", "target"))
            if "source" not in fields or "target" not in fields:
                raise GraphParseError("edge block without source/target", line=lineno)
            raw_edges.append((fields["source"], fields["target"], lineno))

    pairs = []
    for src, tgt, lineno in raw_edges:
        if src not in id_to_index:
            raise GraphParseError(f"edge references undeclared node id {src}", line=lineno)
        if tgt not in id_to_index:
            raise GraphParseError(f"edge references undeclared node id {tgt}", line=lineno)
        pairs.append((id_to_index[src], id_to_index[tgt]))
    return nodes, pairs, directed


def parse_gml(text: str) -> tuple[Graph, Optional[np.ndarray]]:
    """Parse the node/edge/value GML subset used by the benchmark fixtures.

    Nodes are indexed in declaration order.  A per-node integer ``value``
    becomes the ground-truth label vector (-1 where missing); if no node
    carries one, labels are None.  Directed files are symmetrized; self
    loops are dropped.
    """
    nodes, pairs, _ = parse_gml_items(text)
    g = symmetrize_directed(pairs, n=len(nodes))
    if any("label" in f for f in nodes):
        names = tuple(str(f.get("label", f["id"])) for f in nodes)
        g = Graph(g.n, g.edge_array, names)
    labels = np.array([f.get("value", -1) for f in nodes], dtype=np.int64)
    return g, labels if any("value" in f for f in nodes) else None


def load_gml(path: PathLike) -> tuple[Graph, Optional[np.ndarray]]:
    return parse_gml("".join(_utf8_lines(path)))


def save_gml(g: Graph, path: PathLike, labels: Optional[np.ndarray] = None) -> None:
    """Write the same GML subset the parser reads (ids 0..n-1).

    A node name the parser could not read back, one holding a ``"``, a
    line break or a lone surrogate, or a ``labels`` that is not one integer
    per node, raises InvalidInputError before the file is opened.
    """
    if labels is not None:
        labels = integer_array(labels, "labels")
        if labels.shape != (g.n,):
            raise InvalidInputError(f"labels has {labels.size} entries for {g.n} nodes, in shape {labels.shape}, not ({g.n},)")
    lines = ["graph ["]
    for i in range(g.n):
        parts = [f"  node [ id {i}"]
        if labels is not None and labels[i] >= 0:
            parts.append(f"value {int(labels[i])}")
        if g.node_names is not None:
            label = f'"{g.node_names[i]}"'
            if re.search('["\ud800-\udfff]', g.node_names[i]) or label.splitlines() != [label]:
                raise InvalidInputError(f"a GML string cannot hold '\"', a line break or a lone surrogate: {label!r}")
            parts.append(f"label {label}")
        lines.append(" ".join(parts) + " ]")
    for i, j in g.edge_array.tolist():
        lines.append(f"  edge [ source {i} target {j} ]")
    lines.append("]")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_labels(path: PathLike) -> np.ndarray:
    """Integer labels, one per line, `#` comments allowed; parsed as ``read_edge_pairs`` parses."""
    table = _c_reader_table(path, 1)
    if table is not None:
        return table.ravel()
    out = []
    for lineno, line in _content_lines(path):
        try:
            out.append(np.int64(int(line.split("\t")[-1])))
        except (ValueError, OverflowError):
            raise GraphParseError(f"label {line!r} is not a 64-bit integer", line=lineno)
    return np.array(out, dtype=np.int64)


def format_labels(labels: np.ndarray, names=None) -> str:
    """The text of a label file: one label per line, `name<TAB>label` when
    node names are given.

    Labels that are not a 1-D integer vector, ``names`` not one per label,
    or a name ``load_labels`` could not read back (holding `#`, a tab, a
    line break or a lone surrogate) raise InvalidInputError.
    """
    labels = integer_array(labels, "labels")
    if labels.ndim != 1:
        raise InvalidInputError(f"labels has shape {labels.shape}, not one dimension")
    if names is not None and len(names) != len(labels):
        raise InvalidInputError(f"names has {len(names)} entries for {len(labels)} labels")
    for name in names if names is not None else ():
        if re.search("[#\t\n\r\ud800-\udfff]", name):
            raise InvalidInputError(f"a label file name cannot hold #, tab, newline or a lone surrogate: {name!r}")
    return "".join(f"{lab}\n" if names is None else f"{names[i]}\t{lab}\n" for i, lab in enumerate(labels.tolist()))


def save_labels(labels: np.ndarray, path: PathLike, names=None) -> None:
    """Write ``format_labels(labels, names)`` to ``path``; the labels are
    checked before ``open``."""
    text = format_labels(labels, names)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_graph(path: PathLike) -> tuple[Graph, Optional[np.ndarray]]:
    """Load a graph file plus ground-truth labels when the file carries them.

    A `.gml` suffix (any case) means GML; anything else is an edge list.
    """
    path = Path(path)
    if path.suffix.lower() == ".gml":
        return load_gml(path)
    return load_edgelist(path), None
