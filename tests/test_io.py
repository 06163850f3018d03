"""Edge-list and GML ingestion."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from blockfactor.errors import GraphParseError, InvalidInputError
from blockfactor.graphs import MAX_NODES, Graph
from blockfactor.io import (
    format_labels,
    load_edgelist,
    load_gml,
    load_graph,
    load_labels,
    parse_gml,
    parse_gml_items,
    read_edge_pairs,
    save_gml,
    save_labels,
)

DATA = Path(__file__).parent.parent / "src" / "blockfactor" / "data"


class TestEdgelist:
    def test_triangle(self, tmp_path):
        p = tmp_path / "k3.txt"
        p.write_text("0 1\n1 2\n2 0\n")
        g = load_edgelist(p)
        assert g.n == 3 and g.edge_array.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# header\n\n0 1  # trailing comment\n")
        assert load_edgelist(p).edge_array.tolist() == [[0, 1]]

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n0 1 2\n")
        with pytest.raises(GraphParseError) as exc:
            load_edgelist(p)
        assert exc.value.line == 2

    def test_non_integer_token(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 x\n")
        with pytest.raises(GraphParseError):
            load_edgelist(p)

    def test_pairs_array_in_file_order(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 1\n# comment\n1 2\n3 3\n")
        pairs = read_edge_pairs(p)
        assert pairs.dtype == np.int64 and pairs.tolist() == [[2, 1], [1, 2], [3, 3]]
        p.write_text("# nothing\n")
        assert read_edge_pairs(p).shape == (0, 2)

    @pytest.mark.parametrize(
        "line", ["1 99999999999999999999", f"{MAX_NODES} 0", "3999999999 4000000000", "-1 0"]
    )
    def test_id_out_of_range_reports_line(self, tmp_path, line):
        p = tmp_path / "big.txt"
        p.write_text(f"0 1\n{line}\n")
        with pytest.raises(GraphParseError) as exc:
            load_edgelist(p)
        assert exc.value.line == 2

    def test_largest_id_is_read(self, tmp_path):
        p = tmp_path / "edge.txt"
        p.write_text(f"{MAX_NODES - 1} {MAX_NODES - 2}\n")
        assert read_edge_pairs(p).tolist() == [[MAX_NODES - 1, MAX_NODES - 2]]

    def test_load_graph_dispatches_on_suffix(self, tmp_path):
        p = tmp_path / "k3.edges"
        p.write_text("0 1\n1 2\n2 0\n")
        g, labels = load_graph(p)
        assert g.n == 3 and labels is None


class TestGml:
    def test_karate_fixture_counts(self):
        g, labels = load_gml(DATA / "karate.gml")
        assert g.n == 34
        assert g.num_edges == 78
        assert set(labels.tolist()) == {0, 1}

    def test_minimal_document(self):
        g, labels = parse_gml(
            'graph [ node [ id 10 value 1 label "a" ] node [ id 20 value 0 ] '
            "edge [ source 10 target 20 ] ]"
        )
        assert g.n == 2 and g.edge_array.tolist() == [[0, 1]]
        assert labels.tolist() == [1, 0]
        assert g.node_names == ("a", "20")

    def test_unknown_keys_ignored(self):
        g, _ = parse_gml(
            'Creator "test" graph [ directed 0 sprawl 3.5 '
            "node [ id 0 w 2 ] node [ id 1 ] edge [ source 0 target 1 weight 7 ] ]"
        )
        assert g.edge_array.tolist() == [[0, 1]]

    def test_nested_unknown_block_ignored(self):
        g, _ = parse_gml(
            "graph [ node [ id 0 graphics [ x 1 y 2 ] ] node [ id 1 ] "
            "edge [ source 0 target 1 ] ]"
        )
        assert g.n == 2

    def test_duplicate_node_id(self):
        with pytest.raises(GraphParseError):
            parse_gml("graph [ node [ id 0 ] node [ id 0 ] ]")

    def test_dangling_edge(self):
        with pytest.raises(GraphParseError, match="line 1: edge references undeclared node id 9"):
            parse_gml("graph [ node [ id 0 ] edge [ source 0 target 9 ] ]")

    def test_directed_flag_and_duplicates_collapse(self):
        nodes, pairs, directed = parse_gml_items(
            "graph [ directed 1 node [ id 0 ] node [ id 1 ] "
            "edge [ source 0 target 1 ] edge [ source 1 target 0 ] ]"
        )
        assert directed and len(pairs) == 2
        g, _ = parse_gml(
            "graph [ directed 1 node [ id 0 ] node [ id 1 ] "
            "edge [ source 0 target 1 ] edge [ source 1 target 0 ] ]"
        )
        assert g.edge_array.tolist() == [[0, 1]]

    def test_partial_values_become_minus_one(self):
        _, labels = parse_gml(
            "graph [ node [ id 0 value 1 ] node [ id 1 ] ]"
        )
        assert labels.tolist() == [1, -1]

    def test_save_load_round_trip(self, tmp_path):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], node_names=["x", "y", "z"])
        labels = np.array([0, 1, -1])
        p = tmp_path / "g.gml"
        save_gml(g, p, labels=labels)
        g2, labels2 = load_gml(p)
        assert g2.edge_array.tolist() == g.edge_array.tolist()
        assert g2.node_names == g.node_names
        assert labels2.tolist() == [0, 1, -1]

    def test_names_with_spaces_and_brackets_round_trip(self, tmp_path):
        names = ["two words", "[x]", "] [", "a\tb", ""]
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)], node_names=names)
        p = tmp_path / "g.gml"
        save_gml(g, p)
        g2, _ = load_gml(p)
        assert g2 == g

    @pytest.mark.parametrize("name", ['say "hi"', "two\nlines", "cr\r", "sep\u2028", "\ud800", "a\udfffb"])
    def test_unreadable_name_rejected_before_writing(self, tmp_path, name):
        g = Graph.from_edges(2, [(0, 1)], node_names=["ok", name])
        p = tmp_path / "g.gml"
        with pytest.raises(InvalidInputError, match="GML string"):
            save_gml(g, p)
        assert not p.exists()

    def test_labels_of_the_wrong_length_rejected_before_writing(self, tmp_path):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        p = tmp_path / "g.gml"
        with pytest.raises(InvalidInputError, match="1 entries for 3 nodes"):
            save_gml(g, p, labels=np.array([0]))
        assert not p.exists()


# each a GML fault, and the line it must be reported on
MALFORMED_GML = {
    "non-integer directed": ("graph [\n directed x\n]", 2),
    "non-integer id": ('graph [\n node [ id "7" ]\n]', 2),
    "non-integer value": ("graph [ node [ id 0 ]\n node [ id 1\n value abc ] ]", 3),
    "overflowing value": ("graph [ node [ id 0\n value 1e400 ] ]", 2),
    "overflowing id": ("graph [ node [ id 0 ]\n node [ id -1e400 ] ]", 2),
    "fractional target": ("graph [ node [ id 0 ] node [ id 1 ]\n edge [ source 0 target 1.9 ] ]", 2),
    "fractional value": ("graph [ node [ id 0\n\n value 1.7 ] ]", 3),
    "value beyond 64 bits": (f"graph [ node [ id 0 value {2**63} ] ]", 1),
    "unclosed graph": ("graph [\n node [ id 0 ]\n", 1),
    "unclosed node": ("graph [ node [ id 0 ]\n node [ id 1\n", 2),
    "unterminated string": ('graph [ node [ id 0\n label "a ] ]', 2),
    "stray closing bracket": ("graph [ node [ id 0 ] ]\n]", 2),
    "node without id": ("graph [ node [ id 0 ]\n node [ value 1 ] ]", 2),
    "edge without target": ("graph [ node [ id 0 ]\n edge [ source 0 ] ]", 2),
    "undeclared edge source": ("graph [ node [ id 0 ]\n edge [ source 9 target 0 ] ]", 2),
    # deeper than Python's recursion limit
    "2000 unclosed lists": ("a [ " * 1999 + "\nb [", 2),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_GML))
    def test_gml_fault_is_a_parse_error_with_its_line(self, case):
        text, line = MALFORMED_GML[case]
        with pytest.raises(GraphParseError) as exc:
            parse_gml(text)
        assert exc.value.line == line

    def test_lists_nested_deeper_than_the_recursion_limit(self):
        depth = 5000
        g, labels = parse_gml("x [ " * depth + "] " * depth + "graph [ node [ id 0 value 1 ] ]")
        assert g.n == 1 and labels.tolist() == [1]

    def test_string_may_span_lines(self):
        g, labels = parse_gml('Creator "two\nlines" graph [ node [ id 0 label "a\nb" ]\n node [ id 1 value 2 ] ]')
        assert g.node_names == ("a\nb", "1") and labels.tolist() == [-1, 2]
        with pytest.raises(GraphParseError) as exc:
            parse_gml('Creator "two\nlines"\ngraph [ node [ id x ] ]')
        assert exc.value.line == 3

    def test_karate_parses_to_the_same_graph(self):
        # the digest of the edges and labels the per-line tokenizer read,
        # before strings could span lines (karate's Creator string does)
        g, labels = load_gml(DATA / "karate.gml")
        digest = hashlib.sha256(g.edge_array.tobytes() + labels.tobytes()).hexdigest()
        assert digest == "5309141a7bffd6e9d4a4fa3bdf1f851d726525749ee12dbc1886bfc4c27a0bfe"
        assert g.node_names is None

    @pytest.mark.parametrize("reader", [read_edge_pairs, load_labels, load_gml])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path, reader):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"0 1\n1 2 # caf\xe9\n")
        with pytest.raises(GraphParseError, match="not UTF-8"):
            reader(p)


class TestLabelsFile:
    def test_round_trip_plain(self, tmp_path):
        p = tmp_path / "labels.txt"
        save_labels(np.array([0, 1, 1]), p)
        assert load_labels(p).tolist() == [0, 1, 1]

    def test_round_trip_with_names(self, tmp_path):
        p = tmp_path / "labels.txt"
        save_labels(np.array([1, 0]), p, names=["a", "b"])
        assert p.read_text() == "a\t1\nb\t0\n"
        assert load_labels(p).tolist() == [1, 0]

    def test_round_trip_with_names_holding_spaces(self, tmp_path):
        p = tmp_path / "labels.txt"
        save_labels(np.array([2, 0, 1]), p, names=["two words", " padded ", ""])
        assert load_labels(p).tolist() == [2, 0, 1]

    @pytest.mark.parametrize(
        "labels",
        [np.array([], dtype=np.int64), np.array([2, 0, 1, 1]), np.array([-3, 2**63 - 1, -(2**63)]),
         np.array([0.0, 4.0, 1.0]), np.array([5, 0, 7], dtype=np.uint8), [1, 0, 2]],
        ids=["empty", "int64", "extremes", "float", "uint8", "list"],
    )
    @pytest.mark.parametrize("named", [False, True])
    def test_text_is_the_per_label_genexpr_text(self, labels, named):
        # the reference formats each label as a numpy integer through int()
        names = tuple(f"node {i}" for i in range(len(labels))) if named else None
        expected = "".join(
            f"{int(lab)}\n" if names is None else f"{names[i]}\t{int(lab)}\n"
            for i, lab in enumerate(np.asarray(labels).astype(np.int64))
        )
        assert format_labels(labels, names) == expected

    def test_label_beyond_64_bits_is_a_parse_error(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text(f"0\nname\t{2**63}\n")
        with pytest.raises(GraphParseError, match="not a 64-bit integer") as exc:
            load_labels(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("name", ["a#1", "tab\there", "two\nlines", "cr\r", "\ud800", "a\udfffb"])
    def test_unreadable_name_rejected_before_writing(self, tmp_path, name):
        p = tmp_path / "labels.txt"
        with pytest.raises(InvalidInputError, match="label file name cannot hold"):
            save_labels(np.array([0, 1]), p, names=["ok", name])
        assert not p.exists()

    @pytest.mark.parametrize("labels", [[np.nan, 1.0], [0.5, 1.7], [[0], [1]]], ids=["NaN", "fractional", "2-D"])
    @pytest.mark.parametrize("save", ["labels", "gml"])
    def test_bad_labels_leave_an_existing_file_unchanged(self, tmp_path, labels, save):
        p = tmp_path / "out.txt"
        p.write_text("7\n8\n")
        with pytest.raises(InvalidInputError, match="labels"):
            if save == "labels":
                save_labels(labels, p)
            else:
                save_gml(Graph.from_edges(2, [(0, 1)]), p, labels=labels)
        assert p.read_text() == "7\n8\n"

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d"]])
    def test_names_not_one_per_label_rejected_before_writing(self, tmp_path, names):
        p = tmp_path / "labels.txt"
        with pytest.raises(InvalidInputError, match=f"names has {len(names)} entries for 3 labels"):
            save_labels(np.array([0, 1, 1]), p, names=names)
        assert not p.exists()
