import random

import pytest

from factorkit.constructions import build_g2
from factorkit.generators import random_graph
from factorkit.graph import Graph
from factorkit.io import (
    decode_graph6,
    encode_graph6,
    from_dimacs,
    from_edge_list,
    read_graphs,
    to_dimacs,
    to_edge_list,
    write_graph,
)

from oracles import complete_graph, cycle_graph


def test_k4_encodes_to_hand_value():
    # Hand encoding: header chr(4+63) = 'C'; the six upper-triangle bits
    # (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) are all 1 -> 0b111111 = 63,
    # 63 + 63 = 126 = '~'.
    assert encode_graph6(complete_graph(4)) == b"C~"


def test_decode_hand_value():
    assert decode_graph6(b"C~") == complete_graph(4)


def test_roundtrip_c4():
    g = cycle_graph(4)
    assert decode_graph6(encode_graph6(g)) == g


def test_roundtrip_small_random():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(0, 30)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        assert decode_graph6(encode_graph6(g)) == g


def test_roundtrip_boundary_and_long_format():
    rng = random.Random(8)
    for n in (61, 62, 63, 64, 100):
        g = random_graph(n, rng.randint(0, 3 * n), rng)
        data = encode_graph6(g)
        if n <= 62:
            assert data[0] == n + 63
        else:
            assert data[0] == 126
        assert decode_graph6(data) == g
    # A family graph in the long format: the decoded edges come out sorted,
    # and the adjacency built from them is the host's.
    g = build_g2(12).graph
    assert g.n > 62
    back = decode_graph6(encode_graph6(g))
    assert back.edges == g.edges
    assert all(back.neighbors(v) == g.neighbors(v) for v in range(g.n))


@pytest.mark.parametrize("n", [1000, 2000])
def test_roundtrip_large_against_networkx(n):
    # Sizes at which a decoder quadratic in the body length takes seconds.
    nx = pytest.importorskip("networkx")
    g = random_graph(n, 3 * n, random.Random(n))
    data = encode_graph6(g)
    assert decode_graph6(data) == g
    h = nx.from_graph6_bytes(data)
    assert h.number_of_nodes() == n
    assert sorted((min(e), max(e)) for e in h.edges()) == list(g.edges)


@pytest.mark.parametrize("n", [63, 64, 500, 2000])
def test_sparse_encoding_matches_networkx_bytes(n):
    nx = pytest.importorskip("networkx")
    g = random_graph(n, 3 * n, random.Random(n + 1))
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(g.edges)
    data = encode_graph6(g)
    assert data + b"\n" == nx.to_graph6_bytes(G, header=False)
    assert decode_graph6(data) == g


def test_decode_accepts_census_prefix():
    assert decode_graph6(b">>graph6<<C~") == complete_graph(4)


def test_decode_rejects_malformed():
    with pytest.raises(ValueError, match="length mismatch"):
        decode_graph6(b"C~~")
    with pytest.raises(ValueError, match="length mismatch"):
        decode_graph6(b"C")
    with pytest.raises(ValueError, match="padding"):
        # n=3 needs 3 bits; set a nonzero bit inside the padding
        decode_graph6(bytes([3 + 63, 63 + 1]))
    with pytest.raises(ValueError, match="printable"):
        decode_graph6(b"C\x1f")
    with pytest.raises(ValueError, match="empty"):
        decode_graph6(b"")
    with pytest.raises(ValueError, match="truncated graph6 long header"):
        decode_graph6(b"~??")
    with pytest.raises(ValueError, match="eight-byte header"):
        decode_graph6(b"~~")


@pytest.mark.parametrize("text", ["\u00e9", "\udcff"])
def test_decode_rejects_non_ascii_text_as_unprintable(text):
    # A non-ASCII character, or a byte that stdin decoding escaped to a lone
    # surrogate, is a byte outside the graph6 range, not a codec failure.
    with pytest.raises(ValueError, match="printable"):
        decode_graph6(text)


def test_dimacs_roundtrip():
    g = cycle_graph(5)
    text = to_dimacs(g)
    assert text.splitlines()[0] == "p edge 5 5"
    assert "e 1 2" in text  # 1-indexed
    assert from_dimacs(text) == g


def test_dimacs_rejects_bad_input():
    with pytest.raises(ValueError, match="p edge"):
        from_dimacs("e 1 2\n")
    with pytest.raises(ValueError, match="promises"):
        from_dimacs("p edge 3 2\ne 1 2\n")
    with pytest.raises(ValueError, match="unrecognized"):
        from_dimacs("p edge 2 1\nq 1 2\n")
    # Ids are 1-based: 0 and n + 1 are out of range, named as written.
    with pytest.raises(ValueError, match=r"line 2: vertex id 0 outside 1\.\.2"):
        from_dimacs("p edge 2 1\ne 0 1\n")
    with pytest.raises(ValueError, match=r"line 3: vertex id 3 outside 1\.\.2"):
        from_dimacs("p edge 2 1\nc comment\ne 1 3\n")
    # A non-numeric id names its line, and a self-loop or a repeated edge is
    # named in the file's 1-based ids, not in Graph's 0-based ones.
    with pytest.raises(ValueError, match=r"line 2: non-integer field in 'e a 1'"):
        from_dimacs("p edge 2 1\ne a 1\n")
    # Integers are an optional sign and ASCII digits: no other script's
    # digits, no underscores.
    with pytest.raises(ValueError, match=r"line 2: non-integer field in 'e \u0661 2'"):
        from_dimacs("p edge 2 1\ne \u0661 2\n")
    with pytest.raises(ValueError, match=r"line 1: non-integer field in 'p edge 1_0 0'"):
        from_dimacs("p edge 1_0 0\n")
    with pytest.raises(ValueError, match=r"line 2: duplicate problem line"):
        from_dimacs("p edge 2 0\np edge 2 0\n")
    with pytest.raises(ValueError, match=r"line 2: malformed edge line 'e 1'"):
        from_dimacs("p edge 2 1\ne 1\n")
    with pytest.raises(ValueError, match=r"line 2: self-loop at vertex 1$"):
        from_dimacs("p edge 2 1\ne 1 1\n")
    with pytest.raises(ValueError, match=r"line 4: edge 3 1 repeats line 2"):
        from_dimacs("p edge 3 3\ne 1 3\ne 2 3\ne 3 1\n")


def test_edge_list_roundtrip():
    g = cycle_graph(6)
    assert from_edge_list(to_edge_list(g)) == g
    assert to_edge_list(Graph(3, ())) == "3\n"


def test_edge_list_rejects_bad_input():
    # Each error names its 1-based line, counting the blank lines skipped.
    with pytest.raises(ValueError, match="empty edge list"):
        from_edge_list("\n \n")
    with pytest.raises(ValueError, match=r"line 1: non-integer field in 'x'"):
        from_edge_list("x\n")
    with pytest.raises(ValueError, match=r"line 2: first edge-list line must be the vertex count, got '3 4'"):
        from_edge_list("\n3 4\n")
    with pytest.raises(ValueError, match=r"line 2: non-integer field in '0 a'"):
        from_edge_list("3\n0 a\n")
    with pytest.raises(ValueError, match=r"line 2: non-integer field in '\u0660 \u0661'"):
        from_edge_list("3\n\u0660 \u0661\n")
    with pytest.raises(ValueError, match=r"line 2: non-integer field in '0 1_0'"):
        from_edge_list("11\n0 1_0\n")
    with pytest.raises(ValueError, match=r"line 1: non-integer field in '\uff13'"):
        from_edge_list("\uff13\n")  # fullwidth 3
    with pytest.raises(ValueError, match=r"line 4: malformed edge-list line '0 1 2'"):
        from_edge_list("3\n0 1\n\n0 1 2\n")


def test_edge_list_names_the_line_of_an_out_of_range_endpoint():
    with pytest.raises(ValueError, match=r"^line 2: vertex id 5 outside 0\.\.2$"):
        from_edge_list("3\n0 5\n")


def test_edge_list_names_the_line_of_a_self_loop():
    with pytest.raises(ValueError, match=r"^line 2: self-loop at vertex 1$"):
        from_edge_list("3\n1 1\n")


def test_edge_list_names_the_line_of_a_repeated_edge():
    with pytest.raises(ValueError, match=r"^line 3: edge 1 0 repeats line 2$"):
        from_edge_list("3\n0 1\n1 0\n")


def test_edge_list_names_the_line_of_a_negative_vertex_count():
    with pytest.raises(ValueError, match=r"^line 1: vertex count must be nonnegative, got -1$"):
        from_edge_list("-1\n")


def test_read_graphs_batch():
    text = write_graph(cycle_graph(4), "graph6") + write_graph(complete_graph(4), "graph6")
    graphs = read_graphs(text, "graph6")
    assert graphs == [cycle_graph(4), complete_graph(4)]
    with pytest.raises(ValueError, match="no graph6 lines"):
        read_graphs("\n", "graph6")


def test_unknown_format_is_named():
    with pytest.raises(ValueError, match=r"^unknown graph format 'gml'$"):
        write_graph(cycle_graph(4), "gml")
    with pytest.raises(ValueError, match=r"^unknown graph format 'gml'$"):
        read_graphs("graph [ ]\n", "gml")


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(1, 25)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        ours = encode_graph6(g)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(G, header=False).strip()
        assert ours == theirs
