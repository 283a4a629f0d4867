import pytest
from hypothesis import given

from conftest import cycle, path, star
from lgmult.graphio import (
    FormatError,
    from_edge_text,
    from_graph6,
    read_graphs_graph6,
    to_edge_text,
    to_graph6,
)
from lgmult.graphs import build_graph
from test_graphs import connected_graphs


def test_known_graph6_strings():
    # graph6 encodes a labeled graph; "Cr" uses the upper-triangle bit order
    c4 = from_graph6("Cr")
    assert c4.vertex_count == 4 and all(c4.degree(v) == 2 for v in range(4))
    assert to_graph6(star(3)) == "Cs"
    k3 = from_graph6("Bw")
    assert k3.vertex_count == 3 and k3.edge_count == 3


def test_from_graph6_rejects_garbage():
    with pytest.raises(FormatError):
        from_graph6("")
    with pytest.raises(FormatError):
        from_graph6("C")  # truncated bit block
    with pytest.raises(FormatError):
        from_graph6("C\x19\x19")  # bytes below the printable window


def test_graph6_long_form_round_trip():
    # byte 126, then n in three 6-bit groups: 63 = (0, 0, 63), 80 = (0, 1, 16)
    for n, head in ((63, "~??~"), (80, "~?@O"), (300, "~?Ck")):
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (3, n // 2)])
        text = to_graph6(g)
        assert text[:4] == head
        back = from_graph6(text)
        assert back.vertex_count == n
        assert sorted(back.edges) == sorted(g.edges)
    assert to_graph6(path(62))[0] == chr(62 + 63)


def test_graph6_rejects_orders_past_long_form():
    with pytest.raises(FormatError):
        from_graph6("~~" + "?" * 6)
    with pytest.raises(FormatError):
        from_graph6("~?A")  # order field cut short
    with pytest.raises(FormatError):
        to_graph6(build_graph(258048, []))


@given(connected_graphs())
def test_graph6_round_trip(g):
    back = from_graph6(to_graph6(g))
    assert back.vertex_count == g.vertex_count
    assert sorted(back.edges) == sorted(g.edges)


@given(connected_graphs())
def test_edge_text_round_trip(g):
    back = from_edge_text(to_edge_text(g))
    assert back.vertex_count == g.vertex_count
    assert sorted(back.edges) == sorted(g.edges)


def test_edge_text_header_must_match():
    with pytest.raises(FormatError):
        from_edge_text("3 2\n0 1\n")  # header promises two edges
    with pytest.raises(FormatError):
        from_edge_text("zzz\n0 1\n")


def test_multi_graph_file_round_trip():
    graphs = [path(2), cycle(3), star(4)]
    text = "\n".join(to_graph6(g) for g in graphs) + "\n"
    back = read_graphs_graph6(text)
    assert [g.vertex_count for g in back] == [2, 3, 5]
    assert [g.edge_count for g in back] == [1, 3, 4]
    # blank lines and surrounding whitespace are tolerated
    assert len(read_graphs_graph6("\n" + text + "\n")) == 3
