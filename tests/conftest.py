"""Shared constructors for the shapes the tests keep reaching for."""

from lgmult.graphs import Graph, biconnected_blocks, build_graph, is_connected


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(legs: int) -> Graph:
    return build_graph(legs + 1, [(0, i) for i in range(1, legs + 1)])


def spider(legs: int, leg_len: int) -> Graph:
    """Center 0, legs laid out consecutively."""
    edges = []
    v = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, v))
            prev = v
            v += 1
    return build_graph(v, edges)


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.edge_count == g.vertex_count - 1


def is_path(g: Graph) -> bool:
    return is_tree(g) and all(d <= 2 for d in g.degrees())


def cut_vertices(g: Graph) -> set[int]:
    """The vertices that lie in two or more blocks."""
    seen: set[int] = set()
    cuts: set[int] = set()
    for b in biconnected_blocks(g):
        cuts.update(seen.intersection(b))
        seen.update(b)
    return cuts


def cycle_plus_pendant(order: int) -> Graph:
    """C_order with one extra pendant edge at vertex 0."""
    edges = [(i, (i + 1) % order) for i in range(order)] + [(0, order)]
    return build_graph(order + 1, edges)


def neighbors(adj: tuple[int, ...]) -> list[list[int]]:
    """Neighbor lists of bitmask rows."""
    n = len(adj)
    return [[w for w in range(n) if row >> w & 1] for row in adj]
