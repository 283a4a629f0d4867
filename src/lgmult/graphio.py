"""Reading and writing graphs: graph6 strings and edge-list text.

graph6 is the compact format used by the usual graph-enumeration tools: the
order n, then the upper triangle of the adjacency matrix in column-major
order, packed into 6-bit groups, each group stored as its value plus 63.
The order is one byte n+63 up to n = 62, and byte 126 followed by n in three
6-bit groups, big-endian, up to n = 258047; larger orders are not supported.
An optional ">>graph6<<" prefix is accepted on input and never produced on
output.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, build_graph

_HEADER = ">>graph6<<"
# largest order of the 4-byte form: from 63 * 4096 on, the first 6-bit group
# would read as byte 126 again, which marks the 8-byte form
_MAX_ORDER = 63 * 4096 - 1


class FormatError(GraphError):
    """Malformed serialized graph."""


def to_graph6(g: Graph) -> str:
    n = g.vertex_count
    if n > _MAX_ORDER:
        raise FormatError(f"graph6 here covers orders up to {_MAX_ORDER}, got {n}")
    bits: list[int] = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if g.has_edge(row, col) else 0)
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        chars = [chr(n + 63)]
    else:
        chars = ["~"] + [chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER) :]
    if not s:
        raise FormatError("empty graph6 string")
    if s[0] != "~":
        n, body = ord(s[0]) - 63, s[1:]
        if not (0 <= n <= 62):
            raise FormatError(f"unsupported graph6 order byte {s[0]!r}")
    else:
        if s[1:2] == "~":
            raise FormatError(f"graph6 orders above {_MAX_ORDER} are not supported")
        if len(s) < 4:
            raise FormatError("graph6 order field is truncated")
        n, body = 0, s[4:]
        for ch in s[1:4]:
            if not (0 <= ord(ch) - 63 < 64):
                raise FormatError(f"byte {ch!r} outside graph6 range")
            n = (n << 6) | (ord(ch) - 63)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body for n={n} needs {need} bytes, got {len(body)}")
    bits: list[int] = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise FormatError(f"byte {ch!r} outside graph6 range")
        for k in range(5, -1, -1):
            bits.append((val >> k) & 1)
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    return build_graph(n, edges)


def to_edge_text(g: Graph) -> str:
    """Plain text: first line "n m", then one "u v" line per edge."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def from_edge_text(text: str) -> Graph:
    rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
    if not rows:
        raise FormatError("empty edge-list text")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"non-integer header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise FormatError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"edge line {ln!r} must be 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FormatError(f"non-integer edge line {ln!r}") from exc
    return build_graph(n, edges)


def read_graphs_graph6(text: str) -> list[Graph]:
    return [from_graph6(ln) for ln in text.splitlines() if ln.strip()]
