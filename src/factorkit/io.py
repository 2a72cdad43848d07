"""Graph readers and writers: graph6, DIMACS edge format, plain edge lists.

graph6 is the interchange format used by graph census tools: a header byte
encoding n, then the upper triangle of the adjacency matrix in column-major
order (0,1),(0,2),(1,2),(0,3),... packed 6 bits per byte, each byte offset
by 63. Encoding and decoding are bit-exact round trips.
"""

from __future__ import annotations

from .graph import Graph

FORMATS = ("graph6", "dimacs", "edges")

_G6_PREFIX = b">>graph6<<"
_PLUS_63 = bytes(range(63, 127)) + bytes(192)


def encode_graph6(g: Graph) -> bytes:
    """Encode a graph as one graph6 byte string (no trailing newline).

    Supports the one-byte header (n <= 62) and the four-byte long header
    (n <= 258047), which covers every graph this toolkit generates.
    """
    n = g.n
    if n <= 62:
        header = bytes([n + 63])
    elif n <= 258047:
        header = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError(f"graph6 encoding supported up to n = 258047, got {n}")
    # Bit k = j(j-1)/2 + i is pair (i, j), i < j: set the m edges' bits only.
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> (k % 6)
    return header + body.translate(_PLUS_63)


def decode_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 byte string (optionally prefixed ">>graph6<<")."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    data = data.strip()
    if data.startswith(_G6_PREFIX):
        data = data[len(_G6_PREFIX):]
    if not data:
        raise ValueError("empty graph6 string")
    if any(b < 63 or b > 126 for b in data):
        raise ValueError("graph6 byte outside the printable range 63..126")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("graph6 eight-byte header (n > 258047) not supported")
        if len(data) < 4:
            raise ValueError("truncated graph6 long header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ValueError(
            f"graph6 body length mismatch: expected {expected} bytes for n={n}, "
            f"got {len(body)}"
        )
    pad = 6 * len(body) - nbits
    if pad and (body[-1] - 63) & ((1 << pad) - 1):
        raise ValueError("graph6 trailing padding bits are not zero")
    # One pass over the bytes: bit k is pair (k - start, j), start = j(j-1)/2 <= k < start + j.
    edges = []
    j, start = 1, 0
    ones = (6 * pos + bit for pos, b in enumerate(body) if b > 63
            for bit in range(6) if (b - 63) & (32 >> bit))
    for k in ones:
        while k >= start + j:
            start += j
            j += 1
        edges.append((k - start, j))
    return Graph(n, tuple(edges))


def to_dimacs(g: Graph) -> str:
    """DIMACS edge format: "p edge n m" then 1-indexed "e u v" lines."""
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Graph:
    n = None
    m = None
    ends: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"line {lineno}: malformed problem line {line!r}")
            n, m = _line_ints(lineno, line, parts[2:])
            n_line = lineno
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed edge line {line!r}")
            ends.append((lineno, *_line_ints(lineno, line, parts[1:])))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if n is None or m is None:
        raise ValueError("missing 'p edge n m' line")
    if len(ends) != m:
        raise ValueError(f"problem line promises {m} edges, found {len(ends)}")
    return _checked_graph(n, n_line, ends, 1)


def _checked_graph(n: int, n_line: int, ends: list[tuple[int, int, int]], base: int) -> Graph:
    """Graph from (line, u, v) edges, ids from base; errors name the line."""
    if n < 0:
        raise ValueError(f"line {n_line}: vertex count must be nonnegative, got {n}")
    first_seen: dict[tuple[int, int], int] = {}
    for lineno, u, v in ends:
        for x in (u, v):
            if not base <= x < base + n:
                raise ValueError(f"line {lineno}: vertex id {x} outside {base}..{base + n - 1}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        edge = (min(u, v), max(u, v))
        if edge in first_seen:
            raise ValueError(f"line {lineno}: edge {u} {v} repeats line {first_seen[edge]}")
        first_seen[edge] = lineno
    return Graph(n, tuple((u - base, v - base) for _, u, v in ends))


def ascii_int(text: str) -> int:
    """int(text) for an optional sign then ASCII digits 0-9; int() alone also
    reads other scripts' digits, underscores and surrounding spaces."""
    if text.isascii() and text.lstrip("+-").isdigit():
        return int(text)  # raises on a repeated sign
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


def _line_ints(lineno: int, line: str, fields: list[str]) -> list[int]:
    try:
        return [ascii_int(x) for x in fields]
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer field in {line!r}") from None


def to_edge_list(g: Graph) -> str:
    """Plain edge list: first line n, then one 0-indexed "u v" per line."""
    lines = [str(g.n)]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    n = None
    ends: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ValueError(
                    f"line {lineno}: first edge-list line must be the vertex count, got {line!r}"
                )
            (n,) = _line_ints(lineno, line, parts)
            n_line = lineno
        elif len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed edge-list line {line!r}")
        else:
            ends.append((lineno, *_line_ints(lineno, line, parts)))
    if n is None:
        raise ValueError("empty edge list")
    return _checked_graph(n, n_line, ends, 0)


def write_graph(g: Graph, fmt: str) -> str:
    """Serialize in one of FORMATS; graph6 output is a single text line."""
    if fmt == "graph6":
        return encode_graph6(g).decode("ascii") + "\n"
    if fmt == "dimacs":
        return to_dimacs(g)
    if fmt == "edges":
        return to_edge_list(g)
    raise ValueError(f"unknown graph format {fmt!r}")


def read_graphs(text: str, fmt: str) -> list[Graph]:
    """Parse one or more graphs; graph6 input is one graph per line."""
    if fmt == "graph6":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("no graph6 lines in input")
        return [decode_graph6(line) for line in lines]
    if fmt == "dimacs":
        return [from_dimacs(text)]
    if fmt == "edges":
        return [from_edge_list(text)]
    raise ValueError(f"unknown graph format {fmt!r}")
