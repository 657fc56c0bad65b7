"""References for differential tests of Graph construction and parsing.

reference_validate is the edge loop that Graph.__post_init__ had in version
0.8.0 before its dedupe set held edge tuples. It keys each unordered pair by
a fresh int a*n+b with a < b, which is unique only once both endpoints are in
range, so the range check must come first. Faults are reported in edge order,
first fault wins."""

from array import array

from oddgraceful.errors import ParseError, ValidationError
from oddgraceful.graph import Graph, _graph


def reference_validate(n: int, edges: tuple[tuple[int, int], ...]) -> None:
    seen: set[int] = set()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
        if a == b:
            raise ValidationError(f"self-loop at vertex {a}")
        key = a * n + b if a < b else b * n + a
        if key in seen:
            raise ValidationError(f"duplicate edge ({a}, {b})")
        seen.add(key)


def reference_parse_edge_list(text: str) -> Graph:
    """The edge-list parser of version 0.13.0: the per-line loop over every
    line of text.splitlines(), appending each endpoint to array('q') columns
    (lists once an id past 64 bits turns up). It defines the format; the
    parser's plain-slice conversion must give the same Graph or error."""
    vertex_count: int | None = None
    tails, heads = array("q"), array("q")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "graph":
            if vertex_count is not None or tails:
                raise ParseError("header must be the first content line", line_no)
            if len(parts) != 2:
                raise ParseError("header form is 'graph <vertex_count>'", line_no)
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line_no) from None
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two endpoints, got {line!r}", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"endpoints must be integers, got {line!r}", line_no) from None
        try:
            tails.append(a)
            heads.append(b)
        except OverflowError:
            tails, heads = [*tails[: len(heads)], a], [*heads, b]
    if vertex_count is None:
        vertex_count = 1 + max(max(tails, default=-1), max(heads, default=-1))
    if type(tails) is list:
        return Graph(vertex_count, zip(tails, heads))
    return _graph(vertex_count, tails, heads)
