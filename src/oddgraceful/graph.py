"""Immutable graphs plus builders for paths, cycles, and their disjoint union."""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index

from .errors import ValidationError

# Largest vertex count of a Graph or FamilySpec, checked before any per-vertex
# allocation; about twice the largest family graph the acceptance tests build.
MAX_VERTICES = 2**22
_LOOP_KEYS = 2 * MAX_VERTICES  # the edge keys below it are self-loops' (_EdgeColumns)


def _integer(value, what: str) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def _decimal(n: int) -> str:
    """n as a message shows it: str(n), or, past the interpreter's limit on
    the digits str() writes (4 300 by default), a stand-in naming that limit."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<more than {sys.get_int_max_str_digits()} digits>"


def _cycle_order(value) -> int:  # FamilySpec's rule, which min_path_order shares
    m = _integer(value, "cycle order")
    if m < 4 or m % 2:
        raise ValidationError(f"cycle order must be an even integer >= 4, got {m}")
    return m


@dataclass(frozen=True, init=False)
class Graph:
    """Undirected simple graph over vertex ids 0..vertex_count-1.

    Edges keep their construction order and endpoint orientation, so equality
    between graphs is exact. They are stored as two array('q') endpoint
    columns, _tails and _heads, filled and validated by _EdgeColumns (verify
    proves them simple from its verdict); `edges`, the (tail, head) pairs, is
    built from them on first use and cached. Instances never mutate after
    construction and can be shared freely between threads or processes.
    """

    vertex_count: int
    _tails: array
    _heads: array

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        # index() refuses floats and strings, and turns bools and other
        # __index__ ints into the int they stand for.
        try:
            ends = [index(end) for a, b in edges for end in (a, b)]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"edges must be pairs of integer vertex ids: {exc}") from None
        columns = _EdgeColumns()
        columns.add(ends[0::2], ends[1::2])
        self._adopt(vertex_count, columns)
        columns.check_simple(self.vertex_count)

    def _adopt(self, vertex_count, columns: _EdgeColumns) -> None:
        """Take the columns as this graph's edges once the vertex count is
        checked and every end is in range (check_simple proves the rest); only
        on a fault does the per-edge loop run, to name the first."""
        n = _vertex_count(vertex_count)
        if not (0 <= columns.low and columns.high < n):
            raise _first_fault(n, zip(columns.tails, columns.heads))
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "_tails", columns.tails)
        object.__setattr__(self, "_heads", columns.heads)

    def __hash__(self):
        return hash((self.vertex_count, self._tails.tobytes(), self._heads.tobytes()))

    def __repr__(self):
        return f"Graph(vertex_count={self.vertex_count!r}, edges={self.edges!r})"

    @property
    def edge_count(self) -> int:
        return len(self._tails)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._tails, self._heads))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in zip(self._tails, self._heads):
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(tuple(ns) for ns in nbrs)


def _graph(vertex_count: int, tails, heads) -> Graph:
    """The Graph with the edges (tails[i], heads[i]), validated like any
    other; the builders hand their array('q') columns over uncopied."""
    columns = _EdgeColumns()
    columns.add(tails, heads)
    return columns.graph(vertex_count)


class _EdgeColumns:
    """A graph's two endpoint columns, tails and heads, filled a chunk at a
    time, with the least and the greatest endpoint (0 and -1 before any
    edge), found by C-level passes over each chunk's ints before they are
    appended. The columns are array('q') until an id past their 64 bits
    turns up; they are lists from then on, and such an id fails every vertex
    count Graph allows.

    Once the range test passes, both ends lie in 0..M-1, where M is
    MAX_VERTICES and bounds every count Graph allows, so a + b < 2M: the key
    |a - b|*2M + (a + b) names an end pair in either orientation, a repeated
    key is a duplicate edge and a key below 2M a self-loop. check_simple
    keys the whole columns in one pass. No key depends on the vertex count."""

    __slots__ = ("low", "high", "tails", "heads")

    def __init__(self):
        self.low, self.high = 0, -1
        self.tails, self.heads = array("q"), array("q")

    def add(self, tails, heads) -> None:
        """Append the edges (tails[i], heads[i]): two equal-length int sequences."""
        if not tails:
            return
        low, high = min(min(tails), min(heads)), max(max(tails), max(heads))
        count = len(self.tails)
        if count:
            low, high = min(low, self.low), max(high, self.high)
        self.low, self.high = low, high
        if type(tails) is not array:  # a builder's columns are arrays already
            try:
                tails, heads = array("q", tails), array("q", heads)
            except OverflowError:
                # An id past 64 bits fails every vertex count Graph allows;
                # lists take this chunk and every later one.
                self.tails, self.heads = list(self.tails), list(self.heads)
        if count:
            self.tails += tails
            self.heads += heads
        else:  # the first chunk becomes the columns, uncopied
            self.tails, self.heads = tails, heads

    def check_simple(self, n: int) -> None:
        """Raise the first fault unless the edges, all in 0..n-1 (n at most
        M), are loop-free (no key below 2M) and distinct (no key repeated)."""
        tails, heads = self.tails, self.heads
        # One read of each column: an int object per endpoint, made once.
        keys = {abs(a - b) * _LOOP_KEYS + a + b for a, b in zip(tails, heads)}
        if min(keys, default=_LOOP_KEYS) < _LOOP_KEYS or len(keys) < len(tails):
            raise _first_fault(n, zip(tails, heads))

    def graph(self, vertex_count) -> Graph:
        """The Graph of these columns, which it takes uncopied, once checked."""
        g = self.unproven_graph(vertex_count)
        self.check_simple(g.vertex_count)
        return g

    def unproven_graph(self, vertex_count) -> Graph:
        """graph() without check_simple, for cli verify alone, which proves
        the graph simple from its verdict or else runs check_simple."""
        g = Graph.__new__(Graph)
        g._adopt(vertex_count, self)
        return g


def _vertex_count(value) -> int:
    n = _integer(value, "vertex count")
    if n < 0:
        raise ValidationError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValidationError(f"vertex count {_decimal(n)} exceeds the maximum {MAX_VERTICES}")
    return n


def _first_fault(n: int, edges) -> ValidationError:
    """The error for the first edge that is out of range, a self-loop or a
    repeat in either orientation; called only when the edges hold one."""
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        a, b = edge
        if not (0 <= a < n and 0 <= b < n):
            return ValidationError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
        if a == b:
            return ValidationError(f"self-loop at vertex {a}")
        # The reversed probe is a temporary, freed at once.
        if edge in seen or (b, a) in seen:
            return ValidationError(f"duplicate edge ({a}, {b})")
        seen.add(edge)
    raise AssertionError("no faulty edge among edges that failed a check")


@dataclass(frozen=True)
class FamilySpec:
    """Disjoint union of one even cycle and one path.

    ``edge_count`` is cycle_order + path_order - 1: the cycle contributes
    cycle_order edges, the path one fewer than its order. The union has
    cycle_order + path_order vertices, at most MAX_VERTICES.
    """

    cycle_order: int
    path_order: int

    def __post_init__(self):
        m = _integer(self.cycle_order, "cycle order")
        n = _integer(self.path_order, "path order")
        object.__setattr__(self, "cycle_order", _cycle_order(m))
        object.__setattr__(self, "path_order", n)
        if n < 2:
            raise ValidationError(f"path order must be at least 2, got {n}")
        if m + n > MAX_VERTICES:
            raise ValidationError(f"cycle + path order must be <= {MAX_VERTICES}, got {_decimal(m + n)}")

    @property
    def edge_count(self) -> int:
        return self.cycle_order + self.path_order - 1


def make_path(length: int) -> Graph:
    """Path on `length` vertices: edges (0,1), (1,2), ..., (length-2, length-1)."""
    length = _integer(length, "path length")
    if length < 1:
        raise ValidationError(f"path needs at least one vertex, got {length}")
    return _graph(length, array("q", range(length - 1)), array("q", range(1, length)))


def make_cycle(length: int) -> Graph:
    """Cycle on `length` vertices: edges (i, i+1 mod length) in ring order."""
    length = _integer(length, "cycle length")
    if length < 3:
        raise ValidationError(f"cycle needs at least three vertices, got {length}")
    return _graph(length, array("q", range(length)), array("q", chain(range(1, length), (0,))))


def make_union(spec: FamilySpec) -> Graph:
    """Disjoint union: cycle vertices are ids 0..cycle_order-1 in ring order,
    path vertices follow as ids cycle_order..cycle_order+path_order-1.

    Cycle edges come first in the edge list, then path edges, so edge-indexed
    reports line up with the construction order: edge i has tail i, and its
    head is i + 1 but for the cycle's closing edge, whose head is 0.
    labeling._family_chunks mirrors this edge order from the labels alone,
    and test_family_weights_match_the_graph checks that the two agree. The
    graph is validated like any other.
    """
    m, n = spec.cycle_order, spec.path_order
    heads = array("q", chain(range(1, m), (0,), range(m + 1, m + n)))
    return _graph(m + n, array("q", range(m + n - 1)), heads)
