"""Immutable graphs plus builders for paths, cycles, and their disjoint union."""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import add, index, itemgetter, mul, ne, sub

from .errors import ValidationError

# Largest vertex count of a Graph or FamilySpec, checked before any per-vertex
# allocation; about twice the largest family graph the acceptance tests build.
MAX_VERTICES = 2**22


def _integer(value, what: str) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


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
    columns, _tails and _heads; `edges`, the tuple of (tail, head) int pairs,
    is built from them on first use and cached. Instances never mutate after
    construction and can be shared freely between threads or processes.
    """

    vertex_count: int
    _tails: array
    _heads: array

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        # index() refuses floats and strings, and turns bools and other
        # __index__ ints into the int they stand for.
        try:
            pairs = [(index(a), index(b)) for a, b in edges]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"edges must be pairs of integer vertex ids: {exc}") from None
        n = _vertex_count(vertex_count)
        try:
            tails = array("q", map(itemgetter(0), pairs))
            heads = array("q", map(itemgetter(1), pairs))
        except OverflowError:  # an id past 64 bits is outside 0..n-1 for every allowed n
            raise _first_fault(n, pairs) from None
        self._adopt(n, tails, heads)

    def _adopt(self, n: int, tails: array, heads: array, facts: _EdgeFacts | None = None) -> None:
        """Take the columns as this graph's edges once the facts gathered
        from them fit n; only on a fault does the per-edge loop run, to name
        the first. Without facts, the columns are fed to new ones whole. The
        edge-list parser passes the facts it fed a slice at a time."""
        if facts is None:
            facts = _EdgeFacts(n)
            facts.add(tails, heads)
        assert facts.count == len(tails), "every edge is fed to the facts once"
        if not facts.fit(n):
            raise _first_fault(n, zip(tails, heads))
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "_tails", tails)
        object.__setattr__(self, "_heads", heads)

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


def _graph(vertex_count: int, tails: array, heads: array, facts: _EdgeFacts | None = None) -> Graph:
    """The Graph with these endpoint columns, validated like any other; the
    edge-list parser and the builders hand their arrays over uncopied, the
    parser with the facts it gathered from every edge it appended."""
    g = Graph.__new__(Graph)
    g._adopt(_vertex_count(vertex_count), tails, heads, facts)
    return g


class _EdgeFacts:
    """What validating a graph needs to know of its edges, gathered a chunk
    at a time by C-level passes over ints that already exist: the least and
    the greatest endpoint (0 and -1 before any edge), whether some edge is a
    self-loop, the edge count, and the set of orientation-free keys
    (a + b)*base + |a - b|, in which a duplicate is a key seen twice.

    The keys are unique while both ends lie in 0..base-1. So base is the
    given vertex count when it is one Graph allows, else MAX_VERTICES, which
    bounds every allowed count; an end outside 0..n-1 fails fit's range test
    whatever its keys."""

    __slots__ = ("base", "low", "high", "loop", "count", "keys")

    def __init__(self, vertex_count: int | None = None):
        allowed = vertex_count is not None and 0 <= vertex_count <= MAX_VERTICES
        self.base = vertex_count if allowed else MAX_VERTICES
        self.low, self.high, self.loop, self.count = 0, -1, False, 0
        self.keys: set[int] = set()

    def add(self, tails, heads) -> None:
        """Feed the edges (tails[i], heads[i]): two equal-length int sequences."""
        if not tails:
            return
        low, high = min(min(tails), min(heads)), max(max(tails), max(heads))
        if self.count:
            low, high = min(low, self.low), max(high, self.high)
        self.low, self.high = low, high
        self.loop = self.loop or not all(map(ne, tails, heads))
        self.count += len(tails)
        self.keys.update(map(add, map(mul, map(add, tails, heads), repeat(self.base)),
                             map(abs, map(sub, tails, heads))))

    def fit(self, n: int) -> bool:
        """Whether the edges fed are in 0..n-1, loop-free and distinct."""
        return 0 <= self.low and self.high < n and not self.loop and len(self.keys) == self.count


def _vertex_count(value) -> int:
    n = _integer(value, "vertex count")
    if n < 0:
        raise ValidationError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValidationError(f"vertex count {n} exceeds the maximum {MAX_VERTICES}")
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
            raise ValidationError(f"cycle + path order must be <= {MAX_VERTICES}, got {m + n}")

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
    labeling._family_weights mirrors this edge order from the labels alone,
    and test_family_weights_match_the_graph checks that the two agree. The
    graph is validated like any other.
    """
    m, n = spec.cycle_order, spec.path_order
    heads = array("q", chain(range(1, m), (0,), range(m + 1, m + n)))
    return _graph(m + n, array("q", range(m + n - 1)), heads)
