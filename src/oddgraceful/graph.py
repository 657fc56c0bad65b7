"""Immutable graphs plus builders for paths, cycles, and their disjoint union."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise
from operator import index

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


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over vertex ids 0..vertex_count-1.

    Edges keep their construction order and endpoint orientation, so equality
    between graphs is exact. Instances never mutate after construction and can
    be shared freely between threads or processes.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        edges = self.edges
        # A tuple of int 2-tuples is kept as given; anything else (lists, bools,
        # other __index__ ints) is rebuilt. type() rather than isinstance():
        # bool is a subclass of int. index() refuses floats and strings.
        if not (
            type(edges) is tuple
            and set(map(type, edges)) <= {tuple}
            and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {int}
        ):
            try:
                edges = tuple((index(a), index(b)) for a, b in edges)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"edges must be pairs of integer vertex ids: {exc}") from None
            object.__setattr__(self, "edges", edges)
        n = _integer(self.vertex_count, "vertex count")
        object.__setattr__(self, "vertex_count", n)
        if n < 0:
            raise ValidationError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise ValidationError(f"vertex count {n} exceeds the maximum {MAX_VERTICES}")
        seen: set[tuple[int, int]] = set()  # the graph's own edge tuples, no new keys
        for edge in edges:
            a, b = edge
            if not (0 <= a < n and 0 <= b < n):
                raise ValidationError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
            if a == b:
                raise ValidationError(f"self-loop at vertex {a}")
            # The reversed probe is a temporary, freed at once.
            if edge in seen or (b, a) in seen:
                raise ValidationError(f"duplicate edge ({a}, {b})")
            seen.add(edge)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(tuple(ns) for ns in nbrs)


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
    return Graph(length, tuple(pairwise(range(length))))


def make_cycle(length: int) -> Graph:
    """Cycle on `length` vertices: edges (i, i+1 mod length) in ring order."""
    length = _integer(length, "cycle length")
    if length < 3:
        raise ValidationError(f"cycle needs at least three vertices, got {length}")
    return Graph(length, tuple((i, (i + 1) % length) for i in range(length)))


def make_union(spec: FamilySpec) -> Graph:
    """Disjoint union: cycle vertices are ids 0..cycle_order-1 in ring order,
    path vertices follow as ids cycle_order..cycle_order+path_order-1.

    Cycle edges come first in the edge list, then path edges, so edge-indexed
    reports line up with the construction order. labeling._family_weights
    mirrors this edge order from the labels alone, and
    test_family_weights_match_the_graph checks that the two agree. The graph
    is validated like any other.
    """
    m, n = spec.cycle_order, spec.path_order
    cycle = ((i, (i + 1) % m) for i in range(m))
    return Graph(m + n, tuple(chain(cycle, pairwise(range(m, m + n)))))
