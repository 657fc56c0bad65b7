"""Exhaustive backtracking oracle for odd-gracefulness of small graphs.

The search assigns labels to vertices in increasing id order, trying
candidate labels in ascending numeric order, so the first labeling found is
the lexicographically least solution read in vertex-id order and the whole
run is deterministic. Pruning: a vertex's candidates are one bit mask, the
free labels of its color's parity minus those that would give an edge to a
labeled neighbour a used weight, and the lowest of them whose edges to its
labeled neighbours have distinct weights is taken; the coloring makes every
weight odd. Odd weights force opposite label parity across every edge, so a
graph containing an odd cycle has no labeling at all; such graphs are
rejected immediately with a witness cycle.
A graph with more vertices than the 2q labels 0..2q-1 has none either, by
pigeonhole, and is rejected before anything is allocated.

The precheck is one breadth-first walk that two-colors each component from
its smallest vertex, its head. The head keeps both parities available, which
explores both polarities exactly once each, and every later vertex takes its
color's parity; solution counts in find_all mode are therefore exact. Only
the first solution is kept as a labeling and the rest are counted, so the
memory of find_all does not grow with the count. The depth-first walk is one
loop over an explicit stack, so no graph size hits Python's recursion limit.

Exhaustion (find_all, or proving that none exists) takes seconds up to about
10 edges, and each further edge multiplies the nodes by 5 to 7; a first hit
may come at 18 edges (C18) or not within 10 M nodes at 12 (P13). Beyond
that, set a node budget and treat the outcome as inconclusive.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .errors import ValidationError
from .graph import Graph, _integer
from .labeling import Labeling


class SearchVerdict(enum.Enum):
    FOUND = "found"
    EXHAUSTED_NOT_FOUND = "exhausted-not-found"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchConfig:
    """node_budget caps backtrack nodes (None = run to exhaustion; a budget
    that is negative or not an integer raises ValidationError);
    find_all counts every solution instead of stopping at the first."""

    node_budget: int | None = None
    find_all: bool = False

    def __post_init__(self):
        if self.node_budget is not None:
            budget = _integer(self.node_budget, "node budget")
            if budget < 0:
                raise ValidationError(f"node budget must be non-negative, got {budget}")
            object.__setattr__(self, "node_budget", budget)


@dataclass(frozen=True)
class SearchOutcome:
    verdict: SearchVerdict
    labeling: Labeling | None
    nodes_explored: int
    solutions_found: int
    odd_cycle_witness: tuple[int, ...] | None = None


def parity_precheck(g: Graph) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """(coloring, None) with the color of each vertex, or (None, odd_cycle) with a
    witness cycle, closed by its last edge, proving no two-coloring exists."""
    coloring, _, odd_cycle = _two_color(g)
    return coloring, odd_cycle


def _two_color(g: Graph):
    """parity_precheck's walk, which also returns head: head[v] is the smallest
    vertex of v's component, where its walk started with color 0."""
    color = [-1] * g.vertex_count
    head = list(range(g.vertex_count))
    parent = [-1] * g.vertex_count
    adj = g.adjacency
    for start in range(g.vertex_count):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    head[v] = start
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return None, None, _extract_cycle(u, v, parent)
    return tuple(color), head, None


def search_odd_graceful(g: Graph, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Decide odd-gracefulness of g by pruned exhaustive search.

    FOUND carries the first labeling found, which the verifier accepts (in
    find_all mode, full enumeration finished, `solutions_found` is the exact
    count and no other labeling is kept). EXHAUSTED_NOT_FOUND is returned only
    after the entire pruned space was covered without a budget cut, and is
    therefore a proof of nonexistence. BUDGET_EXCEEDED reports the node count
    at the cut.
    """
    if g.vertex_count > 2 * g.edge_count:
        # Pigeonhole: the vertices need distinct labels from 0..2q-1.
        return _none_exists()
    coloring, head, odd_cycle = _two_color(g)
    if odd_cycle is not None:
        return _none_exists(odd_cycle)

    return _enumerate(g, cfg, coloring, head)


def _none_exists(witness: tuple[int, ...] | None = None) -> SearchOutcome:
    """EXHAUSTED_NOT_FOUND proven before any node is explored."""
    return SearchOutcome(SearchVerdict.EXHAUSTED_NOT_FOUND, None, 0, 0, witness)


def _enumerate(g, cfg, coloring, head):
    """Depth-first enumeration core: one loop over an explicit stack, where
    depth v labels vertex v and resumes at labels[v] + 1, which is 0 while
    labels[v] is -1; coloring and head come from _two_color. Bit x of free is
    set while label x is unused, and bits limit + w and limit - w of weights
    are set for each weight w in use, so a neighbour labeled a forbids the
    labels weights >> (limit - a). Each visit of a depth builds its candidate
    mask from these and pops its lowest bit until one gives distinct weights
    to the vertex's labeled neighbours, and commits that; a depth that runs
    out resets its label to -1. Nothing else is kept per depth.

    Returns the SearchOutcome; a node is counted each time a candidate label
    survives all filters and is committed. Only the first solution becomes a
    Labeling; the rest are only counted. Requires vertex_count <= 2 * edge_count.
    """
    nv, limit = g.vertex_count, 2 * g.edge_count
    earlier = [tuple(u for u in ns if u < v) for v, ns in enumerate(g.adjacency)]
    even = ((1 << limit) - 1) // 3
    parity = (even, even << 1)

    labels = [-1] * nv
    free = (1 << limit) - 1
    weights = 0
    budget = cfg.node_budget
    nodes = sols = 0
    first: Labeling | None = None

    v = 0
    while v >= 0:
        if v == nv:
            sols += 1
            if first is None:
                first = Labeling(tuple(labels))
            if not cfg.find_all:
                break
        else:
            s = labels[v] + 1
            mask = free >> s << s
            if head[v] != v:
                # The head has color 0, so its label's parity is color 0's;
                # colors differ across an edge, so every weight is odd.
                mask &= parity[(labels[head[v]] ^ coloring[v]) & 1]
            ev = earlier[v]
            for u in ev:
                # A neighbour labeled a forbids a + w and a - w for each used w.
                mask &= ~(weights >> (limit - labels[u]))
            while mask:
                x = (mask & -mask).bit_length() - 1
                if len(ev) < 2 or len({abs(x - labels[u]) for u in ev}) == len(ev):
                    break
                # Two neighbours at equal distance would give the same weight.
                mask ^= 1 << x
            if mask:
                if nodes == budget:
                    return SearchOutcome(SearchVerdict.BUDGET_EXCEEDED, first, nodes, sols)
                nodes += 1
                labels[v] = x
                free ^= 1 << x
                for u in ev:
                    w = abs(x - labels[u])
                    weights |= (1 << (limit + w)) | (1 << (limit - w))
                v += 1
                continue
            labels[v] = -1
        # Backtrack one depth: free that vertex's label and its weights.
        v -= 1
        if v >= 0:
            x = labels[v]
            free |= 1 << x
            for u in earlier[v]:
                w = abs(x - labels[u])
                weights ^= (1 << (limit + w)) | (1 << (limit - w))
    verdict = SearchVerdict.FOUND if sols else SearchVerdict.EXHAUSTED_NOT_FOUND
    return SearchOutcome(verdict, first, nodes, sols)


def _extract_cycle(u: int, v: int, parent: list[int]) -> tuple[int, ...]:
    """Cycle through the tree paths of u and v plus the conflicting edge (v, u)."""
    up = [u]
    while parent[up[-1]] != -1:
        up.append(parent[up[-1]])
    index = {w: i for i, w in enumerate(up)}
    vp = [v]
    while vp[-1] not in index:
        vp.append(parent[vp[-1]])
    meet = vp[-1]
    cycle = up[: index[meet] + 1]
    cycle.extend(reversed(vp[:-1]))
    return tuple(cycle)
