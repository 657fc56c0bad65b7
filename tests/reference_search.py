"""Reference enumerator for differential tests of the search oracle.

Plain recursive backtracking straight from the definition: vertices in id
order, every label 0..2q-1 tried in ascending order at every vertex, and a
candidate kept when its label is unused and each edge to an earlier vertex
gets an odd weight that no other edge has. There is no parity, head or stride
logic, and nothing is imported from oddgraceful.search, so the oracle's
pruning is checked against a search that has none. It returns every labeling,
in lexicographic order of the label tuples. Recursion depth is the vertex
count, so it is for small graphs only."""

from oddgraceful.graph import Graph
from oddgraceful.labeling import Labeling


def reference_labelings(g: Graph) -> list[Labeling]:
    n = g.vertex_count
    top = 2 * g.edge_count
    earlier: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.edges:
        earlier[max(a, b)].append(min(a, b))
    labels = [-1] * n
    used_labels: set[int] = set()
    used_weights: set[int] = set()
    found: list[Labeling] = []

    def place(v: int) -> None:
        if v == n:
            found.append(Labeling(tuple(labels)))
            return
        for x in range(top):
            if x in used_labels:
                continue
            weights = {abs(x - labels[u]) for u in earlier[v]}
            if len(weights) != len(earlier[v]):
                continue
            if any(w % 2 == 0 or w in used_weights for w in weights):
                continue
            labels[v] = x
            used_labels.add(x)
            used_weights.update(weights)
            place(v + 1)
            used_labels.discard(x)
            used_weights.difference_update(weights)
        labels[v] = -1

    place(0)
    return found
