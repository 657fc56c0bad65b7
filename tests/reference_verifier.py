"""Reference verifier for differential tests: the dict-of-lists body that
oddgraceful.labeling.verify_odd_graceful had in version 0.3.0. It groups
every label and every weight, so it is slow and memory-hungry on large failing
inputs, but its output defines the expected report, violation order included.
It runs no quick pass: the verdict is ok exactly when no violation is found,
so it does not share the package's flat-array check."""

from collections import defaultdict

from oddgraceful.graph import Graph
from oddgraceful.labeling import (
    DuplicateEdgeWeight,
    DuplicateVertexLabel,
    EdgeWeightEven,
    EdgeWeightSetMismatch,
    Labeling,
    Violation,
    VerifyReport,
    VertexLabelOutOfRange,
    _total_labels,
)


def reference_verify_odd_graceful(g: Graph, labeling: Labeling) -> VerifyReport:
    labels = _total_labels(g.vertex_count, labeling)
    q = g.edge_count
    top = 2 * q - 1
    violations: list[Violation] = []

    by_label: dict[int, list[int]] = defaultdict(list)
    for v, x in enumerate(labels):
        if x < 0 or x > top:
            violations.append(VertexLabelOutOfRange(v, x))
        by_label[x].append(v)
    for x in sorted(by_label):
        vs = by_label[x]
        if len(vs) > 1:
            violations.append(DuplicateVertexLabel(x, tuple(vs)))

    by_weight: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for a, b in g.edges:
        w = abs(labels[a] - labels[b])
        if w % 2 == 0:
            violations.append(EdgeWeightEven((a, b), w))
        by_weight[w].append((a, b))
    for w in sorted(by_weight):
        es = by_weight[w]
        if len(es) > 1:
            violations.append(DuplicateEdgeWeight(w, tuple(es)))

    required = set(range(1, 2 * q, 2))
    present = set(by_weight)
    missing = tuple(sorted(required - present))
    extra = tuple(sorted(present - required))
    if missing or extra:
        violations.append(EdgeWeightSetMismatch(missing, extra))

    return VerifyReport(tuple(violations))
