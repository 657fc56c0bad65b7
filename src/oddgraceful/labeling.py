"""Vertex labelings and the odd-graceful verifier.

A labeling of a graph with q edges is odd graceful when it is an injection
from the vertices into {0, 1, ..., 2q-1} and the induced edge weights, the
absolute differences of endpoint labels, are exactly the odd numbers
{1, 3, ..., 2q-1}. The verifier checks those three conditions and reports
every violation it finds, each one citing the concrete vertices, edges, or
values involved, so a failing labeling can be reproduced and debugged from
the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, filterfalse
from typing import Union

from .errors import IncompleteLabelingError
from .graph import Graph


@dataclass(frozen=True)
class Labeling:
    """Total assignment of an integer label to each vertex, indexed by id."""

    labels: tuple[int, ...]


@dataclass(frozen=True)
class DuplicateVertexLabel:
    """One label value used by two or more vertices."""

    label: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class VertexLabelOutOfRange:
    """A vertex label outside {0, ..., 2q-1}."""

    vertex: int
    label: int


@dataclass(frozen=True)
class EdgeWeightEven:
    """An edge whose induced weight is even (weight 0 included)."""

    edge: tuple[int, int]
    weight: int


@dataclass(frozen=True)
class DuplicateEdgeWeight:
    """One weight value induced by two or more edges."""

    weight: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EdgeWeightSetMismatch:
    """Set difference between induced weights and the required odd values."""

    missing: tuple[int, ...]
    extra: tuple[int, ...]


Violation = Union[
    DuplicateVertexLabel,
    VertexLabelOutOfRange,
    EdgeWeightEven,
    DuplicateEdgeWeight,
    EdgeWeightSetMismatch,
]

# Serialization tags, one per violation type.
VIOLATION_KINDS = {
    DuplicateVertexLabel: "duplicate-vertex-label",
    VertexLabelOutOfRange: "vertex-label-out-of-range",
    EdgeWeightEven: "edge-weight-even",
    DuplicateEdgeWeight: "duplicate-edge-weight",
    EdgeWeightSetMismatch: "edge-weight-set-mismatch",
}


@dataclass(frozen=True)
class VerifyReport:
    """Verdict plus the full list of violations; ok is true iff the list is empty."""

    ok: bool
    violations: tuple[Violation, ...]

    def __post_init__(self):
        if self.ok != (not self.violations):
            raise ValueError("ok flag inconsistent with violation list")


def induced_weights(g: Graph, labeling: Labeling) -> tuple[int, ...]:
    """Induced weight |f(a) - f(b)| per edge, in the graph's edge order."""
    labels = _total_labels(g, labeling)
    return tuple([abs(labels[a] - labels[b]) for a, b in g.edges])


def complement_labeling(labeling: Labeling, edge_count: int) -> Labeling:
    """Reflect every label through 2q-1; preserves all induced edge weights."""
    top = 2 * edge_count - 1
    return Labeling(tuple(top - x for x in labeling.labels))


def verify_odd_graceful(g: Graph, labeling: Labeling) -> VerifyReport:
    """Check a labeling against the odd-graceful conditions.

    The report passes iff the labeling is injective, every label lies in
    {0, ..., 2q-1}, and the multiset of induced edge weights equals
    {1, 3, ..., 2q-1} exactly. On failure all violations are enumerated in a
    deterministic order: out-of-range labels in vertex order, duplicated
    labels by ascending label, even weights in edge order, duplicated weights
    by ascending weight, and finally the weight-set difference if any.
    """
    return _verify(g, labeling)[0]


def _verify(g: Graph, labeling: Labeling) -> tuple[VerifyReport, tuple[int, ...]]:
    """verify_odd_graceful plus the induced weights it computed, so a caller
    that also reports the weights does not compute them again.

    The verdict and the failure detail both come from one _scan of the
    labels and one of the weights. Distinct labels in [0, 2q-1] bound every
    weight by 2q-1, and q distinct odd weights in [1, 2q-1] cover the whole
    odd set, so the verdict needs no set comparison.
    """
    weights = induced_weights(g, labeling)  # checks that the labeling is total
    labels = labeling.labels
    limit = 2 * len(weights)
    _, label_repeats, label_outside = _scan(labels, limit)
    weight_marks, weight_repeats, weight_outside = _scan(weights, limit)
    even_marks = weight_marks[0::2]
    if not (label_repeats or label_outside or weight_repeats or weight_outside or 1 in even_marks):
        return VerifyReport(True, ()), weights

    violations: list[Violation] = []
    if label_outside:
        violations += [VertexLabelOutOfRange(v, x) for v, x in enumerate(labels)
                       if not 0 <= x < limit]
    violations += _collisions(DuplicateVertexLabel, labels, label_repeats, range(len(labels)))

    violations += [EdgeWeightEven(e, w) for e, w in zip(g.edges, weights) if w % 2 == 0]
    violations += _collisions(DuplicateEdgeWeight, weights, weight_repeats, g.edges)

    missing = tuple(filterfalse(weight_marks.__getitem__, range(1, limit, 2)))
    extra = tuple(compress(range(0, limit, 2), even_marks)) + tuple(sorted(weight_outside))
    if missing or extra:
        violations.append(EdgeWeightSetMismatch(missing, extra))

    # The verdict failed, so something must have been found.
    assert violations
    return VerifyReport(False, tuple(violations)), weights


def _total_labels(g: Graph, labeling: Labeling) -> tuple[int, ...]:
    labels = labeling.labels
    if len(labels) != g.vertex_count:
        raise IncompleteLabelingError(
            f"labeling covers {len(labels)} vertices, graph has {g.vertex_count}"
        )
    return labels


def _collisions(make, values, repeats: set, items) -> list:
    """make(value, items at its positions) per value in `repeats`, by
    ascending value; with no repeats nothing is built."""
    if not repeats:
        return []
    groups = {x: [] for x in sorted(repeats)}
    for x, item in compress(zip(values, items), map(repeats.__contains__, values)):
        groups[x].append(item)
    return [make(x, tuple(group)) for x, group in groups.items()]


def _scan(values, limit: int) -> tuple[bytearray, set, set]:
    """One pass over values: marks[x] is 1 for each x in [0, limit) that
    occurs; repeats holds each value seen more than once and outside each
    value not in [0, limit). Both sets stay empty for a valid labeling."""
    marks = bytearray(limit)
    repeats = set()
    outside = set()
    for x in values:
        if x < 0 or x >= limit:
            if x in outside:
                repeats.add(x)
            outside.add(x)
        elif marks[x]:
            repeats.add(x)
        else:
            marks[x] = 1
    return marks, repeats, outside
