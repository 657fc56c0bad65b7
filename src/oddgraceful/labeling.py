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
from itertools import chain, compress, count, islice
from operator import sub
from typing import Union

from .errors import ValidationError
from .graph import FamilySpec, Graph, _integer


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
    """The full list of violations; the labeling passes iff it is empty."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def induced_weights(g: Graph, labeling: Labeling) -> tuple[int, ...]:
    """Induced weight |f(a) - f(b)| per edge, in the graph's edge order."""
    labels = _total_labels(g.vertex_count, labeling)
    return tuple([abs(labels[a] - labels[b]) for a, b in zip(g._tails, g._heads)])


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
    by ascending weight, and finally the weight-set difference if any. The
    detail is built from the two scans that _verdict reads the verdict from.
    A labeling whose length is not the vertex count raises ValidationError,
    and then so does a label that is not an integer, naming its vertex.
    """
    labels = _total_labels(g.vertex_count, labeling)
    # type() rather than isinstance(): bool is a subclass of int. Only on a
    # miss is each label offered to index(), which names the first one it
    # refuses and turns the rest, bools included, into ints for the report.
    if not set(map(type, labels)) <= {int}:
        labels = tuple([_integer(x, f"label of vertex {v}") for v, x in enumerate(labels)])
        labeling = Labeling(labels)
    weights = induced_weights(g, labeling)
    limit = 2 * len(weights)
    label_scan, weight_scan = _scan(labels, limit), _scan(weights, limit)
    if _verdict(label_scan, weight_scan):
        return VerifyReport(())

    # The detail reads only the weight marks: the label marks are freed here.
    label_repeats, label_outside = label_scan[1:]
    weight_marks, weight_repeats, weight_outside = weight_scan
    del label_scan, weight_scan
    violations: list[Violation] = []
    if label_outside:
        violations += [VertexLabelOutOfRange(v, x) for v, x in enumerate(labels)
                       if not 0 <= x < limit]
    violations += [DuplicateVertexLabel(x, tuple(vertices))
                   for x, vertices in _positions(labels, label_repeats).items()]

    # The edges a violation cites are those whose weight is even or repeats:
    # one C-level pass finds them in edge order, and an edge's (a, b) pair is
    # built only for them.
    evens = [2 * i for i in _find_all(weight_marks[0::2], 1)]
    outside = sorted(weight_outside)
    suspects = {*evens, *(w for w in outside if w % 2 == 0), *weight_repeats}
    cited = [(i, weights[i]) for i in compress(count(), map(suspects.__contains__, weights))]
    tails, heads = g._tails, g._heads
    violations += [EdgeWeightEven((tails[i], heads[i]), w) for i, w in cited if w % 2 == 0]
    groups = {w: [] for w in sorted(weight_repeats)}
    for i, w in cited:
        if w in groups:
            groups[w].append((tails[i], heads[i]))
    violations += [DuplicateEdgeWeight(w, tuple(edges)) for w, edges in groups.items()]

    missing = tuple([2 * i + 1 for i in _find_all(weight_marks[1::2], 0)])
    extra = (*evens, *outside)
    if missing or extra:
        violations.append(EdgeWeightSetMismatch(missing, extra))

    # The verdict failed, so something must have been found.
    assert violations
    return VerifyReport(tuple(violations))


def _verdict(label_scan: tuple, weight_scan: tuple) -> bool:
    """Whether labels and their induced weights are odd graceful, from the
    _scan of the labels and the _scan of the weights, q of them, both made
    with the limit 2q.

    Distinct labels in [0, 2q-1] bound every weight by 2q-1, and q distinct
    odd weights in [1, 2q-1] cover the whole odd set, so the verdict needs
    no set comparison: no value repeats or falls outside, and no weight is even.
    """
    return not (any(label_scan[1:]) or any(weight_scan[1:]) or 1 in weight_scan[0][0::2])


def _family_chunks(spec: FamilySpec, labels, size: int):
    """The labels of make_union(spec)'s vertices, an iterable of ints, drawn
    size at a time as lists, each paired with the list of the weights its
    labels complete, so that the weight lists, joined, are induced_weights
    of the graph in its edge order: the m cycle weights |l[i] - l[(i+1) mod m]|,
    then the path weights |l[j] - l[j+1]| for m <= j < m+n-1. A weight is
    made when its edge's later label is drawn, from the chunk and the label
    carried from the chunk before; among the right ends label m gives way to
    label 0, on which edge m-1 closes the cycle. A weight list may be empty.
    Once the labels run out, a count other than the vertex count raises
    ValidationError with _total_labels' message.
    """
    m = spec.cycle_order
    labels = iter(labels)
    carried = ()  # the last label of the chunk before; none before the first
    drawn = 0
    while chunk := list(islice(labels, size)):
        if not drawn:
            first = chunk[0]
        rights = chunk
        seam = m - drawn  # label m's place in the chunk
        if 0 <= seam < len(chunk):
            rights = chunk.copy()
            rights[seam] = first
        lefts = chain(carried, chunk)
        weights = list(map(abs, map(sub, lefts, islice(rights, 1 - len(carried), None))))
        yield chunk, weights
        carried = chunk[-1:]
        drawn += len(chunk)
    _check_count(drawn, m + spec.path_order)


def _total_labels(vertex_count: int, labeling: Labeling) -> tuple[int, ...]:
    _check_count(len(labeling.labels), vertex_count)
    return labeling.labels


def _check_count(count: int, vertex_count: int) -> None:
    if count != vertex_count:
        raise ValidationError(f"labeling covers {count} vertices, graph has {vertex_count}")


def _positions(values, repeats: set) -> dict[int, list[int]]:
    """The positions of each value in `repeats`, by ascending value; with no
    repeats nothing is scanned."""
    groups = {x: [] for x in sorted(repeats)}
    if repeats:
        for i in compress(count(), map(repeats.__contains__, values)):
            groups[values[i]].append(i)
    return groups


def _find_all(marks: bytes, value: int):
    """The positions of value in marks, ascending, each found by a C-level
    find from the one before."""
    i = marks.find(value)
    while i >= 0:
        yield i
        i = marks.find(value, i + 1)


def _scan(values, limit: int, into: tuple | None = None) -> tuple[bytearray, set, set]:
    """One pass over values: marks[x] is 1 for each x in [0, limit) that
    occurs; repeats holds each value seen more than once and outside each
    value not in [0, limit). Both sets stay empty for a valid labeling.
    into, a scan this returned for the same limit, is filled further and
    returned, so values drawn in chunks scan as if they came at once."""
    marks, repeats, outside = into or (bytearray(limit), set(), set())
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
