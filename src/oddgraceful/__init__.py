"""Odd-graceful labelings of one even cycle plus one path, end to end:
closed-form and pass-based constructors, a verifier for arbitrary labelings,
an exhaustive search oracle for small graphs, and text formats for all of it.
"""

from ._version import __version__
from .construct import (
    BoundPolicy,
    label_algorithmic,
    label_closed_form,
    label_short_path,
    min_path_order,
)
from .errors import (
    OddGracefulError,
    ParseError,
    ValidationError,
)
from .graph import (
    FamilySpec,
    Graph,
    make_cycle,
    make_path,
    make_union,
)
from .io_formats import (
    LabelingDocument,
    build_labeling_document,
    emit_dot,
    emit_edge_list,
    emit_report,
    parse_edge_list,
    parse_labeling_document,
)
from .labeling import (
    DuplicateEdgeWeight,
    DuplicateVertexLabel,
    EdgeWeightEven,
    EdgeWeightSetMismatch,
    Labeling,
    VertexLabelOutOfRange,
    VerifyReport,
    complement_labeling,
    induced_weights,
    verify_odd_graceful,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    SearchVerdict,
    parity_precheck,
    search_odd_graceful,
)

__all__ = [
    "__version__",
    "BoundPolicy",
    "DuplicateEdgeWeight",
    "DuplicateVertexLabel",
    "EdgeWeightEven",
    "EdgeWeightSetMismatch",
    "FamilySpec",
    "Graph",
    "Labeling",
    "LabelingDocument",
    "OddGracefulError",
    "ParseError",
    "SearchConfig",
    "SearchOutcome",
    "SearchVerdict",
    "ValidationError",
    "VerifyReport",
    "VertexLabelOutOfRange",
    "build_labeling_document",
    "complement_labeling",
    "emit_dot",
    "emit_edge_list",
    "emit_report",
    "induced_weights",
    "label_algorithmic",
    "label_closed_form",
    "label_short_path",
    "make_cycle",
    "make_path",
    "make_union",
    "min_path_order",
    "parity_precheck",
    "parse_edge_list",
    "parse_labeling_document",
    "search_odd_graceful",
    "verify_odd_graceful",
]
