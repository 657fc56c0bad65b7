"""The public surface, pinned: removing or adding a name must be deliberate."""

import dataclasses
import importlib

import pytest

import oddgraceful
from oddgraceful import ParseError, ValidationError

PUBLIC_NAMES = [
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
    "__version__",
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

# Submodule names the benchmark (perfbench/replay.py, perfbench/run.py) imports.
BENCHMARK_IMPORTS = {
    "cli": ["run"],
    "construct": ["BoundPolicy", "label_algorithmic", "label_closed_form"],
    "graph": ["FamilySpec", "Graph", "make_union"],
    "io_formats": [
        "build_labeling_document",
        "emit_report",
        "parse_edge_list",
        "parse_labeling_document",
    ],
    "labeling": ["Labeling", "verify_odd_graceful"],
    "search": ["SearchConfig", "SearchVerdict", "parity_precheck", "search_odd_graceful"],
}


def test_public_names_are_pinned():
    assert sorted(oddgraceful.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(oddgraceful, name)] == []


def test_benchmark_imports_exist():
    missing = [
        f"oddgraceful.{module}.{name}"
        for module, names in BENCHMARK_IMPORTS.items()
        for name in names
        if not hasattr(importlib.import_module(f"oddgraceful.{module}"), name)
    ]
    assert missing == []
    # The replay names its construct span after the function it calls, and
    # calls parity_precheck with the graph alone.
    from oddgraceful.construct import label_algorithmic, label_closed_form
    from oddgraceful.search import parity_precheck

    assert label_closed_form.__name__ == "label_closed_form"
    assert label_algorithmic.__name__ == "label_algorithmic"
    parity_precheck(oddgraceful.make_path(2))


def test_search_config_fields_are_the_ones_the_benchmark_sets():
    fields = [f.name for f in dataclasses.fields(oddgraceful.SearchConfig)]
    assert fields == ["node_budget", "find_all"]


def test_search_config_parity_precheck_is_gone():
    with pytest.raises(TypeError, match="parity_precheck"):
        oddgraceful.SearchConfig(**{"parity_precheck": False})


ONE_WEIGHT_FOR_TWO_EDGES = (
    '{"kind": "labeling", "family": null, "edge_count": 2, "labels": [0, 1, 2], '
    '"weights": [1], "ok": true}'
)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: oddgraceful.Graph(2.5), ValidationError),
        (lambda: oddgraceful.make_path(2.5), ValidationError),
        (lambda: oddgraceful.FamilySpec(4.0, 3), ValidationError),
        (lambda: oddgraceful.SearchConfig(node_budget=2.5), ValidationError),
        (lambda: oddgraceful.Graph(2**22 + 1), ValidationError),
        (lambda: oddgraceful.FamilySpec(4, 2**22), ValidationError),
        (lambda: oddgraceful.parse_edge_list("graph 2\n0 5\n"), ValidationError),
        (lambda: oddgraceful.parse_labeling_document(ONE_WEIGHT_FOR_TWO_EDGES), ValidationError),
        (lambda: oddgraceful.parse_labeling_document('{"kind": '), ParseError),
        (lambda: oddgraceful.parse_edge_list("graph x\n"), ParseError),
    ],
    ids=[
        "graph-non-integer", "path-non-integer", "family-non-integer", "budget-non-integer",
        "graph-vertex-bound", "family-vertex-bound", "edge-past-header", "document-counts",
        "malformed-json", "malformed-header",
    ],
)
def test_one_error_type_per_rule(call, error):
    # A value that breaks a rule raises ValidationError, whichever constructor
    # checks it; a text that is not in its format raises ParseError.
    with pytest.raises(oddgraceful.OddGracefulError) as exc_info:
        call()
    assert type(exc_info.value) is error
