import dataclasses
import hashlib
import json
import random
import re
import sys
import tracemalloc
from array import array
from functools import partial
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddgraceful import (
    FamilySpec,
    Graph,
    Labeling,
    ParseError,
    SearchConfig,
    ValidationError,
    __version__,
    build_labeling_document,
    emit_dot,
    emit_edge_list,
    emit_report,
    label_closed_form,
    make_cycle,
    make_path,
    make_union,
    parse_edge_list,
    parse_labeling_document,
    search_odd_graceful,
    verify_odd_graceful,
)
from oddgraceful import io_formats
from oddgraceful.construct import BoundPolicy
from oddgraceful.graph import MAX_VERTICES
from oddgraceful.io_formats import (
    REPORT_VERSION,
    _CHUNK,
    LabelingDocument,
    _plain_endpoints,
    _report_parts,
    _slices,
)
from oddgraceful.labeling import (
    VIOLATION_KINDS,
    DuplicateEdgeWeight,
    DuplicateVertexLabel,
    EdgeWeightEven,
    EdgeWeightSetMismatch,
    VerifyReport,
    VertexLabelOutOfRange,
)
from oddgraceful.search import SearchOutcome, SearchVerdict

from reference_graph import reference_parse_edge_list, reference_validate
from strategies import EDGE_LIST_LINES, family_specs, labeling_texts, small_graphs
from test_graph import raw_edge_lists

C4_P3 = Labeling((0, 11, 2, 7, 1, 4, 3))


def test_parse_simple_path():
    assert parse_edge_list("0 1\n1 2") == make_path(3)


def test_parse_with_header():
    text = "graph 4\n0 1\n1 2\n2 3\n3 0"
    assert parse_edge_list(text) == make_cycle(4)


def test_parse_header_declares_isolated_vertices():
    g = parse_edge_list("graph 5\n0 1")
    assert g.vertex_count == 5
    assert g.edges == ((0, 1),)


def test_parse_comments_and_blank_lines():
    text = "# a path\n\n0 1  # first edge\n1 2\n"
    assert parse_edge_list(text) == make_path(3)


def test_parse_empty_text_is_empty_graph():
    assert parse_edge_list("") == Graph(0)


def test_parse_rejects_self_loop():
    with pytest.raises(ValidationError):
        parse_edge_list("0 0")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ValidationError):
        parse_edge_list("0 1\n1 0")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list("0 1\nnot an edge\n2 3")
    assert exc_info.value.line == 2
    assert "line 2" in str(exc_info.value)


def test_parse_rejects_late_header():
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list("0 1\ngraph 4")
    assert exc_info.value.line == 2


def test_parse_rejects_three_endpoints():
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2")


@pytest.mark.parametrize("header", ["graph", "graph 3 4", "graph x"])
def test_parse_rejects_malformed_header(header):
    with pytest.raises(ParseError) as exc_info:
        parse_edge_list(f"{header}\n0 1\n")
    assert exc_info.value.line == 1


@settings(max_examples=80)
@given(small_graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(emit_edge_list(g)) == g


def test_dot_with_labeling():
    g = make_union(FamilySpec(4, 3))
    text = emit_dot(g, C4_P3)
    assert text.startswith("graph G {")
    assert '1 [label="11"];' in text
    assert '0 -- 1 [label="11"];' in text
    assert '4 -- 5 [label="3"];' in text


def test_dot_without_labeling_uses_bare_ids():
    text = emit_dot(make_path(2))
    assert "  0;" in text
    assert "  0 -- 1;" in text
    assert "label=" not in text


def test_dot_empty_graph():
    assert emit_dot(Graph(0)) == "graph G {\n}\n"


def test_dot_text_pinned():
    # The text written by version 0.3.0, labeled and bare.
    labeled = (
        'graph G {\n  0 [label="0"];\n  1 [label="11"];\n  2 [label="2"];\n  3 [label="7"];\n'
        '  4 [label="1"];\n  5 [label="4"];\n  6 [label="3"];\n  0 -- 1 [label="11"];\n'
        '  1 -- 2 [label="9"];\n  2 -- 3 [label="5"];\n  3 -- 0 [label="7"];\n'
        '  4 -- 5 [label="3"];\n  5 -- 6 [label="1"];\n}\n'
    )
    assert emit_dot(make_union(FamilySpec(4, 3)), C4_P3) == labeled
    assert emit_dot(make_path(3)) == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"


def test_parse_edge_list_rejects_vertex_count_past_bound():
    with pytest.raises(ValidationError, match="exceeds the maximum"):
        parse_edge_list(f"graph {MAX_VERTICES + 1}\n0 1\n")
    # Without a header the count is implied by the largest id.
    with pytest.raises(ValidationError, match="exceeds the maximum"):
        parse_edge_list("0 1000000000000\n")


# Every line break str.splitlines knows, \r\n among them, and line content.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINE_PIECES = [*LINE_BREAKS, " ", "0", "7", "#"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join), st.integers(0, 8))
def test_slices_join_to_text_and_its_lines(text, size):
    slices = list(_slices(text, size))
    assert "".join(slices) == text
    assert [line for piece in slices for line in piece.splitlines()] == text.splitlines()
    # The first line alone, then slices cut just after a newline.
    first = text.find("\n") + 1 or len(text)
    assert slices[:1] == ([text[:first]] if text else [])
    assert all(piece.endswith("\n") for piece in slices[:-1])
    assert all(len(piece) > size for piece in slices[1:-1])


def test_plain_endpoints_reads_only_plain_slices():
    assert _plain_endpoints("0 1\n12 7\n") == [0, 1, 12, 7]
    assert _plain_endpoints(f"{2**63 - 1} 0\n") == [2**63 - 1, 0]
    assert _plain_endpoints(f"{2**63} 1\n") == [2**63, 1]
    # Each of these goes to the per-line loop, which defines the format.
    for piece in ["", "0 1", "0 1\n2 3", "0 1\r\n", "0\t1\n", "0  1\n", " 0 1\n", "0 1 \n",
                  "0 \n", " 1\n", "\n", "0 1\n\n", "007 1\n", "+1 2\n", "-1 2\n", "\u0663 1\n",
                  "0 1 # c\n", "graph 3\n", "0 1 2\n", f"{'9' * 5000} 1\n"]:
        assert _plain_endpoints(piece) is None, piece


PLAIN_LINES = st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda e: f"{e[0]} {e[1]}\n")
ENDPOINT_IDS = st.one_of(st.integers(0, 9), st.sampled_from([2**63 - 1, 2**63, 2**64]))
EDGE_LINE_CONTENTS = st.one_of(
    st.tuples(ENDPOINT_IDS, ENDPOINT_IDS).map(lambda e: f"{e[0]} {e[1]}"),
    st.integers(0, 12).map(lambda n: f"graph {n}"),
    st.sampled_from([
        "", " ", "# comment", "0 1  # edge", "\t0\t1", " 0 1 ", "0  1", "007 1", "1 00",
        "+1 2", "-1 2", "\u0663 1", "1 \u0663", "0 1 2", "0", "x y", "graph", "graph 3 4",
        "graph x", f"{-(2**63) - 1} 1", f"{'9' * 5000} 1",
    ]),
)


EDGE_LIST_BLOCKS = st.one_of(
    st.lists(PLAIN_LINES, min_size=1, max_size=8).map("".join),
    st.tuples(EDGE_LINE_CONTENTS, st.sampled_from(LINE_BREAKS)).map("".join),
)


@st.composite
def edge_list_texts(draw):
    """Edge-list texts: runs of plain lines between lines of every other kind,
    with every line break, so that small slices of them are read both ways."""
    text = "".join(draw(st.lists(EDGE_LIST_BLOCKS, max_size=12)))
    if draw(st.booleans()):
        text = f"graph {draw(st.integers(0, 12))}\n" + text
    if draw(st.booleans()):
        text += draw(EDGE_LINE_CONTENTS)  # a last line with no newline
    return text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=1000)
@given(edge_list_texts(), st.integers(1, 64))
@example("0 1\n1 2\n2 3\n3 4\n", 1)
@example(f"0 {2**64}\n1 2\n2 3\n3 4\n", 1)
@example(f"graph 5\n0 {2**64}\n1 2\n2 3\n3 x\n", 1)
@example("0 1\n1 2\ngraph 5\n", 1)
# Faults whose edges lie in different slices, read both ways: duplicates in
# opposite orientation (the second copy in a plain slice, then in a per-line
# one, then without a header), a self-loop after plain slices, and an id out
# of range in the last slice, plain and per-line.
@example("graph 3\n0 1\n# c\n1 0\n", 1)
@example("graph 3\n0 1\n1 0  # c\n", 1)
@example("0 1\n# c\n1 0\n", 1)
@example("graph 4\n0 1\n1 2\n3 3\n", 1)
@example("graph 3\n0 1\n1 2\n2 3\n", 1)
@example("graph 3\n0 1\n1 2\n2 3", 1)
def test_parse_edge_list_matches_per_line_reference(text, size):
    # Plain slices, converted whole, and the rest, read line by line, give
    # the Graph or the error (type, message, line) that the old per-line
    # parser gives.
    with mock.patch.object(io_formats, "_slices", partial(_slices, size=size)):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("tail", ["", "1 x  # comment\n"])
def test_plain_slices_after_an_id_past_64_bits(header, tail):
    # An id past 64 bits, read from a plain slice, turns the columns into
    # lists; later plain slices extend them, so the reference's
    # ValidationError is still raised, or the ParseError of a malformed line
    # after them.
    plain = "".join(f"{v} {v + 1}\n" for v in range(2, 20_002))
    text = f"0 1\n1 {2**64}\n{plain}{tail}"
    if header:
        text = f"graph 20003\n{text}"
    plain_slices = [_plain_endpoints(piece) is not None for piece in _slices(text)]
    assert len(plain_slices) > 3 and all(plain_slices[1:-1])
    outcome = parse_outcome(parse_edge_list, text)
    assert outcome == parse_outcome(reference_parse_edge_list, text)
    if tail:
        assert outcome == (ParseError, f"line {20_003 + header}: endpoints must be integers, got '1 x'",
                           20_003 + header)
    else:
        assert outcome[0] is ValidationError


# Edges at the vertex bound, a negative id counting back from MAX_VERTICES,
# with the error each must raise (None for a valid graph).
BOUND_KEY_CASES = [
    # (0, M-1) and (1, M-2) share a sum but not a difference.
    (((0, -1), (1, -2)), None),
    # (M-1, 0) repeats (0, M-1), and (M-1, M-2) repeats the largest sum.
    (((0, -1), (-1, 0)), "duplicate edge (4194303, 0)"),
    (((-2, -1), (-1, -2)), "duplicate edge (4194303, 4194302)"),
    # The largest and the least self-loop key, 2M - 2 and 0.
    (((-1, -1),), "self-loop at vertex 4194303"),
    (((0, 0),), "self-loop at vertex 0"),
    # A loop and an edge with the same sum differ in their keys.
    (((-3, -1), (-2, -2)), "self-loop at vertex 4194302"),
]


@pytest.mark.parametrize("header", ["", f"graph {MAX_VERTICES}\n"])
def test_duplicate_keys_at_the_vertex_bound(header):
    # With MAX_VERTICES vertices, declared or implied by the largest id, the
    # orientation-free keys |a - b|*2M + (a + b) still tell edges apart, and
    # a key below 2M is a self-loop's, whether the header is there or not.
    for edges, message in BOUND_KEY_CASES:
        edges = tuple((a % MAX_VERTICES, b % MAX_VERTICES) for a, b in edges)
        text = header + "".join(f"{a} {b}\n" for a, b in edges)
        n = MAX_VERTICES if header else 1 + max(map(max, edges))
        if message is None:
            assert parse_edge_list(text) == Graph(n, edges)
            continue
        for build in (partial(parse_edge_list, text), partial(Graph, n, edges)):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                build()


def test_parse_edge_list_at_benchmark_size():
    # A permuted, re-oriented, shuffled union(40, 199 961), as the verify-200k
    # benchmark writes it, parses to the same Graph with its plain slices
    # converted whole, with \r\n endings (every slice read line by line) and
    # with a comment on every 1 000th line.
    spec = FamilySpec(40, 199_961)
    n = spec.cycle_order + spec.path_order
    rng = random.Random(1)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a])
             for a, b in make_union(spec).edges]
    rng.shuffle(edges)
    expected = Graph(n, edges)
    lines = [f"graph {n}", *(f"{a} {b}" for a, b in edges)]
    del edges
    assert parse_edge_list("\n".join(lines) + "\n") == expected
    assert parse_edge_list("\r\n".join(lines) + "\r\n") == expected
    for i in range(1, len(lines), 1000):
        lines[i] += f"  # line {i + 1}"
    assert parse_edge_list("\n".join(lines) + "\n") == expected


def test_parse_edge_list_peak_memory():
    # The endpoints go into two array('q') columns, and the duplicate check
    # builds one set of int keys over the whole columns once they are read,
    # freed when parse_edge_list returns. This peaks at 3.41 MiB on CPython
    # 3.11.7 (3.34 MiB on 3.10.13), set by the key set; filled a slice at a
    # time it read 3.45 and 3.38 MiB. Without the key set the
    # parse peaked at 0.35 MiB, plain slices converted whole; split into
    # lines a slice at a time it read 0.64 MiB, and the whole splitlines
    # list 1.61 MiB. Holding 20 000 edge tuples, with their own set as the
    # dedupe set, peaked at 4.67 MiB.
    text = emit_edge_list(make_union(FamilySpec(40, 19_961)))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 20_000
    assert peak < 3.5 * 2**20


@settings(max_examples=300)
@given(raw_edge_lists(), st.booleans())
# Ids past the 64 bits of an array('q') column: with a header they are out of
# range, without one they imply a vertex count past the bound.
@example((3, ((0, 1), (2**63, 1))), True)
@example((3, ((0, 1), (2**63, 1))), False)
@example((3, ((1, 1), (0, -(2**63) - 1))), True)
@example((3, ((0, 1), (-(2**63) - 1, 1))), False)
@example((3, ((0, 2**70), (2**64, 1))), False)
def test_parse_edge_list_matches_int_key_reference(case, header):
    # The text of a raw_edge_lists case parses to exactly its edges, or fails
    # on the first fault in edge order with the reference loop's message.
    n, edges = case
    text = "".join(f"{a} {b}\n" for a, b in edges)
    if header:
        text = f"graph {n}\n{text}"
    else:
        n = 1 + max(chain.from_iterable(edges), default=-1)
    try:
        Graph(n)  # the vertex-count rules, checked before any edge
        reference_validate(n, edges)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as exc_info:
            parse_edge_list(text)
        assert str(exc_info.value) == str(exc)
    else:
        assert parse_edge_list(text).edges == edges


def test_parse_error_follows_an_id_past_64_bits():
    # An id past 64 bits does not stop the parse: a malformed later line still
    # raises its ParseError, quoting the stripped line without its comment.
    with pytest.raises(ParseError, match=r"^line 3: endpoints must be integers, got '1 x'$"):
        parse_edge_list(f"graph 3\n0 {2**64}\n  1 x  # comment\n")


def test_dot_requires_total_labeling():
    with pytest.raises(ValidationError, match=r"^labeling covers 2 vertices, graph has 3$"):
        emit_dot(make_path(3), Labeling((0, 1)))


def test_dot_is_deterministic():
    g = make_union(FamilySpec(4, 3))
    assert emit_dot(g, C4_P3) == emit_dot(g, C4_P3)


def test_labeling_document_round_trip():
    g = make_union(FamilySpec(4, 3))
    doc = build_labeling_document(g, C4_P3, True, family=(4, 3))
    assert parse_labeling_document(emit_report(doc)) == doc


@settings(max_examples=40)
@given(family_specs(max_cycle=14))
def test_labeling_document_round_trip_over_family(spec):
    g = make_union(spec)
    labeling = label_closed_form(spec)
    doc = build_labeling_document(
        g, labeling, True, family=(spec.cycle_order, spec.path_order)
    )
    assert parse_labeling_document(emit_report(doc)) == doc


def test_labeling_document_without_family_round_trips():
    g = make_path(2)
    doc = build_labeling_document(g, Labeling((0, 1)), True)
    parsed = parse_labeling_document(emit_report(doc))
    assert parsed.family is None
    assert parsed == doc


def test_passing_report_serialization():
    report = verify_odd_graceful(make_union(FamilySpec(4, 3)), C4_P3)
    doc = json.loads(emit_report(report))
    assert doc["kind"] == "verify-report"
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert doc["report_version"] == 2
    assert doc["tool_version"]
    assert doc["input_digest"].startswith("sha256:")


def test_boundary_failure_report_has_single_duplicate_entry():
    spec = FamilySpec(10, 6)
    labeling = label_closed_form(spec, BoundPolicy.FORCE)
    report = verify_odd_graceful(make_union(spec), labeling)
    doc = json.loads(emit_report(report))
    assert doc["violations"] == [
        {"kind": "duplicate-vertex-label", "label": 8, "vertices": [8, 15]}
    ]


def test_budget_outcome_serialization():
    g = make_union(FamilySpec(4, 3))
    outcome = search_odd_graceful(g, SearchConfig(node_budget=2))
    doc = json.loads(emit_report(outcome))
    assert doc["kind"] == "search-outcome"
    assert doc["verdict"] == "budget-exceeded"
    assert doc["nodes_explored"] == 2


def test_witness_serialization():
    outcome = search_odd_graceful(make_cycle(5))
    doc = json.loads(emit_report(outcome))
    assert doc["verdict"] == "exhausted-not-found"
    assert len(doc["odd_cycle_witness"]) == 5


def test_reports_are_byte_stable():
    report = verify_odd_graceful(make_union(FamilySpec(4, 3)), C4_P3)
    assert emit_report(report) == emit_report(report)


def test_source_text_pins_the_digest():
    report = verify_odd_graceful(make_path(2), Labeling((0, 1)))
    a = emit_report(report, source_text="one")
    b = emit_report(report, source_text="two")
    assert json.loads(a)["input_digest"] != json.loads(b)["input_digest"]


def test_parse_labeling_document_rejects_wrong_kind():
    with pytest.raises(ParseError):
        parse_labeling_document('{"kind": "verify-report"}')


U43_DOCUMENT = {
    "kind": "labeling",
    "family": {"cycle_order": 4, "path_order": 3},
    "edge_count": 6,
    "labels": list(C4_P3.labels),
    "weights": [11, 9, 5, 7, 3, 1],
    "ok": True,
}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"weights": [11, 9, 5, 7, 3, 1, 13]}, "labeling document lists 7 weights for edge_count 6"),
        ({"weights": [11, 9, 5, 7, 3]}, "labeling document lists 5 weights for edge_count 6"),
        (
            {"family": {"cycle_order": 4, "path_order": 4}},
            "labeling document family (4, 4) has 7 edges, edge_count is 6",
        ),
        ({}, None),
    ],
    ids=["extra-weight", "missing-weight", "family", "consistent"],
)
def test_parse_labeling_document_rejects_self_contradiction(changes, message):
    # The parser, not only the CLI, refuses a document that contradicts
    # itself. The text is in its format, so the error is ValidationError,
    # raised by LabelingDocument, not ParseError.
    text = json.dumps({**U43_DOCUMENT, **changes})
    if message is None:
        doc = parse_labeling_document(text)
        assert (doc.family, doc.edge_count, len(doc.weights)) == ((4, 3), 6, 6)
        return
    with pytest.raises(ValidationError) as exc_info:
        parse_labeling_document(text)
    assert str(exc_info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LabelingDocument(None, 5, (0, 1), (1,), True),
         "labeling document lists 1 weights for edge_count 5"),
        (lambda: build_labeling_document(make_path(2), Labeling((0, 1)), True, family=(4, 3)),
         "labeling document family (4, 3) has 6 edges, edge_count is 1"),
    ],
    ids=["weights", "family"],
)
def test_labeling_document_refuses_self_contradiction(build, message):
    # Every builder, not only the parser, is refused a document whose counts
    # disagree, so no report is written that parse_labeling_document (and so
    # verify and dot) would then refuse.
    with pytest.raises(ValidationError) as exc_info:
        build()
    assert str(exc_info.value) == message


def test_parse_labeling_document_reports_json_line():
    with pytest.raises(ParseError) as exc_info:
        parse_labeling_document('{\n  "kind": broken\n}')
    assert exc_info.value.line == 2


@settings(max_examples=200)
@given(st.lists(EDGE_LIST_LINES, max_size=8).map("\n".join))
def test_parse_edge_list_fails_only_with_package_errors(text):
    try:
        parse_edge_list(text)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=200)
@given(st.one_of(st.text(max_size=30), labeling_texts()))
def test_parse_labeling_document_fails_only_with_package_errors(text):
    try:
        parse_labeling_document(text)
    except (ParseError, ValidationError):
        pass


def reference_layout(text):
    """The encoder emit_report must match: json.dumps with indent=2."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "g, labeling, family",
    [
        (make_union(FamilySpec(4, 3)), C4_P3, (4, 3)),
        (make_path(2), Labeling((0, 1)), None),
        (Graph(0), Labeling(()), None),
    ],
)
def test_labeling_report_matches_reference_layout(g, labeling, family):
    doc = build_labeling_document(g, labeling, verify_odd_graceful(g, labeling).ok, family)
    text = emit_report(doc)
    assert text == reference_layout(text)


def test_failing_verify_report_matches_reference_layout():
    report = verify_odd_graceful(make_path(5), Labeling((0, 0, 9, 6, 9)))
    assert {type(v) for v in report.violations} == set(VIOLATION_KINDS)
    text = emit_report(report)
    assert text == reference_layout(text)


def test_many_violation_report_matches_asdict_layout():
    # Violation bodies are built from vars(); dataclasses.asdict, which turns
    # every nested tuple into a list, must give the same document.
    rng = random.Random(3)
    g = make_union(FamilySpec(8, 500))
    labels = tuple(rng.randrange(-50, 2 * g.edge_count + 50) for _ in range(g.vertex_count))
    report = verify_odd_graceful(g, Labeling(labels))
    assert len(report.violations) >= 400
    assert {type(v) for v in report.violations} == set(VIOLATION_KINDS)
    body = {
        "kind": "verify-report",
        "ok": False,
        "violations": [
            {"kind": VIOLATION_KINDS[type(v)], **dataclasses.asdict(v)} for v in report.violations
        ],
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    doc = {
        "report_version": REPORT_VERSION,
        "tool_version": __version__,
        "input_digest": "sha256:" + hashlib.sha256(canonical.encode()).hexdigest(),
        **body,
    }
    assert emit_report(report) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "g, cfg",
    [
        (make_union(FamilySpec(4, 3)), SearchConfig(node_budget=2)),  # labels null
        (make_union(FamilySpec(4, 3)), SearchConfig()),  # labels set
        (make_cycle(5), SearchConfig()),  # odd-cycle witness
    ],
)
def test_search_report_matches_reference_layout(g, cfg):
    text = emit_report(search_odd_graceful(g, cfg), source_text="src")
    assert text == reference_layout(text)


json_leaves = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


# Lengths at the edges of _int_chunks's chunks.
CHUNK_LENGTHS = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)


@st.composite
def int_sequences(draw):
    """An int array of a length from CHUNK_LENGTHS, as a tuple, a list or an
    array('q'), with negatives, ints of every width the container holds
    (past 64 bits but for the array), and its first items drawn directly."""
    length = draw(st.sampled_from(CHUNK_LENGTHS))
    container = draw(st.sampled_from((tuple, list, "q")))
    bits = 63 if container == "q" else 80
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = [rng.randrange(-(2**width), 2**width) for width in
              (rng.randrange(bits + 1) for _ in range(length))]
    values[:3] = draw(st.lists(st.integers(-(2**bits), 2**bits - 1), min_size=min(length, 3),
                               max_size=min(length, 3)))
    return array("q", values) if container == "q" else container(values)


report_values = (
    json_values
    | int_sequences()
    | st.lists(st.integers(-5, 5) | st.booleans(), min_size=1, max_size=6).map(tuple)
    | st.lists(st.booleans(), min_size=1, max_size=3)
    | st.lists(st.none() | st.text(st.sampled_from(',[]{}"a\\'), max_size=4), min_size=1, max_size=4)
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=6), report_values, min_size=1, max_size=4))
@example({"a": array("q"), "b": [], "c": ()})
@example({"a": (7,)})
@example({"a": [True, None, -3]})
@example({"a": ["a,b", "[c]"]})
@example({"a": [[1, 2], 3]})
@example({"a": [{"k": 1}]})
@example({"a": (2**64 + 1, -(2**70))})
def test_report_parts_match_json_dumps(body):
    # Any body, its int arrays as tuples, lists or array('q') and chunked
    # or not, is laid out as json.dumps lays out the report, and
    # input_digest is that of the compact body.
    plain = {key: list(value) if type(value) is array else value for key, value in body.items()}
    compact = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    expected = json.dumps({
        "report_version": REPORT_VERSION,
        "tool_version": __version__,
        "input_digest": "sha256:" + hashlib.sha256(compact.encode()).hexdigest(),
        **plain,
    }, indent=2, sort_keys=True) + "\n"
    with mock.patch.object(io_formats, "_payload_body", lambda payload: body):
        assert "".join(_report_parts(None)) == expected


INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()


@pytest.mark.skipif(not INT_DIGITS, reason="this Python converts ints of any length")
@pytest.mark.parametrize(
    "labels",
    [
        (10**INT_DIGITS,),
        (1,) * _CHUNK + (-(10**INT_DIGITS),),  # in the second chunk
        [True, 10**INT_DIGITS],  # not all exactly int: json.dumps's
    ],
    ids=["first-chunk", "second-chunk", "with-a-bool"],
)
@pytest.mark.parametrize("source_text", [None, "src"])
def test_report_past_the_digit_limit_names_the_value(labels, source_text):
    doc = LabelingDocument(None, 0, labels, (), False)
    message = f"^cannot write the report: an integer in its labels has more than {INT_DIGITS} digits$"
    with pytest.raises(ValidationError, match=message):
        emit_report(doc, source_text)


def reference_body(payload) -> dict:
    """The report body, built here from the payload's fields."""
    if isinstance(payload, LabelingDocument):
        family = None
        if payload.family is not None:
            family = dict(zip(("cycle_order", "path_order"), payload.family))
        return {"kind": "labeling", "family": family, "edge_count": payload.edge_count,
                "labels": list(payload.labels), "weights": list(payload.weights),
                "ok": payload.ok}
    if isinstance(payload, VerifyReport):
        violations = [{"kind": VIOLATION_KINDS[type(v)], **dataclasses.asdict(v)}
                      for v in payload.violations]
        return {"kind": "verify-report", "ok": payload.ok, "violations": violations}
    return {
        "kind": "search-outcome",
        "verdict": payload.verdict.value,
        "nodes_explored": payload.nodes_explored,
        "solutions_found": payload.solutions_found,
        "labels": list(payload.labeling.labels) if payload.labeling else None,
        "odd_cycle_witness": list(payload.odd_cycle_witness) if payload.odd_cycle_witness else None,
    }


def reference_report(payload, source_text=None) -> str:
    """The report as the stdlib encoder lays it out: the whole envelope through
    json.dumps(indent=2), input_digest over the source text or the compact body."""
    body = reference_body(payload)
    if source_text is None:
        source_text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    envelope = {
        "report_version": REPORT_VERSION,
        "tool_version": __version__,
        "input_digest": "sha256:" + hashlib.sha256(source_text.encode()).hexdigest(),
        **body,
    }
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


# Arrays that must take the int-array layout and arrays that must not:
# empty, negative and large ints, bools alone or mixed in, strings holding a
# comma, a bracket or a quote, and nested int arrays.
arrays = st.one_of(
    st.lists(st.integers(), max_size=8),
    st.lists(st.booleans(), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5) | st.booleans(), min_size=1, max_size=6),
    st.lists(st.text(st.sampled_from(',[]{}"a\\'), max_size=4), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(), max_size=3), min_size=1, max_size=4),
).map(tuple)
pairs = st.tuples(st.integers(), st.integers())
small_ints = st.integers(-3, 40)


@st.composite
def labeling_documents(draw):
    # LabelingDocument refuses counts that contradict each other, so
    # edge_count is the number of weights and a family has that many edges.
    weights = draw(arrays)
    family = draw(st.none() | st.integers().map(lambda m: (m, len(weights) + 1 - m)))
    return LabelingDocument(family, len(weights), draw(arrays), weights, draw(st.booleans()))


violations = st.one_of(
    st.builds(DuplicateVertexLabel, small_ints, st.lists(small_ints, max_size=4).map(tuple)),
    st.builds(VertexLabelOutOfRange, small_ints, st.integers()),
    st.builds(EdgeWeightEven, pairs, small_ints),
    st.builds(DuplicateEdgeWeight, small_ints, st.lists(pairs, max_size=3).map(tuple)),
    st.builds(
        EdgeWeightSetMismatch,
        st.lists(small_ints, max_size=4).map(tuple),
        st.lists(small_ints, max_size=4).map(tuple),
    ),
)
verify_reports = st.lists(violations, max_size=5).map(
    lambda vs: VerifyReport(tuple(vs))
)
search_outcomes = st.builds(
    SearchOutcome,
    verdict=st.sampled_from(SearchVerdict),
    labeling=st.none() | st.lists(st.integers(), max_size=6).map(lambda xs: Labeling(tuple(xs))),
    nodes_explored=st.integers(0),
    solutions_found=st.integers(0),
    odd_cycle_witness=st.none() | st.lists(st.integers(), max_size=5).map(tuple),
)


@settings(max_examples=300)
@given(
    st.one_of(labeling_documents(), verify_reports, search_outcomes),
    st.none() | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)
@example(LabelingDocument((4, 3), 6, ("a,b",), ([1, 2], [3], [], [4], [5, 6], [7]), True), None)
def test_emit_report_matches_reference_encoder(payload, source_text):
    assert emit_report(payload, source_text) == reference_report(payload, source_text)


@settings(max_examples=300)
@given(
    st.one_of(labeling_documents(), verify_reports, search_outcomes),
    st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=10), max_size=3),
)
def test_report_parts_with_fed_digest_equal_emit_report(payload, texts):
    # The CLI feeds each source text to the digest as it reads it; that is
    # the digest of their concatenation, which emit_report hashes whole.
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    assert "".join(_report_parts(payload, digest)) == emit_report(payload, "".join(texts))


def test_emit_report_rejects_other_payloads():
    with pytest.raises(TypeError, match="^cannot serialize object as a report$"):
        emit_report(object())


def test_emit_report_peak_memory():
    # Each int array is formatted from its ints a chunk at a time, and
    # _report_parts keeps each chunk's compact text, laid out only as its
    # iterator reaches it. emit_report peaks at 2.0 times the report length
    # here, set by its final join. _report_parts, whose parts the CLI writes
    # unjoined, peaks at 0.62 times: the compact texts, with no layout and
    # no join. Keeping every chunk's layout as a part read 1.05; laying each
    # array out from its whole compact text 1.58; keeping the last compact
    # text alive through the next encode read 2.3 for emit_report, and a
    # str object per label, joined into both texts, 4.3.
    spec = FamilySpec(40, 199_961)
    g, labeling = make_union(spec), label_closed_form(spec)
    doc = build_labeling_document(g, labeling, verify_odd_graceful(g, labeling).ok, (40, 199_961))
    del g, labeling
    results, peaks = [], []
    for writer in (emit_report, _report_parts):
        tracemalloc.start()
        try:
            results.append(writer(doc))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    text, parts = results
    assert doc.ok
    assert "".join(parts) == text
    assert peaks[0] < 3 * len(text)
    assert peaks[1] < len(text)
