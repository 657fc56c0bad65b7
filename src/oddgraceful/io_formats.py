"""Text formats: edge lists in, JSON reports and DOT out.

Edge-list format (read and write)
    optional first line    graph <vertex_count>
    body lines             <a> <b>        one edge per line, 0-based ids
    '#' starts a comment running to end of line; blank lines are ignored.
    Without the header, vertex_count defaults to 1 + the largest id used.
    Lines end where str.splitlines ends them; the text is split a slice at a
    time, so no list of every line is built.
    A vertex count above graph.MAX_VERTICES (2**22) raises ValidationError.
    The endpoints go straight into the graph's two array('q') columns; an id
    past their 64 bits fails like any id out of range, or, without the
    header, as a vertex count past the bound.

Report format (write, parse for labeling documents)
    JSON object with a fixed envelope and a kind-specific payload:
        report_version   schema revision, currently 2
        tool_version     package version that produced the report
        input_digest     "sha256:..." over the source texts, UTF-8 encoded
                         and fed to the hash one after the other as they are
                         read (so over their concatenation), when the caller
                         provides them; otherwise over the canonical payload
        kind             "labeling" | "verify-report" | "search-outcome"
    kind "labeling": family (null or {cycle_order, path_order}), edge_count,
        labels (vertex-id order), weights (edge order), ok. Weights must hold
        edge_count entries and a family edge_count edges (ValidationError);
        parsed back, numbers must be JSON integers and ok a JSON boolean.
    kind "verify-report": ok, violations (list of {kind, ...} objects using
        the tags from labeling.VIOLATION_KINDS).
    kind "search-outcome": verdict, nodes_explored, solutions_found, labels
        (null unless a labeling was found), odd_cycle_witness.
    The text is json.dumps(report, indent=2, sort_keys=True) plus a newline,
    so equal inputs give byte-identical reports. Each value is encoded once,
    compactly, and a flat array is laid out from that text (see _indented).
    The report is built as a list of text parts (_report_parts); emit_report
    joins them, and the CLI writes them unjoined, so no copy of the whole
    text is made on the way to a file or stdout.

DOT (write): undirected graph; node text is the vertex label when a labeling
is supplied (bare ids otherwise) and edge text is the induced weight. The CLI
writes it line by line (_dot_lines); emit_dot joins the lines.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass
from itertools import chain

from ._version import __version__
from .errors import ParseError, ValidationError
from .graph import Graph, _graph
from .labeling import (
    VIOLATION_KINDS,
    Labeling,
    VerifyReport,
    induced_weights,
)
from .search import SearchOutcome

REPORT_VERSION = 2


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; malformed lines raise ParseError with the
    line number, structural problems (self-loops, duplicates, ids beyond the
    declared vertex count) raise ValidationError. The endpoints are appended
    to the graph's tails and heads columns; no pair is built per edge."""
    vertex_count: int | None = None
    tails, heads = array("q"), array("q")
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "graph":
            if vertex_count is not None or tails:
                raise ParseError("header must be the first content line", line_no)
            if len(parts) != 2:
                raise ParseError("header form is 'graph <vertex_count>'", line_no)
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line_no) from None
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two endpoints, got {line!r}", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"endpoints must be integers, got {line!r}", line_no) from None
        try:
            tails.append(a)
            heads.append(b)
        except OverflowError:
            # An id past 64 bits fails every vertex count Graph allows. Lists
            # take the rest, so later lines still raise their ParseError.
            tails, heads = [*tails[: len(heads)], a], [*heads, b]
    if vertex_count is None:
        vertex_count = 1 + max(max(tails, default=-1), max(heads, default=-1))
    if type(tails) is list:
        return Graph(vertex_count, zip(tails, heads))
    return _graph(vertex_count, tails, heads)


def _lines(text: str, size: int = 1 << 16):
    """The lines of text.splitlines(), split from slices of about size
    characters, so no list of every line is built. Each slice ends just after
    a newline; the one two-character line break, \\r\\n, ends in a newline, so
    no cut falls inside a break."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def emit_edge_list(g: Graph) -> str:
    lines = [f"graph {g.vertex_count}"]
    lines.extend(f"{a} {b}" for a, b in zip(g._tails, g._heads))
    # The final newline goes on the last line, not on a copy of the joined text.
    lines[-1] += "\n"
    return "\n".join(lines)


@dataclass(frozen=True)
class LabelingDocument:
    """Self-describing record of one labeling: its family (if any), labels in
    vertex-id order, induced weights in edge order and the verifier verdict.
    Counts that contradict edge_count raise ValidationError."""

    family: tuple[int, int] | None
    edge_count: int
    labels: tuple[int, ...]
    weights: tuple[int, ...]
    ok: bool

    def __post_init__(self):
        q, family = self.edge_count, self.family
        if len(self.weights) != q:
            raise ValidationError(f"labeling document lists {len(self.weights)} weights for edge_count {q}")
        if family is not None and sum(family) - 1 != q:
            raise ValidationError(
                f"labeling document family {family} has {sum(family) - 1} edges, edge_count is {q}"
            )


def build_labeling_document(
    g: Graph,
    labeling: Labeling,
    ok: bool,
    family: tuple[int, int] | None = None,
) -> LabelingDocument:
    weights = induced_weights(g, labeling)
    return LabelingDocument(family, g.edge_count, tuple(labeling.labels), weights, ok)


def parse_labeling_document(text: str) -> LabelingDocument:
    """Parse a labeling document: ParseError if the text is not one, ValidationError
    if it contradicts itself. Whether it fits a graph is the caller's to check."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # e.g. an integer past CPython's digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != "labeling":
        raise ParseError("expected a report of kind 'labeling'")
    try:
        raw_family = doc["family"]
        family = None
        if raw_family is not None:
            family = (raw_family["cycle_order"], raw_family["path_order"])
        edge_count, labels, weights, ok = (
            doc["edge_count"], doc["labels"], doc["weights"], doc["ok"]
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed labeling document: {exc}") from None
    if type(labels) is not list or type(weights) is not list:
        raise ParseError("malformed labeling document: labels and weights must be arrays")
    # type() rather than isinstance(): bool is a subclass of int.
    if not set(map(type, chain((edge_count,), family or (), labels, weights))) <= {int}:
        raise ParseError(
            "malformed labeling document: edge_count, family orders, labels "
            "and weights must be integers"
        )
    if type(ok) is not bool:
        raise ParseError("malformed labeling document: ok must be true or false")
    # With the decoded dict gone, each list is freed as soon as it is copied.
    del doc
    labels = tuple(labels)
    weights = tuple(weights)
    return LabelingDocument(family, edge_count, labels, weights, ok)


def emit_report(
    payload: VerifyReport | SearchOutcome | LabelingDocument,
    source_text: str | None = None,
) -> str:
    """Serialize a report; byte-stable for equal inputs within a release."""
    digest = None
    if source_text is not None:
        digest = hashlib.sha256(source_text.encode())
    return "".join(_report_parts(payload, digest))


def _report_parts(payload, digest=None) -> list[str]:
    """The report text as a list of parts, in order; emit_report joins them.

    Each body value is encoded once, as its compact text
    json.dumps(value, sort_keys=True, separators=(",", ":")), and laid out
    from it. digest, when given, is a hashlib.sha256 object the caller has
    fed with the UTF-8 bytes of each source text in turn, as it read them;
    input_digest is its hex digest, that of the texts' concatenation.
    Without it input_digest is that of the compact body, hashed one
    top-level value at a time, never held whole.
    """
    body = _payload_body(payload)
    hash_body = digest is None
    if hash_body:
        digest = hashlib.sha256()
    texts = {}
    separator = "{"
    for key in sorted(body):
        compact = json.dumps(body[key], sort_keys=True, separators=(",", ":"))
        if hash_body:
            digest.update(f"{separator}{json.dumps(key)}:".encode())
            digest.update(compact.encode())
            separator = ","
        texts[key] = _indented(body[key], compact)
        del compact  # freed before the next value is encoded
    if hash_body:
        digest.update(b"}")
    # The envelope values are scalars, whose indented text is their JSON text.
    texts["report_version"] = (json.dumps(REPORT_VERSION),)
    texts["tool_version"] = (json.dumps(__version__),)
    texts["input_digest"] = (json.dumps(f"sha256:{digest.hexdigest()}"),)
    parts = []
    separator = "{\n  "
    for key in sorted(texts):
        parts += (separator, json.dumps(key), ": ", *texts[key])
        separator = ",\n  "
    parts.append("\n}\n")
    return parts


def _indented(value, compact: str) -> tuple[str, ...]:
    """The indent=2 text of a value one level inside an object, given its
    compact text, as parts to be written in order.

    The indenting encoder runs in pure Python. A non-empty array with no
    '"', '[' or '{' after its opening bracket holds only scalars, and no
    scalar's JSON text contains a comma, so its indented text is the compact
    one with a line break after each comma. Every other value is re-indented
    by replacing newlines, which is exact because the encoder escapes every
    newline inside a string. A flat array's brackets are parts of their own,
    so no concatenation copies its body.
    """
    flat = compact[0] == "[" and compact.find("[", 1) < 0 and '"' not in compact and "{" not in compact
    if flat and compact != "[]":
        return ("[\n    ", compact[1:-1].replace(",", ",\n    "), "\n  ]")
    return (json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "),)


def emit_dot(g: Graph, labeling: Labeling | None = None) -> str:
    """Render the graph in DOT, with labels on nodes and weights on edges when
    a labeling is given."""
    return "".join(_dot_lines(g, labeling))


def _dot_lines(g: Graph, labeling: Labeling | None = None):
    """emit_dot's text as an iterator of lines, each ending in a newline. The
    weights are computed before it returns, so a labeling that does not fit g
    raises ValidationError before the caller opens its output."""
    if labeling is None:
        nodes = (f"  {v};\n" for v in range(g.vertex_count))
        edges = (f"  {a} -- {b};\n" for a, b in zip(g._tails, g._heads))
    else:
        weights = induced_weights(g, labeling)
        nodes = (f'  {v} [label="{x}"];\n' for v, x in enumerate(labeling.labels))
        edges = (f'  {a} -- {b} [label="{w}"];\n' for a, b, w in zip(g._tails, g._heads, weights))
    return chain(("graph G {\n",), nodes, edges, ("}\n",))


def _payload_body(payload) -> dict:
    if isinstance(payload, LabelingDocument):
        family = None
        if payload.family is not None:
            family = {"cycle_order": payload.family[0], "path_order": payload.family[1]}
        return {
            "kind": "labeling",
            "family": family,
            "edge_count": payload.edge_count,
            "labels": payload.labels,
            "weights": payload.weights,
            "ok": payload.ok,
        }
    if isinstance(payload, VerifyReport):
        # vars() is shallow: tuples stay tuples, which json encodes as arrays.
        violations = [
            {"kind": VIOLATION_KINDS[type(violation)], **vars(violation)}
            for violation in payload.violations
        ]
        return {"kind": "verify-report", "ok": payload.ok, "violations": violations}
    if isinstance(payload, SearchOutcome):
        return {
            "kind": "search-outcome",
            "verdict": payload.verdict.value,
            "nodes_explored": payload.nodes_explored,
            "solutions_found": payload.solutions_found,
            "labels": payload.labeling.labels if payload.labeling else None,
            "odd_cycle_witness": payload.odd_cycle_witness or None,
        }
    raise TypeError(f"cannot serialize {type(payload).__name__} as a report")

